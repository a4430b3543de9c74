//! Byte-level diffs between consecutive checkpoints.
//!
//! "To reduce the amount of checkpoint data we transmit, CrystalBall can
//! use a number of techniques. First, it can employ 'diffs' that enable a
//! node to transmit only parts of state that are different from the last
//! sent checkpoint" (§3.1). The encoding is a list of `(offset, bytes)`
//! patches against the previous checkpoint plus the new total length.
//! This module is the patch format alone: which base a diff is taken
//! against, and when a sender ships it at all instead of a full payload,
//! is the crate-private `BaseMap`'s business, for both snapshot hops.

use cb_model::{Decode, DecodeError, Encode, Reader};

use crate::lzw;

/// A patch set transforming one byte string into another.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diff {
    /// Length of the new value.
    pub new_len: usize,
    /// Replacement runs: `(offset, bytes)`, non-overlapping, ascending.
    pub patches: Vec<(usize, Vec<u8>)>,
}

impl Encode for Diff {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.new_len.encode(buf);
        self.patches.len().encode(buf);
        for (off, bytes) in &self.patches {
            off.encode(buf);
            bytes.len().encode(buf);
            buf.extend_from_slice(bytes);
        }
    }
}

impl Decode for Diff {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let new_len = usize::decode(r)?;
        let n = r.length()?;
        let mut patches = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            let off = usize::decode(r)?;
            let len = r.length()?;
            patches.push((off, r.take(len)?.to_vec()));
        }
        Ok(Diff { new_len, patches })
    }
}

/// Computes a patch set turning `old` into `new` by scanning for differing
/// runs (gap-merged so close-by edits coalesce into one patch).
pub fn encode_diff(old: &[u8], new: &[u8]) -> Diff {
    const MERGE_GAP: usize = 8;
    let common = old.len().min(new.len());
    let mut patches: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut i = 0;
    while i < common {
        if old[i] == new[i] {
            i += 1;
            continue;
        }
        // Start of a differing run; extend until MERGE_GAP equal bytes.
        let start = i;
        let mut end = i + 1;
        let mut equal_run = 0;
        while end < common && equal_run < MERGE_GAP {
            if old[end] == new[end] {
                equal_run += 1;
            } else {
                equal_run = 0;
            }
            end += 1;
        }
        let end = end - equal_run;
        patches.push((start, new[start..end].to_vec()));
        i = end + equal_run;
    }
    if new.len() > common {
        // Appended tail.
        match patches.last_mut() {
            Some((off, bytes)) if *off + bytes.len() == common => {
                bytes.extend_from_slice(&new[common..]);
            }
            _ => patches.push((common, new[common..].to_vec())),
        }
    }
    Diff {
        new_len: new.len(),
        patches,
    }
}

/// Applies a patch set to `old`, producing the new value.
///
/// Returns `None` if the diff is inconsistent with `old` (e.g. a patch
/// past the new length), and — before allocating anything — if `new_len`
/// exceeds [`lzw::MAX_DECOMPRESSED_LEN`]: it comes straight off the wire,
/// and no value that travels in one frame, compressed or patched, is
/// larger than that.
///
/// The tighter rule `new_len <= old.len() + Σ patch bytes`, which every
/// [`encode_diff`] output satisfies against the base it was computed
/// from, is deliberately not enforced: a gather reply names no base, so a
/// receiver whose base for the sender differs from the responder's (a
/// dropped reply, a failed peer) applies an honest diff to a shorter base
/// — zero-filled where nothing backs it. `CheckpointManager::handle`
/// even applies a patch from a peer it holds no base for to an empty one
/// (counted in `SnapshotStats::patches_without_base`). Both are ROADMAP
/// item 1's hazard; the bound returns once a delta names its base.
pub fn apply_diff(old: &[u8], diff: &Diff) -> Option<Vec<u8>> {
    if diff.new_len > lzw::MAX_DECOMPRESSED_LEN {
        return None;
    }
    let mut out = old.to_vec();
    out.resize(diff.new_len, 0);
    for (off, bytes) in &diff.patches {
        let end = off.checked_add(bytes.len())?;
        if end > out.len() {
            return None;
        }
        out[*off..end].copy_from_slice(bytes);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(old: &[u8], new: &[u8]) -> Diff {
        let d = encode_diff(old, new);
        assert_eq!(apply_diff(old, &d).unwrap(), new);
        // Wire roundtrip too.
        assert_eq!(Diff::from_bytes(&d.to_bytes()).unwrap(), d);
        d
    }

    #[test]
    fn identical_inputs_produce_empty_diff() {
        let d = roundtrip(b"same bytes", b"same bytes");
        assert!(d.patches.is_empty());
    }

    #[test]
    fn single_change_is_one_patch() {
        let d = roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa", b"aaaaaaaaaaaaXaaaaaaaaaaa");
        assert_eq!(d.patches.len(), 1);
        assert_eq!(d.patches[0].0, 12);
    }

    #[test]
    fn nearby_changes_merge() {
        let d = roundtrip(b"aaaaaaaaaaaaaaaaaaaaaaaa", b"aaXaaaaYaaaaaaaaaaaaaaaa");
        assert_eq!(d.patches.len(), 1, "changes 5 bytes apart share one patch");
    }

    #[test]
    fn distant_changes_stay_separate() {
        let mut new = vec![b'a'; 100];
        new[2] = b'X';
        new[90] = b'Y';
        let d = roundtrip(&[b'a'; 100], &new);
        assert_eq!(d.patches.len(), 2);
    }

    #[test]
    fn growth_and_shrink() {
        roundtrip(b"short", b"short plus appended tail");
        roundtrip(b"long original input", b"long");
        roundtrip(b"", b"from empty");
        roundtrip(b"to empty", b"");
    }

    #[test]
    fn small_state_change_beats_full_transfer() {
        // A realistic checkpoint evolution: one counter changed in 1 kB.
        let old: Vec<u8> = (0..1024u32).map(|x| (x % 251) as u8).collect();
        let mut new = old.clone();
        new[512] = new[512].wrapping_add(1);
        let d = encode_diff(&old, &new);
        assert!(
            d.to_bytes().len() < 32,
            "tiny diff: {} bytes",
            d.to_bytes().len()
        );
    }

    #[test]
    fn corrupt_diff_rejected() {
        let d = Diff {
            new_len: 4,
            patches: vec![(10, vec![1, 2, 3])],
        };
        assert_eq!(apply_diff(b"abcd", &d), None);
    }

    #[test]
    fn inflated_new_len_rejected_before_allocating() {
        // A 20-byte wire diff claiming a terabyte: `resize` would abort
        // the process on the failed allocation.
        let d = Diff {
            new_len: 1 << 40,
            patches: vec![(0, vec![7; 4])],
        };
        let wire = d.to_bytes();
        assert!(wire.len() <= 20, "{} bytes", wire.len());
        let d = Diff::from_bytes(&wire).expect("well-formed on the wire");
        assert_eq!(apply_diff(b"abcd", &d), None);
        // The cap itself is the last length accepted, and a stale (here:
        // lost) base is no reason to refuse an honest diff.
        let claim = |new_len| Diff {
            new_len,
            patches: Vec::new(),
        };
        assert_eq!(apply_diff(b"", &claim(lzw::MAX_DECOMPRESSED_LEN + 1)), None);
        let full = apply_diff(b"", &claim(lzw::MAX_DECOMPRESSED_LEN)).expect("at the cap");
        assert_eq!(full.len(), lzw::MAX_DECOMPRESSED_LEN);
        let honest = encode_diff(b"abcd", b"abcdef");
        assert_eq!(apply_diff(b"", &honest).unwrap(), b"\0\0\0\0ef");
    }

    #[test]
    fn fully_divergent_inputs_fall_back_to_one_patch_run() {
        // Adversarial case: no byte in common — the patch set degenerates
        // to a single whole-buffer replacement, never worse.
        let old = vec![0xaau8; 4096];
        let new = vec![0x55u8; 4096];
        let d = roundtrip(&old, &new);
        assert_eq!(d.patches.len(), 1);
        assert_eq!(d.patches[0].0, 0);
        assert_eq!(d.patches[0].1.len(), 4096);
        // And the encoded diff stays within a small constant of the input.
        assert!(d.to_bytes().len() <= new.len() + 16);
    }

    #[test]
    fn large_states_over_64k_roundtrip() {
        // > 64 KiB buffers: usize offsets past u16 range, long equal runs,
        // sparse distant edits, growth and truncation.
        let mut x: u32 = 7;
        let mut old = Vec::with_capacity(80 * 1024);
        for _ in 0..80 * 1024 {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            old.push((x >> 24) as u8);
        }
        // Sparse edits spread across the whole buffer.
        let mut new = old.clone();
        for i in (0..new.len()).step_by(7919) {
            new[i] = new[i].wrapping_add(1);
        }
        let d = roundtrip(&old, &new);
        assert!(
            d.to_bytes().len() < old.len() / 8,
            "sparse edits in a 80 KiB state ship as a small diff ({} B)",
            d.to_bytes().len()
        );
        // Growth past 64 KiB and truncation to a prefix.
        let mut grown = old.clone();
        grown.extend_from_slice(&old[..10_000]);
        roundtrip(&old, &grown);
        roundtrip(&old, &old[..1000]);
        // Fully-divergent at this size too.
        let inverted: Vec<u8> = old.iter().map(|b| !b).collect();
        roundtrip(&old, &inverted);
    }

    // Randomized roundtrips over seeded pseudo-random inputs (stand-ins
    // for the original property-based tests; proptest is unavailable
    // offline, and a fixed seed makes failures directly reproducible).

    #[test]
    fn random_apply_and_wire_roundtrip() {
        let mut r = StdRng::seed_from_u64(0xd1ff);
        let mut blob = |max: usize| -> Vec<u8> {
            (0..r.gen_range(0usize..max))
                .map(|_| (r.gen::<u32>() & 0xff) as u8)
                .collect()
        };
        for _ in 0..256 {
            let old = blob(512);
            let new = blob(512);
            let d = encode_diff(&old, &new);
            assert_eq!(apply_diff(&old, &d).unwrap(), new);
            assert_eq!(Diff::from_bytes(&d.to_bytes()).unwrap(), d);
        }
    }
}
