//! One base tracker for both diff hops. §3.1 ships a checkpoint as a diff
//! "from the last sent checkpoint"; a gather responder and its requester
//! ([`crate::manager`]) and a deployed node and the checker
//! ([`crate::delta`]) each keep the last bytes that crossed per key. A
//! [`BaseMap`] is that memory, and the only code that runs the unchanged <
//! patch < full ladder, the diff and the LZW codec against it.

use std::collections::BTreeMap;

use cb_model::{Decode, Encode};

use crate::delta::SlotDelta;
use crate::diff::{apply_diff, encode_diff, Diff};
use crate::lzw;

/// The last bytes sent to, or received from, each key.
#[derive(Debug)]
pub(crate) struct BaseMap<K>(BTreeMap<K, Vec<u8>>);

impl<K> Default for BaseMap<K> {
    fn default() -> Self {
        BaseMap(BTreeMap::new())
    }
}

/// Why [`BaseMap::apply`] refused an entry; the base is left as it was.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Refused {
    /// `Unchanged` or `Patch` for a key that holds no base.
    NoBase,
    /// The patch or the compressed payload is invalid.
    Corrupt,
}

impl<K: Ord> BaseMap<K> {
    /// Encodes `raw` against `key`'s base as the cheapest of unchanged <
    /// patch (if `diffs` and smaller than `raw`) < full (LZW-compressed if
    /// `pack` and smaller), then makes `raw` the base.
    pub(crate) fn encode(&mut self, key: K, raw: Vec<u8>, diffs: bool, pack: bool) -> SlotDelta {
        let base = self.0.get(&key);
        let entry = if base == Some(&raw) {
            SlotDelta::Unchanged
        } else if let Some(diff) = base
            .filter(|_| diffs)
            .map(|base| encode_diff(base, &raw).to_bytes())
            .filter(|diff| diff.len() < raw.len())
        {
            SlotDelta::Patch(diff)
        } else {
            let packed = pack
                .then(|| lzw::compress(&raw))
                .filter(|p| p.len() < raw.len());
            SlotDelta::Full {
                compressed: packed.is_some(),
                data: packed.unwrap_or_else(|| raw.clone()),
            }
        };
        self.0.insert(key, raw);
        entry
    }

    /// Applies `entry` to `key`'s base and makes the result the base,
    /// returning it.
    pub(crate) fn apply(&mut self, key: K, entry: &SlotDelta) -> Result<&[u8], Refused> {
        let bytes = match entry {
            SlotDelta::Unchanged => {
                return self.0.get(&key).map(Vec::as_slice).ok_or(Refused::NoBase)
            }
            SlotDelta::Patch(diff) => {
                let base = self.0.get(&key).ok_or(Refused::NoBase)?;
                let diff = Diff::from_bytes(diff).map_err(|_| Refused::Corrupt)?;
                apply_diff(base, &diff).ok_or(Refused::Corrupt)?
            }
            SlotDelta::Full {
                compressed: true,
                data,
            } => lzw::decompress(data).map_err(|_| Refused::Corrupt)?,
            SlotDelta::Full { data, .. } => data.clone(),
        };
        let base = self.0.entry(key).or_default();
        *base = bytes;
        Ok(base)
    }

    /// Drops the base of every key `gone` picks.
    pub(crate) fn forget(&mut self, mut gone: impl FnMut(&K) -> bool) {
        self.0.retain(|key, _| !gone(key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full(data: &[u8]) -> SlotDelta {
        SlotDelta::Full {
            compressed: false,
            data: data.to_vec(),
        }
    }

    #[test]
    fn encode_then_apply_tracks_the_same_base() {
        let mut sent = BaseMap::default();
        let mut recv = BaseMap::default();
        let first: Vec<u8> = (0..200u8).collect();
        let mut second = first.clone();
        second[50] = 0;
        for (raw, kind) in [
            (first.clone(), "full"),
            (first.clone(), "unchanged"),
            (second.clone(), "patch"),
        ] {
            let entry = sent.encode(1u32, raw.clone(), true, true);
            let got = match &entry {
                SlotDelta::Unchanged => "unchanged",
                SlotDelta::Patch(_) => "patch",
                SlotDelta::Full { .. } => "full",
            };
            assert_eq!(got, kind);
            assert_eq!(recv.apply(1, &entry).unwrap(), raw.as_slice());
        }
    }

    #[test]
    fn ladder_switches_respect_the_config() {
        let mut m = BaseMap::default();
        let raw = vec![3u8; 400];
        // Without compression a baseless value ships raw; with it, packed.
        assert_eq!(m.encode(0u32, raw.clone(), true, false), full(&raw));
        assert!(matches!(
            m.encode(1, raw.clone(), true, true),
            SlotDelta::Full {
                compressed: true,
                ..
            }
        ));
        // Without diffs a changed value ships in full; equal bytes are
        // still unchanged.
        let mut changed = raw.clone();
        changed[7] = 4;
        assert_eq!(m.encode(0, changed.clone(), false, false), full(&changed));
        assert_eq!(m.encode(0, changed, false, false), SlotDelta::Unchanged);
        // Incompressible bytes ship raw even when packing is on.
        let noise: Vec<u8> = (0..64u32).map(|i| (i * 97 % 251) as u8).collect();
        assert_eq!(m.encode(2, noise.clone(), true, true), full(&noise));
    }

    #[test]
    fn apply_refuses_without_base_and_keeps_the_base_on_error() {
        let mut m = BaseMap::default();
        let patch = SlotDelta::Patch(encode_diff(b"abcd", b"abce").to_bytes());
        assert_eq!(m.apply(0u32, &SlotDelta::Unchanged), Err(Refused::NoBase));
        assert_eq!(m.apply(0, &patch), Err(Refused::NoBase));
        assert_eq!(m.apply(0, &full(b"abcd")).unwrap(), b"abcd");
        let bomb = SlotDelta::Full {
            compressed: true,
            data: lzw::kwkwk_bomb(),
        };
        assert_eq!(m.apply(0, &bomb), Err(Refused::Corrupt));
        assert_eq!(
            m.apply(0, &SlotDelta::Patch(vec![0xff])),
            Err(Refused::Corrupt)
        );
        assert_eq!(m.apply(0, &patch).unwrap(), b"abce");
        m.forget(|&k| k == 0);
        assert_eq!(m.apply(0, &SlotDelta::Unchanged), Err(Refused::NoBase));
    }
}
