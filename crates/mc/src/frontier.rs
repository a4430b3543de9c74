//! The concurrent explored set.
//!
//! The parallel engine's shared structure (the sequential loop's frontier
//! is a plain `VecDeque` inside `Searcher::run`):
//!
//! * [`LockFreeExplored`] — the `explored` set of Fig. 5 as a lock-free
//!   open-addressing hash table: CAS-published entries over pre-sized
//!   segment arrays, growable by chaining larger segments. Exactly one
//!   inserter wins any given hash, which is what guarantees a state is
//!   never expanded twice no matter how threads race; each entry also
//!   carries the BFS level it was admitted at, which is what lets the
//!   streamed merge classify a lost insert race as "duplicate of an
//!   earlier level" vs "admitted this level by a non-canonical edge"
//!   without buffering the whole level. Two optional tiers trade exactness
//!   of representation for capacity: a *compacted* slot layout packs
//!   fingerprint and level into a single word ([`LockFreeExplored::
//!   with_options`]), and a *spill* tier moves quiescent entries into a
//!   sorted on-disk run ([`LockFreeExplored::spill_to_disk`]) so the
//!   resident footprint stays bounded while `max_states` grows.
//!   [`ExploredBatch`] amortizes the synchronization cost of a burst of
//!   inserts from one task.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};
#[cfg(not(unix))]
use std::sync::Mutex;

/// Outcome of a leveled insert into [`LockFreeExplored`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The hash was absent; this caller admitted it.
    Fresh,
    /// The hash was already present, admitted at the recorded level.
    Seen {
        /// The level the winning insert carried (clamped to
        /// [`LockFreeExplored::stored_level`] under the compact layout).
        level: u64,
    },
}

/// Empty-slot sentinel. State hashes equal to zero are remapped (see
/// `LockFreeExplored::normalize`); the remap merges hash `0` with one
/// fixed 64-bit constant, the same collision class the hash-compressed
/// explored set already accepts everywhere.
const EMPTY: u64 = 0;

/// Substitute key for hash 0 (an arbitrary odd constant).
const ZERO_SUB: u64 = 0xd6e8_feb8_6659_fd93;

/// Max slots probed (linearly) in one segment before chaining to the next.
/// The probe sequence per (key, segment) is deterministic, and an inserter
/// never skips an empty slot without CAS-claiming it — together these make
/// the segment-overflow decision race-free (see `Segment::insert`).
const PROBE_WINDOW: usize = 64;

/// Hard cap on chained segments. Capacities double per segment, so with
/// the smallest initial capacity this still covers > 2^40 entries.
const MAX_SEGMENTS: usize = 36;

/// Level stamps under the compact layout live in the low 16 bits of the
/// slot word; deeper levels saturate here. BFS levels anywhere near this
/// bound are unreachable in practice (the searches cap depth far lower).
const LEVEL_MASK: u64 = 0xFFFF;

/// Entries per spill-run block: the unit of one disk read on a probe.
/// 512 compact entries = 4 KiB.
const SPILL_BLOCK: usize = 512;

/// 48-bit fingerprint of a (normalized, nonzero) key: the identity an
/// entry keeps under the compact layout and in compact spill runs. Mixing
/// before truncating decorrelates it from structured hashes; zero is
/// remapped so a packed word of 0 always means "empty slot".
fn fingerprint48(key: u64) -> u64 {
    let fp = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ key) >> 16;
    if fp == 0 {
        ZERO_SUB >> 16
    } else {
        fp
    }
}

/// One full-width slot: the CAS-published key and its level stamp,
/// adjacent so a probe touches one cache line. `level` is written *before*
/// the key CAS and read only after an acquire-load of the key observed the
/// published hash.
struct Slot {
    key: AtomicU64,
    level: AtomicU64,
}

/// Slot storage for one segment, chosen at table construction.
///
/// * `Full` — 16 bytes/entry: the exact 64-bit key plus a full-width
///   level stamp, published with a store-then-CAS ordering chain.
/// * `Compact` — 8 bytes/entry: `fingerprint48 << 16 | level16` packed
///   into a single word, so one CAS carries both membership and stamp
///   (no ordering chain at all). The fingerprint truncation widens the
///   accepted collision class from 2^-64 to 2^-48 per pair — the same
///   kind of class the hash-compressed explored set already accepts,
///   and negligible at the state counts the compaction exists to reach.
enum Slots {
    Full(Box<[Slot]>),
    Compact(Box<[AtomicU64]>),
}

/// One fixed-capacity open-addressing array.
struct Segment {
    slots: Slots,
    mask: usize,
}

impl Segment {
    fn new(cap: usize, compact: bool) -> Box<Segment> {
        debug_assert!(cap.is_power_of_two());
        let slots = if compact {
            Slots::Compact((0..cap).map(|_| AtomicU64::new(EMPTY)).collect())
        } else {
            Slots::Full(
                (0..cap)
                    .map(|_| Slot {
                        key: AtomicU64::new(EMPTY),
                        level: AtomicU64::new(0),
                    })
                    .collect(),
            )
        };
        Box::new(Segment {
            slots,
            mask: cap - 1,
        })
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    fn bytes(&self) -> usize {
        match &self.slots {
            Slots::Full(_) => self.cap() * std::mem::size_of::<Slot>(),
            Slots::Compact(_) => self.cap() * 8,
        }
    }

    /// Deterministic probe start (Fibonacci mixing decorrelates the probe
    /// start from raw structured hashes).
    fn probe_start(key: u64, mask: usize) -> usize {
        ((key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) as usize) & mask
    }

    /// Inserts `key` into this segment, or reports it present or the
    /// window full. Linear probing over a deterministic window; an empty
    /// slot is always CAS-claimed, never skipped, so two racers for the
    /// same key can never split across segments: if one racer observes
    /// the window full, every slot it saw is occupied forever — the other
    /// racer's key cannot be (or land) among them unnoticed.
    fn insert(&self, key: u64, level: u64) -> SegOutcome {
        let mut i = Self::probe_start(key, self.mask);
        match &self.slots {
            Slots::Full(slots) => {
                for _ in 0..PROBE_WINDOW.min(slots.len()) {
                    let slot = &slots[i];
                    let cur = slot.key.load(Ordering::Acquire);
                    if cur == key {
                        return SegOutcome::Present {
                            level: slot.level.load(Ordering::Relaxed),
                        };
                    }
                    if cur == EMPTY {
                        // Publish the stamp first: the key CAS below
                        // releases it, so any acquire-load that observes
                        // the key sees the stamp. A racer for a
                        // *different* key may overwrite this store before
                        // our CAS; under the same-level-per-phase
                        // discipline both wrote the same value.
                        slot.level.store(level, Ordering::Relaxed);
                        match slot.key.compare_exchange(
                            EMPTY,
                            key,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => return SegOutcome::Inserted,
                            Err(found) if found == key => {
                                return SegOutcome::Present {
                                    level: slot.level.load(Ordering::Relaxed),
                                }
                            }
                            Err(_) => {} // another key claimed it; keep probing
                        }
                    }
                    i = (i + 1) & self.mask;
                }
            }
            Slots::Compact(words) => {
                let fp = fingerprint48(key);
                let want = (fp << 16) | level.min(LEVEL_MASK);
                for _ in 0..PROBE_WINDOW.min(words.len()) {
                    let word = &words[i];
                    let cur = word.load(Ordering::Acquire);
                    if cur >> 16 == fp {
                        return SegOutcome::Present {
                            level: cur & LEVEL_MASK,
                        };
                    }
                    if cur == EMPTY {
                        // Membership and stamp travel in one CAS — no
                        // store-then-publish chain to order.
                        match word.compare_exchange(
                            EMPTY,
                            want,
                            Ordering::AcqRel,
                            Ordering::Acquire,
                        ) {
                            Ok(_) => return SegOutcome::Inserted,
                            Err(found) if found >> 16 == fp => {
                                return SegOutcome::Present {
                                    level: found & LEVEL_MASK,
                                }
                            }
                            Err(_) => {}
                        }
                    }
                    i = (i + 1) & self.mask;
                }
            }
        }
        SegOutcome::Full
    }

    /// Looks `key` up in this segment. The first empty slot in the window
    /// proves absence from this *and all later* segments: inserts claim
    /// the first empty slot of their window and only chain when the whole
    /// window was full, and occupied slots never empty again.
    fn find(&self, key: u64) -> Option<bool> {
        let mut i = Self::probe_start(key, self.mask);
        match &self.slots {
            Slots::Full(slots) => {
                for _ in 0..PROBE_WINDOW.min(slots.len()) {
                    match slots[i].key.load(Ordering::Acquire) {
                        k if k == key => return Some(true),
                        EMPTY => return Some(false),
                        _ => i = (i + 1) & self.mask,
                    }
                }
            }
            Slots::Compact(words) => {
                let fp = fingerprint48(key);
                for _ in 0..PROBE_WINDOW.min(words.len()) {
                    match words[i].load(Ordering::Acquire) {
                        w if w >> 16 == fp => return Some(true),
                        EMPTY => return Some(false),
                        _ => i = (i + 1) & self.mask,
                    }
                }
            }
        }
        None // window full of other keys: the key may live in a later segment
    }

    /// Visits every occupied slot as `(sort_key, level)` — the identity an
    /// entry keeps on disk (the key itself in the full layout, the 48-bit
    /// fingerprint in the compact one). Only sound at a quiescent point
    /// (the spill path holds `&mut LockFreeExplored`).
    fn each_entry(&self, mut f: impl FnMut(u64, u64)) {
        match &self.slots {
            Slots::Full(slots) => {
                for slot in slots.iter() {
                    let k = slot.key.load(Ordering::Acquire);
                    if k != EMPTY {
                        f(k, slot.level.load(Ordering::Relaxed));
                    }
                }
            }
            Slots::Compact(words) => {
                for word in words.iter() {
                    let w = word.load(Ordering::Acquire);
                    if w != EMPTY {
                        f(w >> 16, w & LEVEL_MASK);
                    }
                }
            }
        }
    }
}

/// What one segment said about a key.
enum SegOutcome {
    Inserted,
    Present {
        level: u64,
    },
    /// Every slot in the key's probe window is occupied by other keys.
    Full,
}

/// The on-disk tier: one sorted immutable run of `(sort_key, level)`
/// entries in a temp file, with a resident block index (first key of each
/// [`SPILL_BLOCK`]-entry block) and a small bloom filter so the common
/// fresh-key probe costs no I/O. Rebuilt wholesale by each
/// [`LockFreeExplored::spill_to_disk`] (the new RAM entries merge-sort
/// with the previous run into a new file).
struct SpillTier {
    file: File,
    path: PathBuf,
    entries: u64,
    entry_bytes: usize,
    block_index: Vec<u64>,
    bloom_words: Box<[u64]>,
    /// `bloom bits - 1` (bit count is a power of two).
    bloom_mask: u64,
    #[cfg(not(unix))]
    seek: Mutex<()>,
}

fn bloom_probes(key: u64) -> (u64, u64) {
    let h1 = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let h2 = key.wrapping_mul(0xc2b2_ae3d_27d4_eb4f) | 1;
    (h1, h2)
}

fn bloom_set(words: &mut [u64], mask: u64, key: u64) {
    let (h1, h2) = bloom_probes(key);
    for i in 0..3u64 {
        let bit = h1.wrapping_add(i.wrapping_mul(h2)) & mask;
        words[(bit / 64) as usize] |= 1 << (bit % 64);
    }
}

impl SpillTier {
    fn bloom_contains(&self, key: u64) -> bool {
        let (h1, h2) = bloom_probes(key);
        (0..3u64).all(|i| {
            let bit = h1.wrapping_add(i.wrapping_mul(h2)) & self.bloom_mask;
            self.bloom_words[(bit / 64) as usize] & (1 << (bit % 64)) != 0
        })
    }

    fn read_exact_at(&self, buf: &mut [u8], off: u64) -> io::Result<()> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, off)
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom};
            let _g = self.seek.lock().expect("spill seek lock poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(off))?;
            f.read_exact(buf)
        }
    }

    /// Level of `sort_key` in the run, if present. Bloom-gated; one block
    /// read on a bloom hit.
    fn find(&self, sort_key: u64) -> Option<u64> {
        if self.entries == 0 || !self.bloom_contains(sort_key) {
            return None;
        }
        let block = match self.block_index.partition_point(|&first| first <= sort_key) {
            0 => return None, // below the smallest spilled key
            b => b - 1,
        };
        let start = block as u64 * SPILL_BLOCK as u64;
        let count = SPILL_BLOCK.min((self.entries - start) as usize);
        let mut buf = vec![0u8; count * self.entry_bytes];
        self.read_exact_at(&mut buf, start * self.entry_bytes as u64)
            .ok()?;
        for chunk in buf.chunks_exact(self.entry_bytes) {
            let (k, level) = decode_entry(chunk);
            if k == sort_key {
                return Some(level);
            }
            if k > sort_key {
                return None;
            }
        }
        None
    }

    /// RAM the tier itself holds (index + bloom; the run lives on disk).
    fn resident_bytes(&self) -> usize {
        self.block_index.len() * 8 + self.bloom_words.len() * 8
    }
}

impl Drop for SpillTier {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn decode_entry(chunk: &[u8]) -> (u64, u64) {
    if chunk.len() == 8 {
        let w = u64::from_le_bytes(chunk.try_into().expect("8-byte entry"));
        (w >> 16, w & LEVEL_MASK)
    } else {
        let k = u64::from_le_bytes(chunk[..8].try_into().expect("16-byte entry"));
        let l = u64::from_le_bytes(chunk[8..].try_into().expect("16-byte entry"));
        (k, l)
    }
}

fn encode_entry(out: &mut Vec<u8>, entry_bytes: usize, k: u64, level: u64) {
    if entry_bytes == 8 {
        out.extend_from_slice(&((k << 16) | level.min(LEVEL_MASK)).to_le_bytes());
    } else {
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&level.to_le_bytes());
    }
}

/// The `explored` hash set, lock-free.
///
/// Open-addressing segments of atomic slots; an insert is a single CAS on
/// the common path. When a key's probe window in every published segment
/// is full, the inserter publishes a new segment of twice the capacity
/// (CAS on the segment pointer, so concurrent growers agree) and inserts
/// there. Entries are never removed, and segments are only freed at a
/// quiescent point that holds `&mut self` ([`Self::spill_to_disk`]) or at
/// drop — shared borrows never observe a freed segment, so no epochs or
/// hazard pointers are needed.
///
/// Each entry carries a caller-supplied *level* stamp
/// ([`LockFreeExplored::insert_leveled`]). Membership (who wins an insert
/// race) is decided by the key CAS alone and holds unconditionally; the
/// stamp read back by losers is exact under the discipline the parallel
/// engine obeys — all concurrent inserters pass the same level, and level
/// changes are separated by a happens-before barrier (the engine's
/// per-level phase boundary). Stamps from different levels never race.
///
/// A key lives in exactly one place — one RAM slot, or one spill-run
/// entry, never both (the spill drains RAM wholesale and later inserts
/// check the run first) — so exactly-once admission survives spilling.
pub struct LockFreeExplored {
    segments: [AtomicPtr<Segment>; MAX_SEGMENTS],
    len: AtomicUsize,
    compact: bool,
    initial_cap: usize,
    /// Written only under `&mut self` (level boundaries); read lock-free.
    spill: Option<SpillTier>,
    spills: usize,
}

impl LockFreeExplored {
    /// Creates a set with the default initial capacity (4096 slots) and
    /// the full-width slot layout.
    pub fn new() -> Self {
        Self::with_capacity(1 << 12)
    }

    /// Creates a full-width set whose first segment holds at least `cap`
    /// slots (rounded up to a power of two, min 16). Smaller first
    /// segments chain earlier — useful to exercise the growth path in
    /// tests.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_options(cap, false)
    }

    /// Creates a set with an explicit slot layout: `compact` packs each
    /// entry into 8 bytes (48-bit fingerprint + 16-bit level) instead of
    /// 16, halving resident bytes per state at the cost of a 2^-48
    /// per-pair fingerprint collision class.
    pub fn with_options(cap: usize, compact: bool) -> Self {
        let cap = cap.max(16).next_power_of_two();
        let set = LockFreeExplored {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
            compact,
            initial_cap: cap,
            spill: None,
            spills: 0,
        };
        set.segments[0].store(Box::into_raw(Segment::new(cap, compact)), Ordering::Release);
        set
    }

    /// Remaps the empty-slot sentinel to a fixed substitute key.
    fn normalize(h: u64) -> u64 {
        if h == EMPTY {
            ZERO_SUB
        } else {
            h
        }
    }

    /// The identity a normalized key keeps on disk: the key itself in the
    /// full layout, its 48-bit fingerprint in the compact one.
    fn sort_key(&self, key: u64) -> u64 {
        if self.compact {
            fingerprint48(key)
        } else {
            key
        }
    }

    /// The level stamp as this table will store it (compact layouts
    /// saturate at 16 bits). Callers comparing an [`Admission::Seen`]
    /// level against a stamp they passed in must compare against this.
    pub fn stored_level(&self, level: u64) -> u64 {
        if self.compact {
            level.min(LEVEL_MASK)
        } else {
            level
        }
    }

    /// The published segment at `ix`, if any.
    fn segment(&self, ix: usize) -> Option<&Segment> {
        let p = self.segments[ix].load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: published segments are only freed under `&mut self`
            // (spill) or drop; no shared borrow outlives either.
            Some(unsafe { &*p })
        }
    }

    /// Publishes (or adopts a racer's) segment at `ix`, doubling the
    /// previous capacity.
    fn grow(&self, ix: usize, prev_cap: usize) -> &Segment {
        assert!(ix < MAX_SEGMENTS, "explored set exceeded segment cap");
        let fresh = Box::into_raw(Segment::new(prev_cap * 2, self.compact));
        match self.segments[ix].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: just published; freed only under &mut self or drop.
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // SAFETY: we own `fresh` (the CAS rejected it).
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: the winner's pointer is published and live.
                unsafe { &*winner }
            }
        }
    }

    /// Level of the spilled copy of `key`, if the spill tier holds one.
    fn spill_find(&self, key: u64) -> Option<u64> {
        let spill = self.spill.as_ref()?;
        spill.find(self.sort_key(key))
    }

    /// Inserts `h` stamped with `level`; returns [`Admission::Fresh`] iff
    /// it was not present. Exactly one of any set of concurrent inserters
    /// of the same hash gets `Fresh`. All concurrent callers must pass
    /// the same `level` (see the type docs) for losers' stamp readbacks
    /// to be exact; membership does not depend on it.
    pub fn insert_leveled(&self, h: u64, level: u64) -> Admission {
        let key = Self::normalize(h);
        if let Some(level) = self.spill_find(key) {
            return Admission::Seen { level };
        }
        let mut ix = 0;
        loop {
            let seg = match self.segment(ix) {
                Some(seg) => seg,
                None => {
                    let prev = self.segment(ix - 1).expect("previous segment exists");
                    self.grow(ix, prev.cap())
                }
            };
            match seg.insert(key, level) {
                SegOutcome::Inserted => {
                    self.len.fetch_add(1, Ordering::Relaxed);
                    return Admission::Fresh;
                }
                SegOutcome::Present { level } => return Admission::Seen { level },
                SegOutcome::Full => ix += 1,
            }
        }
    }

    /// Inserts `h` (stamp 0); returns true iff it was not present.
    pub fn insert(&self, h: u64) -> bool {
        matches!(self.insert_leveled(h, 0), Admission::Fresh)
    }

    /// Starts a batched insert handle for a burst of inserts from one
    /// task: the segment-chain walk is snapshotted once per batch (one
    /// acquire edge instead of one per insert) and the shared length
    /// counter takes one update per batch (on [`ExploredBatch::flush`] or
    /// drop) instead of one per admitted state. The per-key CAS — the
    /// carrier of exactly-once admission — is unchanged.
    pub fn batch(&self) -> ExploredBatch<'_> {
        let mut segs = Vec::with_capacity(4);
        let mut ix = 0;
        while let Some(seg) = self.segment(ix) {
            segs.push(seg);
            ix += 1;
        }
        ExploredBatch {
            table: self,
            segs,
            admitted: 0,
        }
    }

    /// True if `h` has been inserted.
    pub fn contains(&self, h: u64) -> bool {
        let key = Self::normalize(h);
        if self.spill_find(key).is_some() {
            return true;
        }
        let mut ix = 0;
        while let Some(seg) = self.segment(ix) {
            match seg.find(key) {
                Some(found) => return found,
                None => ix += 1,
            }
        }
        false
    }

    /// Moves every resident entry into the on-disk spill run (merging
    /// with any previous run), then restarts the RAM tier with one fresh
    /// segment at the initial capacity. Requires `&mut self`: the caller
    /// guarantees quiescence (the engine calls this only at level
    /// boundaries, after every scope has joined), which is also what
    /// makes freeing the drained segments sound.
    ///
    /// Exactly-once admission is preserved because a key lives in the run
    /// *xor* in RAM: probes consult the run first, so a spilled key can
    /// never be re-admitted. On I/O error the table is left untouched
    /// (all entries still resident) and the error returned.
    pub fn spill_to_disk(&mut self) -> io::Result<()> {
        let mut fresh: Vec<(u64, u64)> = Vec::new();
        for ix in 0..MAX_SEGMENTS {
            match self.segment(ix) {
                Some(seg) => seg.each_entry(|k, l| fresh.push((k, l))),
                None => break,
            }
        }
        fresh.sort_unstable_by_key(|e| e.0);
        let old = self
            .spill
            .as_ref()
            .map(|s| (s.path.clone(), s.entries))
            .unwrap_or((PathBuf::new(), 0));
        let total = fresh.len() as u64 + old.1;
        if total == 0 {
            return Ok(());
        }
        let entry_bytes = if self.compact { 8 } else { 16 };

        static SPILL_SEQ: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "cb-explored-{}-{}.run",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut writer = BufWriter::new(File::create(&path)?);

        let bloom_bits = (total.saturating_mul(8)).next_power_of_two().max(1024);
        let mut bloom = vec![0u64; (bloom_bits / 64) as usize];
        let mut block_index = Vec::with_capacity((total as usize).div_ceil(SPILL_BLOCK));
        let mut written = 0u64;
        let mut buf = Vec::with_capacity(entry_bytes);
        let mut emit = |w: &mut BufWriter<File>, k: u64, level: u64| -> io::Result<()> {
            if written.is_multiple_of(SPILL_BLOCK as u64) {
                block_index.push(k);
            }
            bloom_set(&mut bloom, bloom_bits - 1, k);
            buf.clear();
            encode_entry(&mut buf, entry_bytes, k, level);
            w.write_all(&buf)?;
            written += 1;
            Ok(())
        };

        // Merge the previous sorted run (streamed) with the fresh RAM
        // entries (sorted above). The streams are disjoint by the
        // run-xor-RAM invariant, so this is a plain two-way merge.
        let mut fresh_it = fresh.into_iter().peekable();
        let mut old_reader = if old.1 > 0 {
            Some(BufReader::new(File::open(&old.0)?))
        } else {
            None
        };
        let mut old_left = old.1;
        let mut read_old = |r: &mut Option<BufReader<File>>| -> io::Result<Option<(u64, u64)>> {
            if old_left == 0 {
                return Ok(None);
            }
            old_left -= 1;
            let rdr = r.as_mut().expect("old run reader");
            let mut chunk = [0u8; 16];
            rdr.read_exact(&mut chunk[..entry_bytes])?;
            Ok(Some(decode_entry(&chunk[..entry_bytes])))
        };
        let mut old_cur = read_old(&mut old_reader)?;
        loop {
            let take_old = match (old_cur, fresh_it.peek()) {
                (None, None) => break,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (Some((ok, _)), Some(&(fk, _))) => ok <= fk,
            };
            let (k, level) = if take_old {
                let e = old_cur.expect("old entry");
                old_cur = read_old(&mut old_reader)?;
                e
            } else {
                fresh_it.next().expect("fresh entry")
            };
            emit(&mut writer, k, level)?;
        }
        writer.flush()?;
        let file = File::open(&path)?;

        // Install the new run (dropping the old tier removes its file),
        // then drain and restart the RAM segment chain. Nothing above
        // mutated the table, so an early `?` return leaves it intact.
        self.spill = Some(SpillTier {
            file,
            path,
            entries: written,
            entry_bytes,
            block_index,
            bloom_words: bloom.into_boxed_slice(),
            bloom_mask: bloom_bits - 1,
            #[cfg(not(unix))]
            seek: Mutex::new(()),
        });
        self.spills += 1;
        for slot in &self.segments {
            let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // SAFETY: &mut self — no shared borrow can hold this.
                drop(unsafe { Box::from_raw(p) });
            }
        }
        self.segments[0].store(
            Box::into_raw(Segment::new(self.initial_cap, self.compact)),
            Ordering::Release,
        );
        Ok(())
    }

    /// Total number of distinct hashes inserted (resident + spilled).
    /// Batched inserts publish their count at batch flush, so this is
    /// exact at phase boundaries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of RAM the set currently holds: allocated slot arrays plus
    /// the spill tier's resident index and bloom filter.
    pub fn resident_bytes(&self) -> usize {
        let mut bytes = 0;
        for ix in 0..MAX_SEGMENTS {
            match self.segment(ix) {
                Some(seg) => bytes += seg.bytes(),
                None => break,
            }
        }
        if let Some(spill) = &self.spill {
            bytes += spill.resident_bytes();
        }
        bytes
    }

    /// Bytes of entries moved to disk across all spills so far.
    pub fn spilled_bytes(&self) -> u64 {
        self.spill
            .as_ref()
            .map(|s| s.entries * s.entry_bytes as u64)
            .unwrap_or(0)
    }

    /// Number of [`Self::spill_to_disk`] calls that moved entries.
    pub fn spill_count(&self) -> usize {
        self.spills
    }

    /// Bytes one entry occupies in a slot array (8 compact, 16 full).
    pub fn entry_bytes(&self) -> usize {
        if self.compact {
            8
        } else {
            16
        }
    }

    /// Number of published segments (growth observability for tests).
    pub fn segment_count(&self) -> usize {
        (0..MAX_SEGMENTS)
            .take_while(|&ix| self.segment(ix).is_some())
            .count()
    }
}

impl Default for LockFreeExplored {
    fn default() -> Self {
        Self::new()
    }
}

impl Drop for LockFreeExplored {
    fn drop(&mut self) {
        for slot in &self.segments {
            let p = slot.load(Ordering::Acquire);
            if !p.is_null() {
                // SAFETY: exclusively owned in drop; published via Box::into_raw.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

// SAFETY: slot state is atomic; segments are published once, immutable in
// shape, and freed only under exclusive access; the spill tier is mutated
// only under `&mut self` and its reads share no state.
unsafe impl Send for LockFreeExplored {}
unsafe impl Sync for LockFreeExplored {}

/// A batched insert handle from [`LockFreeExplored::batch`]: one
/// segment-chain snapshot and one shared-length update per batch. Dropping
/// the batch flushes; the per-key CAS semantics are identical to
/// [`LockFreeExplored::insert_leveled`].
pub struct ExploredBatch<'a> {
    table: &'a LockFreeExplored,
    segs: Vec<&'a Segment>,
    admitted: usize,
}

impl ExploredBatch<'_> {
    /// Batched [`LockFreeExplored::insert_leveled`]; same admission
    /// semantics, amortized synchronization.
    pub fn insert_leveled(&mut self, h: u64, level: u64) -> Admission {
        let key = LockFreeExplored::normalize(h);
        if let Some(level) = self.table.spill_find(key) {
            return Admission::Seen { level };
        }
        let mut ix = 0;
        loop {
            let seg = match self.segs.get(ix) {
                Some(seg) => *seg,
                None => {
                    // Past the snapshot: adopt a segment another task
                    // published since, or grow one ourselves.
                    let seg = match self.table.segment(ix) {
                        Some(seg) => seg,
                        None => {
                            let prev_cap = self.segs[ix - 1].cap();
                            self.table.grow(ix, prev_cap)
                        }
                    };
                    self.segs.push(seg);
                    seg
                }
            };
            match seg.insert(key, level) {
                SegOutcome::Inserted => {
                    self.admitted += 1;
                    return Admission::Fresh;
                }
                SegOutcome::Present { level } => return Admission::Seen { level },
                SegOutcome::Full => ix += 1,
            }
        }
    }

    /// Publishes this batch's admitted count to the shared length.
    pub fn flush(&mut self) {
        if self.admitted > 0 {
            self.table.len.fetch_add(self.admitted, Ordering::Relaxed);
            self.admitted = 0;
        }
    }
}

impl Drop for ExploredBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn lock_free_set_basic() {
        let s = LockFreeExplored::new();
        assert!(s.is_empty());
        assert!(s.insert(7));
        assert!(!s.insert(7));
        assert!(s.contains(7));
        assert!(!s.contains(8));
        assert!(s.insert(8));
        assert_eq!(s.len(), 2);
        assert_eq!(s.segment_count(), 1);
    }

    #[test]
    fn zero_hash_is_a_valid_member() {
        for compact in [false, true] {
            let s = LockFreeExplored::with_options(16, compact);
            assert!(!s.contains(0));
            assert!(s.insert(0));
            assert!(!s.insert(0));
            assert!(s.contains(0));
            assert_eq!(s.len(), 1);
        }
    }

    #[test]
    fn level_stamps_record_the_admitting_level() {
        for compact in [false, true] {
            let s = LockFreeExplored::with_options(16, compact);
            assert_eq!(s.insert_leveled(42, 3), Admission::Fresh);
            assert_eq!(s.insert_leveled(42, 5), Admission::Seen { level: 3 });
            assert_eq!(s.insert_leveled(42, 3), Admission::Seen { level: 3 });
            assert_eq!(s.insert_leveled(43, 5), Admission::Fresh);
            assert_eq!(s.insert_leveled(43, 9), Admission::Seen { level: 5 });
        }
    }

    #[test]
    fn growth_chains_segments_and_keeps_set_semantics() {
        // A first segment of 16 slots with a 64-slot probe window fills
        // fast; 10_000 keys force several chained segments. Runs under
        // both slot layouts — the compact one must keep identical set
        // semantics through growth.
        for compact in [false, true] {
            let s = LockFreeExplored::with_options(16, compact);
            for k in 0..10_000u64 {
                assert!(s.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d)));
            }
            assert!(s.segment_count() > 1, "growth path exercised");
            assert_eq!(s.len(), 10_000);
            for k in 0..10_000u64 {
                let h = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert!(s.contains(h));
                assert!(!s.insert(h), "re-insert after growth stays a duplicate");
            }
            assert!(!s.contains(0xdead_beef));
            if compact {
                assert_eq!(s.entry_bytes(), 8);
            }
        }
    }

    /// The property the parallel engine's correctness rests on: under
    /// concurrent insertion of overlapping hash streams, every hash is won
    /// by exactly one inserter — a state can never be expanded twice.
    #[test]
    fn never_double_admits_under_concurrency() {
        let set = LockFreeExplored::new();
        let wins = AtomicUsize::new(0);
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let set = &set;
                let wins = &wins;
                s.spawn(move || {
                    // Every thread tries the same hash universe, shifted so
                    // contention patterns differ per thread.
                    for k in 0..per_thread {
                        let h = (k + t * 37) % per_thread;
                        if set.insert(h) {
                            wins.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            wins.load(Ordering::Relaxed),
            per_thread as usize,
            "each hash admitted exactly once across {threads} racing threads"
        );
        assert_eq!(set.len(), per_thread as usize);
    }

    /// The same exactly-once property hammered from `WorkerPool` workers —
    /// the threads the real expand phase runs on — through the
    /// growth/segment-chain path, checked against a reference `HashSet`.
    /// Runs under both slot layouts and with batched insert handles (the
    /// production expand path), so the batched CAS admission is proven
    /// against the same reference.
    #[test]
    fn pool_workers_agree_with_reference_set_through_growth() {
        for compact in [false, true] {
            let pool = WorkerPool::new(4);
            let set = LockFreeExplored::with_options(32, compact);
            let workers = 6;
            let per_worker = 8_000usize;
            // Overlapping pseudo-random streams: ~half of each worker's keys
            // collide with a sibling's.
            let key = |w: usize, k: usize| -> u64 {
                let shared = k.is_multiple_of(2);
                let x = if shared {
                    k as u64
                } else {
                    (w * 1_000_000 + k) as u64
                };
                x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 7)
            };
            let wins: Vec<Mutex<Vec<u64>>> = (0..workers).map(|_| Mutex::new(Vec::new())).collect();
            pool.scope(|s| {
                for w in 0..workers {
                    let set = &set;
                    let wins = &wins;
                    let key = &key;
                    s.spawn(move || {
                        let mut mine = Vec::new();
                        let mut batch = set.batch();
                        for k in 0..per_worker {
                            let h = key(w, k);
                            if batch.insert_leveled(h, 1) == Admission::Fresh {
                                mine.push(h);
                            }
                        }
                        drop(batch);
                        *wins[w].lock().unwrap() = mine;
                    });
                }
            });
            let mut reference: HashSet<u64> = HashSet::new();
            for w in 0..workers {
                for k in 0..per_worker {
                    reference.insert(LockFreeExplored::normalize(key(w, k)));
                }
            }
            let mut won: Vec<u64> = Vec::new();
            for w in wins {
                won.extend(w.into_inner().unwrap());
            }
            let distinct_wins: HashSet<u64> = won
                .iter()
                .map(|&h| LockFreeExplored::normalize(h))
                .collect();
            assert_eq!(
                won.len(),
                distinct_wins.len(),
                "no hash was admitted twice across racing pool workers (compact={compact})"
            );
            assert_eq!(distinct_wins, reference, "wins cover exactly the universe");
            assert_eq!(set.len(), reference.len(), "batched len flushes are exact");
            assert!(set.segment_count() > 1, "contention crossed segment chains");
            for &h in &reference {
                assert!(set.contains(h));
                assert_eq!(set.insert_leveled(h, 9), Admission::Seen { level: 1 });
            }
        }
    }

    /// Spill-and-rehit round-trip under both layouts: spilled entries stay
    /// members with their admitting level, fresh keys still insert, and a
    /// second spill merges the runs.
    #[test]
    fn spill_roundtrip_keeps_membership_and_levels() {
        for compact in [false, true] {
            let mut s = LockFreeExplored::with_options(16, compact);
            // k starts at 1: k = 0 would hash to 0, which normalizes to
            // the same member as the explicit zero-hash insert below.
            for k in 1..=4_000u64 {
                let h = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert_eq!(s.insert_leveled(h, (k % 7) + 1), Admission::Fresh);
            }
            assert!(s.insert(0), "zero hash admitted before spill");
            let resident_before = s.resident_bytes();
            s.spill_to_disk().expect("first spill");
            assert_eq!(s.spill_count(), 1);
            assert!(s.spilled_bytes() > 0);
            assert!(
                s.resident_bytes() < resident_before,
                "spill shrank the resident footprint \
                 ({} -> {})",
                resident_before,
                s.resident_bytes()
            );
            assert_eq!(s.len(), 4_001, "len counts spilled entries");
            assert!(s.contains(0), "zero hash survives the spill");
            for k in 1..=4_000u64 {
                let h = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert!(s.contains(h), "spilled key remains a member");
                assert_eq!(
                    s.insert_leveled(h, 99),
                    Admission::Seen { level: (k % 7) + 1 },
                    "re-insert of a spilled key reports its admitting level"
                );
            }
            // A second wave inserts fresh keys, then a second spill must
            // merge the runs and keep both waves.
            for k in 4_001..=8_000u64 {
                let h = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert_eq!(s.insert_leveled(h, 9), Admission::Fresh);
            }
            s.spill_to_disk().expect("second spill");
            assert_eq!(s.spill_count(), 2);
            assert_eq!(s.len(), 8_001);
            for k in 1..=8_000u64 {
                let h = k.wrapping_mul(0x2545_f491_4f6c_dd1d);
                assert!(s.contains(h), "both spill waves remain members");
                assert!(!s.insert(h));
            }
            assert!(!s.contains(0xdead_beef));
        }
    }

    /// Exactly-once admission across spills under pool contention: racing
    /// batched inserters between two spill boundaries, checked against a
    /// reference `HashSet` exactly like the in-RAM growth test.
    #[test]
    fn spill_preserves_exactly_once_under_pool_contention() {
        for compact in [false, true] {
            let pool = WorkerPool::new(4);
            let mut set = LockFreeExplored::with_options(32, compact);
            let workers = 4;
            let per_worker = 3_000usize;
            let key = |phase: usize, w: usize, k: usize| -> u64 {
                // Overlap within a phase (shared even keys) and across
                // phases (each phase re-tries the previous phase's shared
                // range, which by then is spilled).
                let shared = k.is_multiple_of(2);
                let x = if shared {
                    (phase / 2 * 1_000 + k) as u64
                } else {
                    (phase * 50_000_000 + w * 1_000_000 + k) as u64
                };
                x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (x >> 7)
            };
            let mut won: Vec<u64> = Vec::new();
            for phase in 0..3 {
                let wins: Vec<Mutex<Vec<u64>>> =
                    (0..workers).map(|_| Mutex::new(Vec::new())).collect();
                let set_ref = &set;
                pool.scope(|s| {
                    for w in 0..workers {
                        let wins = &wins;
                        let key = &key;
                        s.spawn(move || {
                            let mut mine = Vec::new();
                            let mut batch = set_ref.batch();
                            for k in 0..per_worker {
                                let h = key(phase, w, k);
                                if batch.insert_leveled(h, phase as u64 + 1) == Admission::Fresh {
                                    mine.push(h);
                                }
                            }
                            drop(batch);
                            *wins[w].lock().unwrap() = mine;
                        });
                    }
                });
                for w in wins {
                    won.extend(w.into_inner().unwrap());
                }
                set.spill_to_disk().expect("phase spill");
            }
            let mut reference: HashSet<u64> = HashSet::new();
            for phase in 0..3 {
                for w in 0..workers {
                    for k in 0..per_worker {
                        reference.insert(LockFreeExplored::normalize(key(phase, w, k)));
                    }
                }
            }
            let distinct: HashSet<u64> = won
                .iter()
                .map(|&h| LockFreeExplored::normalize(h))
                .collect();
            assert_eq!(
                won.len(),
                distinct.len(),
                "no hash admitted twice across spill boundaries (compact={compact})"
            );
            assert_eq!(distinct, reference, "wins cover exactly the universe");
            assert_eq!(set.len(), reference.len());
            assert!(set.spill_count() >= 3);
            for &h in &reference {
                assert!(set.contains(h));
            }
        }
    }
}
