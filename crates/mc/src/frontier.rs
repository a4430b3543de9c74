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
//!   without buffering the whole level. An entry is the full 64-bit state
//!   hash and its level stamp, 16 bytes: the table keeps only hashes
//!   (§5.5), the same ones the sequential engine's `DigestSet` keeps, so
//!   both engines accept exactly the same collision class.
//! * [`ExploredBatch`] — the one insert path: a burst of inserts from one
//!   task shares one segment-chain snapshot and one length update.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Outcome of a leveled insert into [`LockFreeExplored`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The hash was absent; this caller admitted it.
    Fresh,
    /// The hash was already present, admitted at the recorded level.
    Seen {
        /// The level the winning insert carried.
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

/// One slot: the CAS-published key and its level stamp, adjacent so a
/// probe touches one cache line. `level` is written *before* the key CAS
/// and read only after an acquire-load of the key observed the published
/// hash.
struct Slot {
    key: AtomicU64,
    level: AtomicU64,
}

/// One fixed-capacity open-addressing array.
struct Segment {
    slots: Box<[Slot]>,
    mask: usize,
}

impl Segment {
    fn new(cap: usize) -> Box<Segment> {
        debug_assert!(cap.is_power_of_two());
        Box::new(Segment {
            slots: (0..cap)
                .map(|_| Slot {
                    key: AtomicU64::new(EMPTY),
                    level: AtomicU64::new(0),
                })
                .collect(),
            mask: cap - 1,
        })
    }

    fn cap(&self) -> usize {
        self.mask + 1
    }

    fn bytes(&self) -> usize {
        self.cap() * std::mem::size_of::<Slot>()
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
        for _ in 0..PROBE_WINDOW.min(self.slots.len()) {
            let slot = &self.slots[i];
            let cur = slot.key.load(Ordering::Acquire);
            if cur == key {
                return SegOutcome::Present {
                    level: slot.level.load(Ordering::Relaxed),
                };
            }
            if cur == EMPTY {
                // Publish the stamp first: the key CAS below releases it,
                // so any acquire-load that observes the key sees the
                // stamp. A racer for a *different* key may overwrite this
                // store before our CAS; under the same-level-per-phase
                // discipline both wrote the same value.
                slot.level.store(level, Ordering::Relaxed);
                match slot
                    .key
                    .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
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
        SegOutcome::Full
    }

    /// Looks `key` up in this segment. The first empty slot in the window
    /// proves absence from this *and all later* segments: inserts claim
    /// the first empty slot of their window and only chain when the whole
    /// window was full, and occupied slots never empty again.
    fn find(&self, key: u64) -> Option<bool> {
        let mut i = Self::probe_start(key, self.mask);
        for _ in 0..PROBE_WINDOW.min(self.slots.len()) {
            match self.slots[i].key.load(Ordering::Acquire) {
                k if k == key => return Some(true),
                EMPTY => return Some(false),
                _ => i = (i + 1) & self.mask,
            }
        }
        None // window full of other keys: the key may live in a later segment
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

/// The `explored` hash set, lock-free.
///
/// Open-addressing segments of atomic slots; an insert is a single CAS on
/// the common path. When a key's probe window in every published segment
/// is full, the inserter publishes a new segment of twice the capacity
/// (CAS on the segment pointer, so concurrent growers agree) and inserts
/// there. Entries are never removed and segments are freed only at drop,
/// so shared borrows never observe a freed segment — no epochs or hazard
/// pointers are needed.
///
/// Each entry carries a caller-supplied *level* stamp
/// ([`ExploredBatch::insert_leveled`]). Membership (who wins an insert
/// race) is decided by the key CAS alone and holds unconditionally; the
/// stamp read back by losers is exact under the discipline the parallel
/// engine obeys — all concurrent inserters pass the same level, and level
/// changes are separated by a happens-before barrier (the engine's
/// per-level phase boundary). Stamps from different levels never race.
pub struct LockFreeExplored {
    segments: [AtomicPtr<Segment>; MAX_SEGMENTS],
    len: AtomicUsize,
}

impl LockFreeExplored {
    /// Creates a set with the default initial capacity (4096 slots).
    pub fn new() -> Self {
        Self::with_capacity(1 << 12)
    }

    /// Creates a set whose first segment holds at least `cap` slots
    /// (rounded up to a power of two, min 16). Smaller first segments
    /// chain earlier — useful to exercise the growth path in tests.
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.max(16).next_power_of_two();
        let set = LockFreeExplored {
            segments: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            len: AtomicUsize::new(0),
        };
        set.segments[0].store(Box::into_raw(Segment::new(cap)), Ordering::Release);
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

    /// The published segment at `ix`, if any.
    fn segment(&self, ix: usize) -> Option<&Segment> {
        let p = self.segments[ix].load(Ordering::Acquire);
        if p.is_null() {
            None
        } else {
            // SAFETY: published segments are only freed at drop, which no
            // shared borrow outlives.
            Some(unsafe { &*p })
        }
    }

    /// Publishes (or adopts a racer's) segment at `ix`, doubling the
    /// previous capacity.
    fn grow(&self, ix: usize, prev_cap: usize) -> &Segment {
        assert!(ix < MAX_SEGMENTS, "explored set exceeded segment cap");
        let fresh = Box::into_raw(Segment::new(prev_cap * 2));
        match self.segments[ix].compare_exchange(
            std::ptr::null_mut(),
            fresh,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            // SAFETY: just published; freed only at drop.
            Ok(_) => unsafe { &*fresh },
            Err(winner) => {
                // SAFETY: we own `fresh` (the CAS rejected it).
                drop(unsafe { Box::from_raw(fresh) });
                // SAFETY: the winner's pointer is published and live.
                unsafe { &*winner }
            }
        }
    }

    /// Starts a batched insert handle — the table's one insert path — for
    /// a burst of inserts from one task: the segment-chain walk is
    /// snapshotted once per batch (one acquire edge instead of one per
    /// insert) and the shared length counter takes one update per batch
    /// (on [`ExploredBatch::flush`] or drop) instead of one per admitted
    /// state. The per-key CAS is the carrier of exactly-once admission.
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
        let mut ix = 0;
        while let Some(seg) = self.segment(ix) {
            match seg.find(key) {
                Some(found) => return found,
                None => ix += 1,
            }
        }
        false
    }

    /// Total number of distinct hashes inserted. Batched inserts publish
    /// their count at batch flush, so this is exact at phase boundaries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes of RAM the set currently holds: its allocated slot arrays.
    pub fn resident_bytes(&self) -> usize {
        (0..MAX_SEGMENTS)
            .map_while(|ix| self.segment(ix))
            .map(Segment::bytes)
            .sum()
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

/// A batched insert handle from [`LockFreeExplored::batch`]: one
/// segment-chain snapshot and one shared-length update per batch. Dropping
/// the batch flushes.
pub struct ExploredBatch<'a> {
    table: &'a LockFreeExplored,
    segs: Vec<&'a Segment>,
    admitted: usize,
}

impl ExploredBatch<'_> {
    /// Inserts `h` stamped with `level`; returns [`Admission::Fresh`] iff
    /// it was not present. Exactly one of any set of concurrent inserters
    /// of the same hash — through any batches of the same table — gets
    /// `Fresh`. All concurrent callers must pass the same `level` (see
    /// [`LockFreeExplored`]) for losers' stamp readbacks to be exact;
    /// membership does not depend on it.
    pub fn insert_leveled(&mut self, h: u64, level: u64) -> Admission {
        let key = LockFreeExplored::normalize(h);
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

    /// Single inserts, each through a batch of its own.
    impl LockFreeExplored {
        fn insert_leveled(&self, h: u64, level: u64) -> Admission {
            self.batch().insert_leveled(h, level)
        }

        fn insert(&self, h: u64) -> bool {
            matches!(self.insert_leveled(h, 0), Admission::Fresh)
        }
    }

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
        let s = LockFreeExplored::with_capacity(16);
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.contains(0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn level_stamps_record_the_admitting_level() {
        let s = LockFreeExplored::with_capacity(16);
        assert_eq!(s.insert_leveled(42, 3), Admission::Fresh);
        assert_eq!(s.insert_leveled(42, 5), Admission::Seen { level: 3 });
        assert_eq!(s.insert_leveled(42, 3), Admission::Seen { level: 3 });
        assert_eq!(s.insert_leveled(43, 5), Admission::Fresh);
        assert_eq!(s.insert_leveled(43, 9), Admission::Seen { level: 5 });
    }

    #[test]
    fn growth_chains_segments_and_keeps_set_semantics() {
        // A first segment of 16 slots with a 64-slot probe window fills
        // fast; 10_000 keys force several chained segments.
        let s = LockFreeExplored::with_capacity(16);
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
    /// growth/segment-chain path, checked against a reference `HashSet`,
    /// with batched insert handles (the production expand path).
    #[test]
    fn pool_workers_agree_with_reference_set_through_growth() {
        let pool = WorkerPool::new(4);
        let set = LockFreeExplored::with_capacity(32);
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
            "no hash was admitted twice across racing pool workers"
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
