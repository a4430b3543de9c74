//! The concurrent explored set.
//!
//! The parallel engine's shared structure (the sequential loop's frontier
//! is a plain `VecDeque` inside `Searcher::run`):
//!
//! * [`LockFreeExplored`] — the `explored` set of Fig. 5 as a lock-free
//!   open-addressing hash table: CAS-published keys over pre-sized
//!   segment arrays, growable by chaining larger segments. Exactly one slot
//!   ever holds a given hash, however threads race. An entry is the full
//!   64-bit state hash and a *position word*, 16 bytes: the table keeps
//!   only hashes (§5.5), the same ones the sequential engine's `DigestSet`
//!   keeps, so both engines accept exactly the same collision class.
//! * [`ExploredBatch`] — the one claim path: a burst of claims from one
//!   task shares one segment-chain snapshot and one length update.
//! * [`Claim`] — one caller's claim of a hash at a *position*. The word
//!   keeps the least position ever claimed for its hash (`fetch_min`), so
//!   whichever order claims race in, the word ends at the minimum, and a
//!   claim *leads* when no position at or below its own was there before
//!   it. The parallel engine packs a successor edge's position as
//!   ([`position`]) its BFS level over its job index, so numeric order is
//!   canonical order and the least position for a hash is the edge the
//!   sequential engine would have enqueued.

use std::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// Empty-slot sentinel. State hashes equal to zero are remapped (see
/// `LockFreeExplored::normalize`); the remap merges hash `0` with one
/// fixed 64-bit constant, the same collision class the hash-compressed
/// explored set already accepts everywhere.
const EMPTY: u64 = 0;

/// Substitute key for hash 0 (an arbitrary odd constant).
const ZERO_SUB: u64 = 0xd6e8_feb8_6659_fd93;

/// A position word no claim has lowered yet. [`position`] never packs it.
const UNCLAIMED: u64 = u64::MAX;

/// Max slots probed (linearly) in one segment before chaining to the next.
/// The probe sequence per (key, segment) is deterministic, and an inserter
/// never skips an empty slot without CAS-claiming it — together these make
/// the segment-overflow decision race-free (see `Segment::slot_of`).
const PROBE_WINDOW: usize = 64;

/// Hard cap on chained segments. Capacities double per segment, so with
/// the smallest initial capacity this still covers > 2^40 entries.
const MAX_SEGMENTS: usize = 36;

/// The position of a successor edge in canonical order: its BFS `level`
/// in the high 32 bits over its `job` (the expanding state's index among
/// the level's expansion jobs) in the low 32. Numeric order is therefore
/// (level, job) order, and an earlier level's positions are smaller than
/// any later level's, so a later level never undercuts them. The edges of
/// one job need no bits of their own: one task claims them in event order,
/// so an equal position from the same job never leads.
///
/// Checked, never wrapped: a level or job index past 32 bits panics, and
/// the top level, whose last job would pack to [`UNCLAIMED`], is refused
/// too. No search the engine accepts gets there: every level and every job
/// of a level is a distinct admitted state with a 16-byte slot of its own,
/// so 2^32 of either is at least 64 GiB of explored table.
pub(crate) fn position(level: usize, job: usize) -> u64 {
    let level = u32::try_from(level)
        .ok()
        .filter(|&l| l < u32::MAX)
        .expect("BFS level fits a position");
    let job = u32::try_from(job).expect("job index fits a position");
    (u64::from(level) << 32) | u64::from(job)
}

/// One slot: the CAS-published key and its position word, adjacent so a
/// probe touches one cache line.
struct Slot {
    key: AtomicU64,
    pos: AtomicU64,
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
                    pos: AtomicU64::new(UNCLAIMED),
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

    /// The slot holding `key` in this segment, CAS-publishing it into the
    /// first empty slot of its window if absent (`fresh`), or `None` when
    /// the window is full of other keys. An empty slot is always
    /// CAS-claimed, never skipped, so two racers for the same key can never
    /// split across segments: if one racer observes the window full, every
    /// slot it saw is occupied forever — the other racer's key cannot be
    /// (or land) among them unnoticed.
    fn slot_of(&self, key: u64) -> Option<(&Slot, bool)> {
        let mut i = Self::probe_start(key, self.mask);
        for _ in 0..PROBE_WINDOW.min(self.slots.len()) {
            let slot = &self.slots[i];
            let cur = slot.key.load(Ordering::Acquire);
            if cur == key {
                return Some((slot, false));
            }
            if cur == EMPTY {
                match slot
                    .key
                    .compare_exchange(EMPTY, key, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return Some((slot, true)),
                    Err(found) if found == key => return Some((slot, false)),
                    Err(_) => {} // another key claimed it; keep probing
                }
            }
            i = (i + 1) & self.mask;
        }
        None
    }
}

/// The `explored` hash set, lock-free.
///
/// Open-addressing segments of atomic slots; publishing a key is a single
/// CAS on the common path. When a key's probe window in every published
/// segment is full, the claimer publishes a new segment of twice the
/// capacity (CAS on the segment pointer, so concurrent growers agree) and
/// inserts there. Entries are never removed and segments are freed only at
/// drop, so shared borrows never observe a freed segment — no epochs or
/// hazard pointers are needed.
///
/// Each entry's position word is lowered by `fetch_min` alone, so it is
/// the least position claimed for the hash in every interleaving; which
/// claim published the key decides nothing.
pub(crate) struct LockFreeExplored {
    segments: [AtomicPtr<Segment>; MAX_SEGMENTS],
    len: AtomicUsize,
}

impl LockFreeExplored {
    /// Creates a set whose first segment holds at least `cap` slots
    /// (rounded up to a power of two, min 16). Smaller first segments
    /// chain earlier — useful to exercise the growth path in tests.
    pub(crate) fn with_capacity(cap: usize) -> Self {
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

    /// Starts a batched claim handle — the table's one claim path — for a
    /// burst of claims from one task: the segment-chain walk is
    /// snapshotted once per batch (one acquire edge instead of one per
    /// claim) and the shared length counter takes one update per batch
    /// (when it drops) instead of one per new key.
    pub(crate) fn batch(&self) -> ExploredBatch<'_> {
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

    /// Total number of distinct hashes claimed. Batches publish their count
    /// at flush, so this is exact at phase boundaries.
    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Bytes of RAM the set currently holds: its allocated slot arrays.
    pub(crate) fn resident_bytes(&self) -> usize {
        (0..MAX_SEGMENTS)
            .map_while(|ix| self.segment(ix))
            .map(Segment::bytes)
            .sum()
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

/// A batched claim handle from [`LockFreeExplored::batch`]: one
/// segment-chain snapshot and one shared-length update per batch. Dropping
/// the batch flushes.
pub(crate) struct ExploredBatch<'a> {
    table: &'a LockFreeExplored,
    segs: Vec<&'a Segment>,
    admitted: usize,
}

/// One caller's claim of a hash at a position, from
/// [`ExploredBatch::claim`].
pub(crate) struct Claim<'a> {
    word: &'a AtomicU64,
    pos: u64,
    /// No position at or below this claim's was there before it: of the
    /// claims that share the least position of a hash, exactly the first
    /// leads.
    pub(crate) leads: bool,
}

impl Claim<'_> {
    /// Whether this claim's position is still the least claimed for its
    /// hash. Final once every claim that could undercut it has been made
    /// and that is ordered before this read.
    pub(crate) fn holds(&self) -> bool {
        self.word.load(Ordering::Relaxed) == self.pos
    }
}

impl<'a> ExploredBatch<'a> {
    /// Claims `h` at `pos`: publishes the key if absent (one CAS), lowers
    /// the entry's position word to `pos` if that is smaller
    /// (`fetch_min`), and says whether this caller leads — whether no
    /// position `<= pos` was there before its own. The word's
    /// modification order is total, so of any set of concurrent claims at
    /// a hash's least position, through any batches of the same table,
    /// exactly one leads.
    pub(crate) fn claim(&mut self, h: u64, pos: u64) -> Claim<'a> {
        debug_assert_ne!(pos, UNCLAIMED, "positions come from `position`");
        let key = LockFreeExplored::normalize(h);
        let mut ix = 0;
        let slot = loop {
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
            match seg.slot_of(key) {
                Some((slot, fresh)) => {
                    self.admitted += usize::from(fresh);
                    break slot;
                }
                None => ix += 1,
            }
        };
        let before = slot.pos.fetch_min(pos, Ordering::Relaxed);
        Claim {
            word: &slot.pos,
            pos,
            leads: before > pos,
        }
    }

    /// Publishes this batch's count of new keys to the shared length.
    fn flush(&mut self) {
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
    use std::collections::{HashMap, HashSet};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    /// Key-only inserts and lookups: every insert claims position 0, so it
    /// leads iff the key was absent.
    impl LockFreeExplored {
        fn new() -> Self {
            Self::with_capacity(1 << 12)
        }

        fn insert(&self, h: u64) -> bool {
            self.batch().claim(h, 0).leads
        }

        /// The first empty slot of a key's window proves it absent from
        /// this and every later segment: claims take the first empty slot
        /// of their window and chain only past a full one.
        fn contains(&self, h: u64) -> bool {
            let key = Self::normalize(h);
            for seg in (0..MAX_SEGMENTS).map_while(|ix| self.segment(ix)) {
                let mut i = Segment::probe_start(key, seg.mask);
                for _ in 0..PROBE_WINDOW.min(seg.slots.len()) {
                    match seg.slots[i].key.load(Ordering::Acquire) {
                        k if k == key => return true,
                        EMPTY => return false,
                        _ => i = (i + 1) & seg.mask,
                    }
                }
            }
            false
        }

        fn segment_count(&self) -> usize {
            (0..MAX_SEGMENTS)
                .take_while(|&ix| self.segment(ix).is_some())
                .count()
        }
    }

    #[test]
    fn lock_free_set_basic() {
        let s = LockFreeExplored::new();
        assert_eq!(s.len(), 0);
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
    fn positions_order_level_over_job_and_never_wrap() {
        assert!(position(0, 0) < position(0, 1));
        assert!(position(1, u32::MAX as usize) < position(2, 0));
        assert!(position(u32::MAX as usize - 1, u32::MAX as usize) < UNCLAIMED);
        for (level, job) in [
            (u32::MAX as usize, 0),
            (u32::MAX as usize + 1, 0),
            (1, u32::MAX as usize + 1),
        ] {
            let packed = std::panic::catch_unwind(|| position(level, job));
            assert!(packed.is_err(), "level {level}, job {job} is refused");
        }
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

    /// Under concurrent insertion of overlapping hash streams, every hash
    /// is published exactly once and exactly one inserter leads it.
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
    /// with batched claim handles (the production expand path).
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
                        if batch.claim(h, position(1, 0)).leads {
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
            assert!(!set.batch().claim(h, position(2, 0)).leads);
        }
    }

    /// The claim rule the parallel engine rests on. Racing pool workers
    /// claim pseudo-random `(hash, position)` multisets — duplicates of
    /// both included — through the growth path, one BFS level per scope.
    /// After each scope every key's word is the reference minimum of its
    /// claims, exactly one claimer per key is still leading at that
    /// minimum, and no claim of a later level lowered (or led on) a word an
    /// earlier level set.
    #[test]
    fn claims_keep_the_least_position_and_one_leader() {
        let pool = WorkerPool::new(4);
        let set = LockFreeExplored::with_capacity(32);
        let (workers, per_worker, universe) = (6usize, 3_000u64, 5_000u64);
        // splitmix64: a fixed stream per (level, worker).
        let mix = |mut x: u64| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        // Each key's least position and the level that set it.
        let mut least: HashMap<u64, u64> = HashMap::new();
        let mut earlier: Vec<Claim<'_>> = Vec::new();
        for level in 1..=3usize {
            let claims: Vec<Mutex<Vec<(u64, Claim<'_>)>>> =
                (0..workers).map(|_| Mutex::new(Vec::new())).collect();
            pool.scope(|s| {
                for (w, out) in claims.iter().enumerate() {
                    let set = &set;
                    s.spawn(move || {
                        let mut batch = set.batch();
                        let mut mine = Vec::new();
                        for k in 0..per_worker {
                            let r = mix((level * 1_000 + w) as u64 * per_worker + k);
                            let h = mix(r % universe);
                            let pos = position(level, (r >> 40) as usize % 64);
                            mine.push((h, batch.claim(h, pos)));
                        }
                        *out.lock().unwrap() = mine;
                    });
                }
            });
            let claims: Vec<(u64, Claim<'_>)> = claims
                .into_iter()
                .flat_map(|c| c.into_inner().unwrap())
                .collect();
            let mut this_level: HashMap<u64, u64> = HashMap::new();
            for (h, c) in &claims {
                let min = this_level.entry(*h).or_insert(c.pos);
                *min = (*min).min(c.pos);
            }
            let mut leaders: HashMap<u64, usize> = HashMap::new();
            for (h, c) in &claims {
                let reference = least.get(h).copied().unwrap_or(this_level[h]);
                assert_eq!(c.word.load(Ordering::Relaxed), reference, "least kept");
                assert_eq!(c.holds(), c.pos == reference);
                if least.contains_key(h) {
                    assert!(!c.leads, "level {level} led on an earlier level's key");
                } else if c.leads && c.holds() {
                    *leaders.entry(*h).or_default() += 1;
                }
            }
            for (h, min) in this_level {
                if let std::collections::hash_map::Entry::Vacant(e) = least.entry(h) {
                    e.insert(min);
                    assert_eq!(leaders.get(&h), Some(&1), "one leader at the minimum");
                }
            }
            assert!(
                earlier.iter().all(Claim::holds),
                "no later claim lowered an earlier level's word"
            );
            earlier.extend(
                claims
                    .into_iter()
                    .map(|(_, c)| c)
                    .filter(|c| c.leads && c.holds()),
            );
        }
        assert_eq!(set.len(), least.len(), "batched len flushes are exact");
        assert!(set.segment_count() > 1, "claims crossed segment chains");
    }
}
