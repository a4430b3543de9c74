//! The parallel level-synchronous search engine.
//!
//! CrystalBall's checker runs *concurrently with the deployed system*; its
//! usefulness is bounded by how many states per second it can explore
//! before the erroneous event arrives (§4, Fig. 12). This engine fans the
//! hot path of the search — state cloning, handler execution, hashing and
//! property checks — out over a worker pool while keeping the *content* of
//! the result (violation set, counterexample paths, visit counts)
//! bit-identical to the sequential engine, even though thread scheduling
//! is nondeterministic.
//!
//! # Design: level-synchronous BFS, range tasks, a streamed deterministic merge
//!
//! The engine processes the state graph one BFS level at a time. Each
//! level runs three phases:
//!
//! 1. **Check** (parallel): property-check every state of the level, one
//!    pool task per contiguous range of items, each writing its own
//!    chunk of one pre-sized result vector.
//! 2. **Visit** (sequential, cheap): walk the level in canonical order
//!    (the order the sequential engine would dequeue), applying stop
//!    criteria, recording violations, and — under consequence prediction —
//!    performing the `localExplored` claims of Fig. 8 in exactly the order
//!    the sequential loop would, which pins down *which* state gets to
//!    expand each fresh local state. Produces the list of expansion jobs.
//! 3. **Expand + merge** (overlapped): the job list is cut into
//!    contiguous ranges and every *range* becomes one pool task — for
//!    each of its jobs enumerate events, clone the state, run the
//!    handler, hash the successor, and race a single CAS per successor
//!    into the [`LockFreeExplored`] table (stamped with the successor
//!    level, through one [`ExploredBatch`] per range). The task deposits
//!    its successor edges, in canonical (job, event) order, into an
//!    order-preserving reorder buffer indexed by range. The coordinator
//!    takes ranges in canonical order *while later ranges are still
//!    expanding*, so the canonical dedup/merge never waits for — or
//!    buffers — the whole level; when its next in-order range is not
//!    ready it helps by executing one of the level's queued ranges
//!    instead of sleeping.
//!
//! # Ranges, not jobs
//!
//! One job is a few microseconds of work on states that share most of
//! their `Arc`'d node slots with their siblings and parent; a pool task
//! per job costs more than the job and scatters siblings over the cores.
//! A range pays the task, the deposit guard and the explored batch once
//! and keeps neighbours on one core. The cut is one fixed rule
//! (`range_len`); a level that fits one range — the short levels every
//! search starts with, all of a shallow search — is expanded and merged
//! on the caller with no scope, channel or worker wake-up. Ranges are
//! contiguous in job order and consumed in order, so where the cuts fall
//! cannot reach a result.
//!
//! # One merge stream
//!
//! The coordinator is the only merge consumer. It sees every successor
//! edge in canonical order, so it enqueues each admitted edge straight
//! into the arena and the next level as its range arrives: arena layout,
//! violations and shallowest paths come out bit-identical to the
//! sequential engine with nothing to buffer or recombine.
//!
//! The merge applies the sequential engine's enqueue-time dedup in
//! canonical order (job order × event order): the canonically-first edge
//! to each hash admitted this level becomes its parent. Whether a hash
//! was admitted this level is read off the table's level stamp, so the
//! decision needs no level-wide `admitted` set. The surviving clone must
//! be the canonical edge's, too: equal hashes mean equal node states and
//! equal in-flight *multisets*, but not equal in-flight `Vec` order, and
//! that order steers later event enumeration — so when the insert race
//! was won by a non-canonical edge, the merge re-derives the canonical
//! clone from its parent. Reconstructed paths — including the canonical
//! shallowest counterexample, tie-broken by (depth, path-lexicographic
//! order) — and every downstream level then match the sequential engine
//! exactly. Wall-clock-dependent outcomes (deadline stops) are the only
//! nondeterminism that survives.
//!
//! There is no single-threaded rendering of these phases: one worker (or
//! none) *is* [`Searcher::run`].
//!
//! Differences from the sequential engine, all stats-level: `elapsed` and
//! `peak_frontier_bytes` reflect this engine's level-at-a-time residency
//! (the per-level sum of state footprints) rather than a sliding window,
//! and `merge_busy`/`merge_wait` are populated (split so the
//! coordinator's reorder-buffer stalls are not double-counted as merge
//! cost — see [`SearchStats`]).
//!
//! [`ExploredBatch`]: crate::ExploredBatch

use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use cb_model::{
    apply_event, Event, GlobalState, NodeId, Protocol, TraceStep, TransitionMemo, Violation,
};

use crate::frontier::{Admission, LockFreeExplored};
use crate::pool::{PoolScope, WorkerPool};
use crate::report::{FoundViolation, SearchOutcome, StopReason};
use crate::search::{
    approx_state_bytes, enumerate_gated, reconstruct, ArenaRec, DigestSet, SearchConfig, Searcher,
};
use crate::stats::SearchStats;

/// Tuning for the parallel engine.
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Logical workers for the check and expand phases: sizes the range
    /// tasks a level is cut into (`range_len`), which a search on a shared
    /// pool streams to however many threads the pool provides.
    ///
    /// `<= 1` is the sequential engine: the search returns
    /// [`Searcher::run`]'s outcome, stats included, and touches no pool.
    pub workers: usize,
    /// Has no effect: phase 3 has one merge consumer, the coordinator.
    /// Nothing reads this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub merge_shards: usize,
    /// Has no effect: the explored table has one slot layout. Nothing
    /// reads this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub compact_explored: bool,
    /// Has no effect: the explored table never spills to disk. Nothing
    /// reads this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub explored_spill_bytes: Option<usize>,
}

impl Default for ParallelConfig {
    /// One worker per available core, at most 8.
    fn default() -> Self {
        ParallelConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .min(8),
            merge_shards: 0,
            compact_explored: false,
            explored_spill_bytes: None,
        }
    }
}

/// Range tasks a level is cut into per worker: a few, so the coordinator
/// — which also merges — sheds expansion to the pool range by range
/// instead of being dealt a fixed share up front.
const RANGES_PER_WORKER: usize = 4;
/// Fewest jobs worth a pool task. A level no longer than this runs
/// inline on the caller: waking a worker would cost more than the
/// expansion it takes over.
const MIN_RANGE_JOBS: usize = 64;
/// Most jobs per range: a range's edges are still cache-resident when
/// the merge takes them, and the merge never waits long for range 0.
const MAX_RANGE_JOBS: usize = 256;

/// Length of the contiguous ranges a level of `n` items is cut into at
/// `workers` workers: [`RANGES_PER_WORKER`] per worker within the
/// [`MIN_RANGE_JOBS`]..=[`MAX_RANGE_JOBS`] band, evened out so the last
/// range is no sliver. The level fits one range iff `n <= range_len`.
fn range_len(n: usize, workers: usize) -> usize {
    let target = (n / (workers * RANGES_PER_WORKER)).clamp(MIN_RANGE_JOBS, MAX_RANGE_JOBS);
    n.div_ceil(n.div_ceil(target).max(1)).max(1)
}

/// One level's states, each with the arena record of the edge that
/// reached it — all items of one level share a depth.
type Level<P> = Vec<(GlobalState<P>, Option<usize>)>;

/// One successor edge emitted by the expand phase; the merge passes the
/// edges it admits on as they are, with `state` filled in.
struct Edge<P: Protocol> {
    /// Canonical job index within the level.
    job: u32,
    /// The successor state — carried only by the edge whose worker won the
    /// explored-table insertion race for `hash`.
    ///
    /// Winning the race is *not* the same as being the canonical
    /// (first-in-BFS-order) edge: two states with equal hashes hold the
    /// same in-flight **multiset** but possibly in different `Vec`
    /// orders, and that order is visible to event enumeration. The merge
    /// therefore keeps the winner's clone only when the winner *is* the
    /// canonical edge, and re-derives the canonical clone otherwise.
    state: Option<GlobalState<P>>,
    /// Byte footprint of `state`, taken by whoever built it while it was
    /// cache-hot.
    bytes: usize,
    hash: u64,
    /// When the insert race was lost: the level stamp the winner carried.
    /// Equal to the current successor stamp iff the hash was admitted
    /// *this* level (by a later-canonical edge); smaller means a true
    /// duplicate of an earlier level.
    prior_level: u64,
    event: Event<P>,
    step: TraceStep,
}

/// What one range task counted while expanding.
#[derive(Default)]
struct ExpandTally {
    filtered: usize,
    memo_hits: usize,
    memo_misses: usize,
}

impl ExpandTally {
    fn absorb(&mut self, range: ExpandTally) {
        self.filtered += range.filtered;
        self.memo_hits += range.memo_hits;
        self.memo_misses += range.memo_misses;
    }

    fn add_to(&self, stats: &mut SearchStats) {
        stats.filtered_events += self.filtered;
        stats.memo_hits += self.memo_hits;
        stats.memo_misses += self.memo_misses;
    }
}

/// What the merge counted while draining its channel.
#[derive(Default)]
struct MergeTally {
    duplicates: usize,
    busy: Duration,
    wait: Duration,
}

/// The level under construction: admitted successors in canonical
/// enqueue order, with their byte footprints (each taken where the state
/// was built) summed.
struct NextLevel<P: Protocol> {
    states: Level<P>,
    bytes: usize,
}

impl<P: Protocol> NextLevel<P> {
    /// Enqueues a successor reached from `parent` — the arena record and
    /// the next-level slot every engine path writes for an admitted edge.
    fn push(
        &mut self,
        arena: &mut Vec<ArenaRec<P>>,
        parent: Option<usize>,
        state: GlobalState<P>,
        bytes: usize,
        event: Event<P>,
        step: TraceStep,
    ) {
        arena.push(ArenaRec {
            parent,
            event,
            step,
        });
        self.bytes += bytes;
        self.states.push((state, Some(arena.len() - 1)));
    }
}

/// An expansion job: level-item index plus, under consequence prediction,
/// the nodes whose local-action block this item claimed (Fig. 8's
/// `localExplored` gate, resolved during the sequential visit phase).
struct ExpandJob {
    item: usize,
    allowed: Option<Vec<NodeId>>,
}

/// The search deadline as every phase and task shares it: whichever
/// thread first sees the clock pass it raises the flag, and everyone else
/// stops at their next look.
struct Deadline {
    search_t0: Instant,
    limit: Option<Duration>,
    hit: AtomicBool,
}

impl Deadline {
    /// True once the deadline has passed (checking the clock only until
    /// some thread has seen it pass).
    fn passed(&self) -> bool {
        if self.hit() {
            return true;
        }
        let over = self.limit.is_some_and(|d| self.search_t0.elapsed() >= d);
        if over {
            self.hit.store(true, Ordering::Relaxed);
        }
        over
    }

    /// Whether some thread has already seen the deadline pass.
    fn hit(&self) -> bool {
        self.hit.load(Ordering::Relaxed)
    }
}

/// The order-preserving channel between range tasks and the merge: a
/// reorder buffer indexed by range, consumed as a contiguous prefix. Peak
/// residency is the out-of-order window (how far completed ranges run
/// ahead of the canonical cursor), not the whole level.
struct MergeChannel<T> {
    inner: Mutex<MergeBuf<T>>,
    ready: Condvar,
}

struct MergeBuf<T> {
    slots: Vec<Option<T>>,
    /// Next canonical range index the consumer needs.
    next: usize,
}

impl<T> MergeChannel<T> {
    fn new(ranges: usize) -> Self {
        MergeChannel {
            inner: Mutex::new(MergeBuf {
                slots: (0..ranges).map(|_| None).collect(),
                next: 0,
            }),
            ready: Condvar::new(),
        }
    }

    /// Deposits range `r`'s batch; wakes the consumer iff `r` is the
    /// batch it is waiting on.
    fn deposit(&self, r: usize, out: T) {
        let mut b = self.inner.lock().expect("merge buffer poisoned");
        let wake = r == b.next;
        b.slots[r] = Some(out);
        drop(b);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Takes the next in-canonical-order batch if it is already there.
    fn try_next(&self) -> Option<T> {
        let mut b = self.inner.lock().expect("merge buffer poisoned");
        b.take_next()
    }

    /// Blocks until the next in-order batch arrives (deposits of that
    /// index notify) or `stop` is raised by a deadline-hitting task.
    fn wait_next(&self, stop: &AtomicBool) -> Option<T> {
        let mut b = self.inner.lock().expect("merge buffer poisoned");
        loop {
            if let Some(out) = b.take_next() {
                return Some(out);
            }
            if b.next >= b.slots.len() || stop.load(Ordering::Relaxed) {
                return None;
            }
            b = self.ready.wait(b).expect("merge buffer poisoned");
        }
    }
}

impl<T> MergeBuf<T> {
    fn take_next(&mut self) -> Option<T> {
        let out = self.slots.get_mut(self.next)?.take()?;
        self.next += 1;
        Some(out)
    }
}

/// Ensures the channel sees a deposit for range `r` even if the range
/// task unwinds: without one the merge would wait forever on a range
/// whose panic the pool has already captured for re-raising at scope
/// exit.
struct DepositGuard<'a, T: Default> {
    chan: &'a MergeChannel<T>,
    r: usize,
    armed: bool,
}

impl<T: Default> Drop for DepositGuard<'_, T> {
    fn drop(&mut self) {
        if self.armed {
            self.chan.deposit(self.r, T::default());
        }
    }
}

/// What the range tasks and the merge of one level's phase 3 all read.
struct Phase3<'a, P: Protocol> {
    level: &'a [(GlobalState<P>, Option<usize>)],
    jobs: &'a [ExpandJob],
    explored: &'a LockFreeExplored,
    /// The successor level every insert of this phase is stamped with
    /// (what `prior_level` readbacks are compared to).
    stamp: u64,
    deadline: &'a Deadline,
}

impl<P: Protocol> Searcher<'_, P> {
    /// Runs the level-synchronous parallel search. Same violation set and
    /// canonical counterexample paths as [`Searcher::run`] for any worker
    /// count; scheduling only affects wall-clock numbers.
    ///
    /// Spawns a private [`WorkerPool`] for the duration of the search
    /// (one spawn per search, not per level). Callers that run many
    /// searches — or want several concurrent searches to share workers —
    /// should hold a pool and use [`Searcher::run_parallel_pooled`].
    pub fn run_parallel(&self, start: &GlobalState<P>, par: &ParallelConfig) -> SearchOutcome<P> {
        // The scope owner participates, so `workers` logical workers need
        // `workers - 1` pool threads; at 1 worker the pool is threadless
        // and unused (the search is `Searcher::run`).
        let pool = WorkerPool::new(par.workers.saturating_sub(1));
        self.run_parallel_pooled(start, par, &pool)
    }

    /// [`Searcher::run_parallel`] on a caller-provided shared pool: the
    /// check/expand phases draw workers from `pool` (the calling thread
    /// participates too), so concurrent independent searches — prediction,
    /// known-path replays, safety re-checks, sibling checker shards —
    /// multiplex over one set of threads instead of spawning their own.
    ///
    /// At most one worker is [`Searcher::run`] itself (see
    /// [`ParallelConfig::workers`]).
    pub fn run_parallel_pooled(
        &self,
        start: &GlobalState<P>,
        par: &ParallelConfig,
        pool: &WorkerPool,
    ) -> SearchOutcome<P> {
        if par.workers <= 1 {
            return self.run(start);
        }
        let workers = par.workers;
        let t0 = Instant::now();
        let deadline = Deadline {
            search_t0: t0,
            limit: self.config.deadline,
            hit: AtomicBool::new(false),
        };
        let mut stats = SearchStats::default();
        let mut violations: Vec<FoundViolation<P>> = Vec::new();
        let mut arena: Vec<ArenaRec<P>> = Vec::new();
        // Pre-size the table from the state budget: successor inserts run
        // a few times the visit budget (duplicates included), and linear
        // probing wants headroom. The first segment is capped at 2^20
        // slots because it is allocated and zeroed up front even if a
        // deadline stops the search early — beyond that, segment chaining
        // (which doubles from the initial size) grows the table to
        // whatever the search actually reaches.
        let cap_slots = self
            .config
            .max_states
            .map_or(1 << 16, |m| m.saturating_mul(4).clamp(1 << 12, 1 << 20));
        let explored = LockFreeExplored::with_capacity(cap_slots);
        let mut local_explored = DigestSet::default();
        let mut depth_truncated = false;
        let mut stopped: Option<StopReason> = None;

        explored.batch().insert_leveled(start.state_hash(), 0);
        let mut level: Level<P> = vec![(start.clone(), None)];
        // Byte footprint of `level`, accumulated when the level was built
        // (while each state was cache-hot) instead of re-scanned here.
        let mut level_bytes = approx_state_bytes(start);
        stats.states_enqueued = 1;
        let mut depth = 0usize;

        'levels: while !level.is_empty() {
            if deadline.passed() {
                break 'levels;
            }
            stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(level_bytes);

            // Only the prefix the visit loop can still afford to dequeue
            // is checked/expanded — the final BFS level is typically the
            // largest, and work beyond the budget would be discarded.
            let budget_left = self
                .config
                .max_states
                .map_or(level.len(), |max| max.saturating_sub(stats.states_visited))
                .min(level.len());
            let stamp = depth as u64 + 1;
            let mut next = NextLevel {
                // Levels rarely shrink: the previous level's size is a
                // cheap floor that skips most of the growth reallocations.
                states: Vec::with_capacity(level.len()),
                bytes: 0,
            };

            // Phase 1: parallel property check over the budget prefix.
            let checks = self.check_level(&level[..budget_left], workers, &deadline, pool);
            if deadline.hit() {
                break 'levels;
            }

            // Phase 2: sequential visit, in canonical (sequential-dequeue)
            // order — exactly what the sequential loop does between
            // dequeue and expansion: record the visit, report a violation,
            // apply the stop criteria, and make the `localExplored` claims
            // of Fig. 8. The claims are resolved here, not by the
            // expansion (which runs later, on other threads), so they land
            // in canonical item order regardless of scheduling.
            let mut jobs: Vec<ExpandJob> = Vec::with_capacity(budget_left);
            let mut checks = checks.into_iter();
            for (i, (state, rec)) in level.iter().enumerate() {
                if i >= budget_left {
                    stopped = Some(StopReason::StateLimit);
                    break;
                }
                stats.record_visit(depth);
                if let Some(violation) = checks.next().expect("budget prefix was checked") {
                    stats.violations_found += 1;
                    violations.push(FoundViolation {
                        violation,
                        path: reconstruct(&arena, *rec),
                        depth,
                    });
                    if violations.len() >= self.config.max_violations {
                        stopped = Some(StopReason::ViolationLimit);
                        break;
                    }
                    continue; // violating states are not expanded
                }
                if self.config.max_depth.is_some_and(|d| depth >= d) {
                    depth_truncated = true;
                    continue;
                }
                let allowed = self.config.prune_local.then(|| {
                    let mut fresh = Vec::new();
                    for &node in state.nodes.keys() {
                        let lh = state.local_hash(node).expect("node exists");
                        if local_explored.insert(lh) {
                            fresh.push(node);
                        } else {
                            stats.local_prunes += 1;
                        }
                    }
                    fresh
                });
                jobs.push(ExpandJob { item: i, allowed });
            }

            // Phase 3: expansion with the merge streamed behind it. The
            // stamp marks every successor admitted during this level, so
            // the canonical merge can tell "admitted this level by a
            // non-canonical edge" from "duplicate of an earlier level"
            // batch by batch.
            self.expand_and_merge_level(
                &level, &jobs, &explored, stamp, workers, &deadline, pool, &mut arena, &mut next,
                &mut stats,
            );
            if deadline.hit() {
                break 'levels; // the partial level is discarded
            }
            stats.states_enqueued += next.states.len();
            if stopped.is_some() {
                break 'levels;
            }
            level = next.states;
            level_bytes = next.bytes;
            depth += 1;
        }

        let stopped = match stopped {
            // Whatever else was decided, a raised deadline cut work short.
            _ if deadline.hit() => StopReason::Deadline,
            Some(r) => r,
            None if depth_truncated => StopReason::DepthLimit,
            None => StopReason::Exhausted,
        };
        stats.elapsed = t0.elapsed();
        stats.merge_shard_busy = vec![stats.merge_busy];
        stats.explored_resident_bytes = explored.resident_bytes();
        stats.tree_bytes = arena.len() * size_of::<ArenaRec<P>>()
            + explored.len() * 2 * size_of::<u64>()
            + local_explored.len() * 2 * size_of::<u64>();
        stats.publish();
        SearchOutcome {
            violations,
            stats,
            stopped,
        }
    }

    /// Phase 1: property-checks every level item, one pool task per
    /// contiguous range ([`range_len`]), each writing its own chunk of the
    /// result; a level that fits one range is checked on the caller. The
    /// checks are incomplete (and to be discarded) when the deadline fired
    /// mid-phase.
    fn check_level(
        &self,
        level: &[(GlobalState<P>, Option<usize>)],
        workers: usize,
        deadline: &Deadline,
        pool: &WorkerPool,
    ) -> Vec<Option<Violation>> {
        let mut checks: Vec<Option<Violation>> = Vec::new();
        checks.resize_with(level.len(), || None);
        let check_range = |items: &[(GlobalState<P>, Option<usize>)],
                           out: &mut [Option<Violation>]| {
            for ((state, _), slot) in items.iter().zip(out) {
                if deadline.passed() {
                    return;
                }
                *slot = self.props.check(state);
            }
        };
        let len = range_len(level.len(), workers);
        if level.len() <= len {
            check_range(level, &mut checks);
        } else {
            pool.scope(|scope| {
                for (items, out) in level.chunks(len).zip(checks.chunks_mut(len)) {
                    let check_range = &check_range;
                    scope.spawn(move || check_range(items, out));
                }
            });
        }
        checks
    }

    /// Executes the contiguous `range` of the level's expansion jobs:
    /// enumerate, clone, apply, hash, and race each successor into the
    /// explored table — one CAS per successor through one
    /// [`ExploredBatch`] for the whole range, so the segment snapshot and
    /// the shared-length update cost one synchronization edge per range.
    /// Returns the range's successor edges in canonical (job, event)
    /// order plus what the range counted; cut short (to be discarded)
    /// once the deadline has passed.
    ///
    /// [`ExploredBatch`]: crate::ExploredBatch
    fn expand_range(&self, cx: &Phase3<'_, P>, range: Range<usize>) -> (Vec<Edge<P>>, ExpandTally) {
        let mut edges = Vec::new();
        let mut filtered = 0usize;
        let mut batch = cx.explored.batch();
        // One memo per range task: what it holds depends on the range's
        // jobs alone, never on which thread ran it or when.
        let mut memo = TransitionMemo::new(self.protocol);
        for j in range {
            if cx.deadline.passed() {
                break;
            }
            let job = &cx.jobs[j];
            let state = &cx.level[job.item].0;
            let events = enumerate_gated(
                self.protocol,
                &self.config,
                state,
                |n| job.allowed.as_ref().is_none_or(|nodes| nodes.contains(&n)),
                &mut filtered,
            );
            let mut from = memo.expand(state);
            for event in events {
                let (next, step) = from.successor(&event);
                let hash = next.state_hash();
                let (state, bytes, prior_level) = match batch.insert_leveled(hash, cx.stamp) {
                    Admission::Fresh => {
                        let bytes = approx_state_bytes(&next);
                        (Some(next), bytes, 0)
                    }
                    Admission::Seen { level } => (None, 0, level),
                };
                edges.push(Edge {
                    job: j as u32,
                    state,
                    bytes,
                    hash,
                    prior_level,
                    event,
                    step,
                });
            }
        }
        let tally = ExpandTally {
            filtered,
            memo_hits: memo.hits(),
            memo_misses: memo.misses(),
        };
        (edges, tally)
    }

    /// Applies the canonical enqueue-time dedup to one range's edges, in
    /// canonical order, emitting every admitted edge — its state filled
    /// in — into `sink` and returning the duplicates it discarded.
    /// Exactly the bookkeeping the sequential loop performs at its
    /// `explored.insert`: the canonically-first edge to a hash admitted
    /// this level becomes its parent; everything else is a duplicate.
    fn admit(
        &self,
        cx: &Phase3<'_, P>,
        edges: Vec<Edge<P>>,
        seen: &mut DigestSet,
        mut sink: impl FnMut(Edge<P>),
    ) -> usize {
        let mut duplicates = 0usize;
        for mut edge in edges {
            // `seen`: a canonically-earlier edge this level already
            // decided this hash (admitted it or proved it a duplicate).
            // Otherwise the level stamp tells this level's admissions
            // from duplicates of an earlier level.
            if !seen.insert(edge.hash) || !(edge.state.is_some() || edge.prior_level == cx.stamp) {
                duplicates += 1;
                continue;
            }
            // This edge is canonically first to a hash first reached this
            // level: it is the parent the sequential engine would record.
            // Keep its own clone only if it also won the insert race —
            // equal hashes guarantee equal node states and equal in-flight
            // *multisets*, but not equal in-flight `Vec` order, and that
            // order steers downstream event enumeration.
            if edge.state.is_none() {
                let mut s = cx.level[cx.jobs[edge.job as usize].item].0.clone();
                apply_event(self.protocol, &mut s, &edge.event);
                edge.bytes = approx_state_bytes(&s);
                edge.state = Some(s);
            }
            sink(edge);
        }
        duplicates
    }

    /// The coordinator's merge: takes the channel in canonical range
    /// order and admits every edge into `sink`. A missing batch makes it
    /// run one of the level's queued range tasks through `scope` instead
    /// of sleeping, so starvation never blocks progress and the phase
    /// completes even on a zero-thread pool.
    fn merge(
        &self,
        cx: &Phase3<'_, P>,
        chan: &MergeChannel<Vec<Edge<P>>>,
        scope: &PoolScope<'_, '_>,
        mut sink: impl FnMut(Edge<P>),
    ) -> MergeTally {
        let _span = cb_obs::span("mc.merge", "mc");
        let mut tally = MergeTally::default();
        // Hashes the merge already decided this level.
        let mut seen = DigestSet::default();
        // Partial results are discarded on deadline stops.
        while !cx.deadline.passed() {
            let got = loop {
                if let Some(edges) = chan.try_next() {
                    break Some(edges);
                }
                // Run a queued range instead of sleeping — expansion
                // work, attributed to neither timer.
                if !scope.help_one() {
                    // The needed range is running on another thread (wait
                    // for its deposit, which notifies), or every range
                    // has been merged.
                    let tw = Instant::now();
                    let got = chan.wait_next(&cx.deadline.hit);
                    tally.wait += tw.elapsed();
                    break got;
                }
            };
            let Some(edges) = got else {
                break; // level drained, or deadline raised by a range task
            };
            let tb = Instant::now();
            tally.duplicates += self.admit(cx, edges, &mut seen, &mut sink);
            tally.busy += tb.elapsed();
        }
        tally
    }

    /// Phase 3: expands the level's jobs range by range and merges the
    /// resulting edges in canonical order, overlapped: every range is a
    /// pool task depositing into one [`MergeChannel`], and the
    /// coordinator merges the channel, enqueueing each admitted edge as
    /// it goes. A level that fits one range is expanded and merged on the
    /// caller. When the deadline fires mid-phase the merge is left
    /// partial, for the caller to discard.
    #[allow(clippy::too_many_arguments)]
    fn expand_and_merge_level(
        &self,
        level: &[(GlobalState<P>, Option<usize>)],
        jobs: &[ExpandJob],
        explored: &LockFreeExplored,
        stamp: u64,
        workers: usize,
        deadline: &Deadline,
        pool: &WorkerPool,
        arena: &mut Vec<ArenaRec<P>>,
        next: &mut NextLevel<P>,
        stats: &mut SearchStats,
    ) {
        let _span = cb_obs::span("mc.expand", "mc");
        let len = range_len(jobs.len(), workers);
        let ranges = jobs.len().div_ceil(len);
        stats.expand_ranges += ranges;
        let cx = &Phase3 {
            level,
            jobs,
            explored,
            stamp,
            deadline,
        };
        // Where every admitted edge ends up, in canonical order.
        let enqueue = |e: Edge<P>| {
            let state = e.state.expect("admitted edges carry their state");
            next.push(
                arena,
                level[jobs[e.job as usize].item].1,
                state,
                e.bytes,
                e.event,
                e.step,
            )
        };

        if ranges <= 1 {
            // Nothing to overlap: expand and merge on the caller, no
            // scope, channel or worker wake-up. Canonical order *is* the
            // execution order.
            let (edges, tally) = self.expand_range(cx, 0..jobs.len());
            tally.add_to(stats);
            stats.duplicates_hit += self.admit(cx, edges, &mut DigestSet::default(), enqueue);
            return;
        }

        let chan: MergeChannel<Vec<Edge<P>>> = MergeChannel::new(ranges);
        let expanded = Mutex::new(ExpandTally::default());
        let merged = pool.scope(|scope: &PoolScope<'_, '_>| {
            for r in 0..ranges {
                let (chan, expanded) = (&chan, &expanded);
                scope.spawn(move || {
                    // Disarmed once the range has edges of its own to
                    // deposit.
                    let mut guard = DepositGuard {
                        chan,
                        r,
                        armed: true,
                    };
                    let (edges, tally) =
                        self.expand_range(cx, r * len..jobs.len().min((r + 1) * len));
                    expanded
                        .lock()
                        .expect("expand tally poisoned")
                        .absorb(tally);
                    guard.armed = false;
                    chan.deposit(r, edges);
                });
            }
            self.merge(cx, &chan, scope, enqueue)
            // Scope exit runs any still-queued tasks (after a deadline
            // they deposit what little they expanded) and waits for
            // in-flight ones.
        });
        if deadline.hit() {
            return;
        }
        expanded
            .into_inner()
            .expect("expand tally poisoned")
            .add_to(stats);
        stats.duplicates_hit += merged.duplicates;
        stats.merge_busy += merged.busy;
        stats.merge_wait += merged.wait;
    }
}

/// Runs the exhaustive search of Fig. 5 on the parallel engine.
pub fn find_errors_parallel<P: Protocol>(
    protocol: &P,
    props: &cb_model::PropertySet<P>,
    start: &GlobalState<P>,
    config: SearchConfig,
    par: &ParallelConfig,
) -> SearchOutcome<P> {
    Searcher::new(
        protocol,
        props,
        SearchConfig {
            prune_local: false,
            ..config
        },
    )
    .run_parallel(start, par)
}

/// Runs consequence prediction (Fig. 8) on the parallel engine.
pub fn find_consequences_parallel<P: Protocol>(
    protocol: &P,
    props: &cb_model::PropertySet<P>,
    start: &GlobalState<P>,
    config: SearchConfig,
    par: &ParallelConfig,
) -> SearchOutcome<P> {
    Searcher::new(
        protocol,
        props,
        SearchConfig {
            prune_local: true,
            ..config
        },
    )
    .run_parallel(start, par)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{find_consequences, find_errors};
    use crate::SearchConfig;
    use cb_model::testproto::{max_pings_property, Ping, PingAction, PingMsg, PingState};
    use cb_model::{ExploreOptions, NodeId, Outbox, PropertySet};

    fn sys(n: u32) -> (Ping, GlobalState<Ping>) {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let gs = GlobalState::init(&cfg, (0..n).map(NodeId));
        (cfg, gs)
    }

    fn props(limit: u32) -> PropertySet<Ping> {
        PropertySet::new().with(max_pings_property(limit))
    }

    fn cfg() -> SearchConfig {
        SearchConfig {
            explore: ExploreOptions::minimal(),
            ..SearchConfig::default()
        }
    }

    fn outcome_fingerprint<P: Protocol>(
        out: &SearchOutcome<P>,
    ) -> (Vec<String>, usize, usize, usize) {
        (
            out.violations.iter().map(|v| v.scenario()).collect(),
            out.stats.states_visited,
            out.stats.states_enqueued,
            out.stats.duplicates_hit,
        )
    }

    /// A 5-node exhaustive search to depth 7: its levels grow to ~500
    /// jobs, so every worker count above one cuts them into several
    /// ranges (the 4-node systems above never leave the inline path).
    fn wide() -> (Ping, GlobalState<Ping>, PropertySet<Ping>, SearchConfig) {
        let (p, gs) = sys(5);
        let base = SearchConfig {
            max_depth: Some(7),
            ..cfg()
        };
        (p, gs, props(u32::MAX), base)
    }

    #[test]
    fn parallel_bfs_matches_sequential_exactly() {
        let (p, gs) = sys(3);
        let pr = props(2);
        let seq = find_errors(&p, &pr, &gs, cfg());
        for workers in [1, 2, 4, 7] {
            let par = find_errors_parallel(
                &p,
                &pr,
                &gs,
                cfg(),
                &ParallelConfig {
                    workers,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(
                outcome_fingerprint(&seq),
                outcome_fingerprint(&par),
                "workers={workers}"
            );
            assert_eq!(seq.stopped, par.stopped);
        }
    }

    #[test]
    fn parallel_cp_matches_sequential_exactly() {
        let (p, gs) = sys(4);
        let pr = props(3);
        let base = SearchConfig {
            max_depth: Some(6),
            ..cfg()
        };
        let seq = find_consequences(&p, &pr, &gs, base.clone());
        for workers in [1, 4] {
            let par = find_consequences_parallel(
                &p,
                &pr,
                &gs,
                base.clone(),
                &ParallelConfig {
                    workers,
                    ..ParallelConfig::default()
                },
            );
            assert_eq!(
                outcome_fingerprint(&seq),
                outcome_fingerprint(&par),
                "workers={workers}"
            );
            assert_eq!(seq.stats.local_prunes, par.stats.local_prunes);
        }
    }

    #[test]
    fn parallel_exhaustion_matches_without_violations() {
        let (p, gs, pr, base) = wide();
        let base = SearchConfig {
            max_states: Some(1_000_000),
            ..base
        };
        let seq = find_errors(&p, &pr, &gs, base.clone());
        let par = find_errors_parallel(
            &p,
            &pr,
            &gs,
            base,
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(outcome_fingerprint(&seq), outcome_fingerprint(&par));
        assert_eq!(seq.stopped, par.stopped);
        assert_eq!(seq.stats.per_depth, par.stats.per_depth);
    }

    #[test]
    fn parallel_state_budget_matches_sequential() {
        let (p, gs) = sys(4);
        let pr = props(u32::MAX);
        let base = SearchConfig {
            max_states: Some(100),
            ..cfg()
        };
        let seq = find_errors(&p, &pr, &gs, base.clone());
        let par = find_errors_parallel(
            &p,
            &pr,
            &gs,
            base,
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(seq.stopped, StopReason::StateLimit);
        assert_eq!(outcome_fingerprint(&seq), outcome_fingerprint(&par));
    }

    #[test]
    fn parallel_multi_violation_budget_matches() {
        let (p, gs) = sys(3);
        let pr = props(2);
        let base = SearchConfig {
            max_violations: 5,
            max_depth: Some(6),
            ..cfg()
        };
        let seq = find_errors(&p, &pr, &gs, base.clone());
        let par = find_errors_parallel(
            &p,
            &pr,
            &gs,
            base,
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert!(seq.violations.len() > 1, "multiple violations in budget");
        assert_eq!(outcome_fingerprint(&seq), outcome_fingerprint(&par));
    }

    #[test]
    fn parallel_deadline_stops() {
        let (p, gs) = sys(6);
        let pr = props(u32::MAX);
        let out = find_errors_parallel(
            &p,
            &pr,
            &gs,
            SearchConfig {
                deadline: Some(std::time::Duration::from_millis(0)),
                max_states: None,
                ..cfg()
            },
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(out.stopped, StopReason::Deadline);
    }

    #[test]
    fn merge_timers_populated_only_in_streamed_mode() {
        let (p, gs, pr, base) = wide();
        let seq = find_errors(&p, &pr, &gs, base.clone());
        assert_eq!(seq.stats.merge_busy, std::time::Duration::ZERO);
        assert_eq!(seq.stats.merge_wait, std::time::Duration::ZERO);
        let streamed = find_errors_parallel(
            &p,
            &pr,
            &gs,
            base,
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert!(
            streamed.stats.merge_busy > std::time::Duration::ZERO,
            "streamed coordinator recorded merge work"
        );
        assert!(
            streamed.stats.expand_ranges > streamed.stats.per_depth.len(),
            "some level was cut into several ranges"
        );
    }

    /// The phased engine with no pool thread at all: the coordinator
    /// runs every range task itself through `help_one` while it merges,
    /// and the result is still the sequential engine's.
    #[test]
    fn zero_thread_pool_matches_sequential() {
        let (p, gs, pr, base) = wide();
        let base = SearchConfig {
            prune_local: false,
            ..base
        };
        let seq = Searcher::new(&p, &pr, base.clone()).run(&gs);
        for workers in [2, 4] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let (p, gs, pr, base) = (p.clone(), gs.clone(), pr.clone(), base.clone());
            let search = std::thread::spawn(move || {
                let par = Searcher::new(&p, &pr, base).run_parallel_pooled(
                    &gs,
                    &ParallelConfig {
                        workers,
                        ..ParallelConfig::default()
                    },
                    &WorkerPool::new(0),
                );
                let _ = done_tx.send(par);
            });
            let par = done_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| {
                    panic!("engine hung on a zero-thread pool (workers={workers})")
                });
            search.join().expect("search thread exits");
            assert_eq!(
                outcome_fingerprint(&seq),
                outcome_fingerprint(&par),
                "workers={workers}"
            );
            assert_eq!(
                seq.stats.per_depth, par.stats.per_depth,
                "workers={workers}"
            );
            assert_eq!(seq.stopped, par.stopped, "workers={workers}");
            assert!(
                par.stats.expand_ranges > par.stats.per_depth.len(),
                "some level was cut into several ranges (workers={workers})"
            );
        }
    }

    /// [`Ping`], except that receiving a `Pong` panics once the node has
    /// already seen `spare` of them — a handler bug no path shorter than
    /// `spare + 1` rounds of kick, ping delivery, pong delivery reaches, so
    /// it first fires while a depth-2 (`spare` 0) or depth-5 (`spare` 1)
    /// level is expanding.
    #[derive(Clone, Debug)]
    struct PongPanics {
        ping: Ping,
        spare: u32,
    }

    impl Protocol for PongPanics {
        type State = PingState;
        type Message = PingMsg;
        type Action = PingAction;
        fn name(&self) -> &'static str {
            "pong-panics"
        }
        fn init(&self, node: NodeId) -> PingState {
            self.ping.init(node)
        }
        fn on_message(
            &self,
            node: NodeId,
            state: &mut PingState,
            from: NodeId,
            msg: &PingMsg,
            out: &mut Outbox<PingMsg>,
        ) {
            assert!(
                *msg != PingMsg::Pong || state.pongs_seen < self.spare,
                "handler bug behind a pong"
            );
            self.ping.on_message(node, state, from, msg, out)
        }
        fn on_error(
            &self,
            node: NodeId,
            state: &mut PingState,
            peer: NodeId,
            out: &mut Outbox<PingMsg>,
        ) {
            self.ping.on_error(node, state, peer, out)
        }
        fn enabled_actions(&self, node: NodeId, state: &PingState, acts: &mut Vec<PingAction>) {
            self.ping.enabled_actions(node, state, acts)
        }
        fn on_action(
            &self,
            node: NodeId,
            state: &mut PingState,
            action: &PingAction,
            out: &mut Outbox<PingMsg>,
        ) {
            self.ping.on_action(node, state, action, out)
        }
        fn message_kind(msg: &PingMsg) -> &'static str {
            Ping::message_kind(msg)
        }
        fn action_kind(action: &PingAction) -> &'static str {
            Ping::action_kind(action)
        }
    }

    /// A panicking range task must not strand the merge on the batch it
    /// never deposited: the deposit guard fills the gap, the level drains, and the pool re-raises the
    /// panic out of `run_parallel`. Four nodes hit the bug in a 9-job
    /// level (inline, no task at all); six nodes with one pong to spare
    /// hit it in a 476-job level cut into 8 ranges.
    #[test]
    fn handler_panic_in_expand_task_leaves_the_engine() {
        for (nodes, spare) in [(4, 0), (6, 1)] {
            let (ping, gs) = sys(nodes);
            let proto = PongPanics { ping, spare };
            let gs = GlobalState::init(&proto, gs.nodes.keys().copied());
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            let search = std::thread::spawn(move || {
                let panicked = std::panic::catch_unwind(|| {
                    find_errors_parallel(
                        &proto,
                        &PropertySet::new(),
                        &gs,
                        cfg(),
                        &ParallelConfig {
                            workers: 4,
                            ..ParallelConfig::default()
                        },
                    )
                })
                .is_err();
                let _ = done_tx.send(panicked);
            });
            let panicked = done_rx
                .recv_timeout(Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("engine hung on a panicked task ({nodes} nodes)"));
            assert!(panicked, "the handler panic propagates ({nodes} nodes)");
            search.join().expect("search thread exits");
        }
    }

    #[test]
    fn range_len_cuts_even_contiguous_ranges() {
        for workers in [2, 3, 4, 8] {
            for n in [0, 1, 63, 64, 65, 127, 128, 129, 1000, 4096, 4097, 100_000] {
                let len = range_len(n, workers);
                let ranges = n.div_ceil(len);
                assert!((1..=MAX_RANGE_JOBS).contains(&len), "n={n} w={workers}");
                assert_eq!(ranges <= 1, n <= MIN_RANGE_JOBS, "n={n} w={workers}");
                if ranges > 1 {
                    let last = n - (ranges - 1) * len;
                    assert!(
                        2 * len >= MIN_RANGE_JOBS,
                        "n={n} w={workers}: ranges too short"
                    );
                    assert!(
                        len - last < ranges,
                        "n={n} w={workers}: last range is a sliver"
                    );
                }
            }
        }
    }

    /// Range boundaries through awkward places: the state budget cuts the
    /// 6-node search's last expanded level to exactly one job under, at
    /// and over the inline limit and the two-range limit, and to the whole
    /// 1135-job level — whose commuting ping/pong deliveries reach one
    /// hash from parents in different ranges, so under real threads the
    /// insert-race winner and the canonical edge of a same-level
    /// duplicate sit in different ranges.
    #[test]
    fn range_boundaries_match_sequential() {
        let (p, gs) = sys(6);
        let pr = props(u32::MAX);
        let below: usize = [1, 5, 20, 65, 185, 476].iter().sum();
        let g = MIN_RANGE_JOBS;
        for last_level in [g - 1, g, g + 1, 2 * g - 1, 2 * g, 2 * g + 1, 1135] {
            let base = SearchConfig {
                max_depth: Some(7),
                max_states: Some(below + last_level),
                ..cfg()
            };
            let seq = find_errors(&p, &pr, &gs, base.clone());
            assert_eq!(seq.stats.per_depth[6], last_level, "the level sizes moved");
            for workers in [2, 3, 4] {
                let par = find_errors_parallel(
                    &p,
                    &pr,
                    &gs,
                    base.clone(),
                    &ParallelConfig {
                        workers,
                        ..ParallelConfig::default()
                    },
                );
                let what = format!("{last_level} jobs, workers={workers}");
                assert_eq!(
                    outcome_fingerprint(&seq),
                    outcome_fingerprint(&par),
                    "{what}"
                );
                assert_eq!(seq.stats.per_depth, par.stats.per_depth, "{what}");
                assert_eq!(seq.stopped, par.stopped, "{what}");
            }
        }
    }

    /// `Engine::Parallel` at one worker (or none) is `Searcher::run`:
    /// the outcome and every counter of `SearchStats` but `elapsed`,
    /// BFS and CP, with and without a shared pool.
    #[test]
    fn one_worker_is_the_sequential_engine() {
        fn comparable(out: SearchOutcome<Ping>) -> String {
            let stats = SearchStats {
                elapsed: Duration::ZERO,
                ..out.stats
            };
            let paths: Vec<String> = out.violations.iter().map(|v| v.scenario()).collect();
            format!("{:?} {paths:?} {stats:?}", out.stopped)
        }
        let (p, gs) = sys(5);
        let pool = WorkerPool::new(2);
        for (limit, prune_local) in [(2, false), (2, true), (u32::MAX, false), (u32::MAX, true)] {
            let pr = props(limit);
            let searcher = Searcher::new(
                &p,
                &pr,
                SearchConfig {
                    prune_local,
                    max_depth: Some(6),
                    max_violations: 3,
                    ..cfg()
                },
            );
            let seq = searcher.run(&gs);
            assert_eq!(
                seq.is_clean(),
                limit == u32::MAX,
                "the legs cover both outcomes"
            );
            let seq = comparable(seq);
            for workers in [0, 1] {
                let engine = crate::Engine::Parallel(ParallelConfig {
                    workers,
                    ..ParallelConfig::default()
                });
                let what = format!("limit={limit} prune_local={prune_local} workers={workers}");
                assert_eq!(seq, comparable(searcher.search(&gs, &engine)), "{what}");
                assert_eq!(
                    seq,
                    comparable(searcher.search_on(&gs, &engine, Some(&pool))),
                    "{what}, pooled"
                );
            }
        }
    }

    #[test]
    fn default_config_has_workers() {
        assert!(ParallelConfig::default().workers >= 1);
    }
}
