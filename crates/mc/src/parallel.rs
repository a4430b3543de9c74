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
//! # Design: level-synchronous BFS, range tasks, one admission rule
//!
//! The engine processes the state graph one BFS level at a time. Each
//! level runs three phases:
//!
//! 1. **Build and check** (parallel): for the prefix of the level the
//!    state budget still reaches, build every successor the previous
//!    level's ranges left unbuilt and property-check every state, one pool
//!    task per contiguous range of items, each writing its own chunk of
//!    the level and of one pre-sized result vector. The previous level is
//!    dropped after this phase; a successor past the budget is never
//!    built.
//! 2. **Visit** (sequential, cheap): walk the level in canonical order
//!    (the order the sequential engine would dequeue), applying stop
//!    criteria, recording violations, and — under consequence prediction —
//!    performing the `localExplored` claims of Fig. 8 in exactly the order
//!    the sequential loop would, which pins down *which* state gets to
//!    expand each fresh local state. Produces the list of expansion jobs.
//! 3. **Expand, then collect**: the job list is cut into contiguous
//!    ranges and every range becomes one pool task — for each of its jobs
//!    enumerate events and hash each successor (a transition-memo hit is
//!    hashed without being built; a miss runs the handler). An edge whose
//!    hash the explored set already holds, or that an earlier edge of the
//!    same range reached, is a duplicate on the spot. Every other edge is
//!    kept: a miss with the state it built, a hit unbuilt — its parent's
//!    index in the level and the memo entry's result by value
//!    ([`cb_model::Deferred`]), which phase 1 of the next level builds if
//!    the budget reaches it, as [`Searcher::run`] builds a hit when it
//!    dequeues it. Once a wave of ranges is expanded, the coordinator
//!    walks the wave's edges in canonical order, inserts each edge's hash
//!    into the explored set, and enqueues exactly the edges whose insert
//!    is fresh.
//!
//! # One explored set, one admission rule
//!
//! The sequential engine enqueues the canonically first edge to each new
//! hash — first in (level, job, event) order — and drops every later one.
//! This engine keeps the same `DigestSet` and the same rule: the only
//! inserts are the coordinator's, made in canonical order between waves,
//! so an edge's insert is fresh exactly when it is the first edge to its
//! hash. While a wave expands, the set is frozen and the range tasks only
//! read it. The two tests they apply drop only edges the in-order insert
//! would drop too, so they save keeping what cannot be enqueued; an edge
//! whose hash only an earlier range of the same wave reaches is kept and
//! then dropped by the collect. Every enqueued edge builds its own state,
//! from its own parent — the clone the sequential engine would have
//! built, with its in-flight `Vec` order, which steers later event
//! enumeration (equal hashes pin down only the in-flight multiset).
//! Reconstructed paths — including the
//! canonical shallowest counterexample, tie-broken by (depth,
//! path-lexicographic order) — and every downstream level then match the
//! sequential engine exactly. Wall-clock-dependent outcomes (deadline
//! stops) are the only nondeterminism that survives.
//!
//! # Ranges and waves
//!
//! One job is a few microseconds of work on states that share most of
//! their `Arc`'d node slots with their siblings and parent; a pool task
//! per job costs more than the job and scatters siblings over the cores.
//! A range pays the task once and keeps neighbours on one core. The cut
//! is one fixed rule (`range_len`); ranges run in waves of
//! `workers × RANGES_PER_WORKER` ranges, one pool scope each, so the kept
//! edges held for the collect are a wave's, not the level's. A wave of
//! one range — every level that fits one range: the short levels every
//! search starts with, all of a shallow search — runs inline on the
//! caller with no scope or worker wake-up. Ranges are contiguous in job
//! order and collected in order, so where the cuts fall cannot reach a
//! result.
//!
//! # One memo per worker
//!
//! A range task takes a transition memo from the search's free list and
//! puts it back when done, so a memo lives across ranges, waves and
//! levels and there are never more of them than tasks that ran at once —
//! in effect one per worker. Which memo a range gets depends on
//! scheduling, so `memo_hits`/`memo_misses` do too; a hit builds the
//! successor a miss would, so nothing else does.
//!
//! There is no single-threaded rendering of these phases: one worker (or
//! none) *is* [`Searcher::run`].
//!
//! Differences from the sequential engine, all stats-level: `elapsed`;
//! `peak_frontier_bytes`, which is the largest per-level sum of successor
//! footprints — an unbuilt one counted at the size it will have, as
//! [`Searcher::run`] counts it — rather than a sliding window's (what is
//! resident is the level being expanded and its successors as kept,
//! mostly unbuilt); `memo_hits`/`memo_misses` (above); and `merge_busy`,
//! which times the coordinator's in-order collects (see [`SearchStats`];
//! `merge_wait` has nothing left to time and stays 0).

use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cb_model::{
    Deferred, Event, GlobalState, NodeId, Protocol, TraceStep, TransitionMemo, Violation,
};

use crate::pool::WorkerPool;
use crate::report::{FoundViolation, SearchOutcome, StopReason};
use crate::search::{
    approx_bytes, approx_state_bytes, digest_set_bytes, enumerate_gated, reconstruct, ArenaRec,
    DigestSet, SearchConfig, Searcher,
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
    /// Has no effect: phase 3 has one collect, on the coordinator.
    /// Nothing reads this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub merge_shards: usize,
    /// Has no effect: the explored set has one layout. Nothing reads
    /// this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub compact_explored: bool,
    /// Has no effect: the explored set never spills to disk. Nothing
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

/// Range tasks a level is cut into per worker: a few, so a slow range
/// leaves the other workers ranges to take instead of each being dealt a
/// fixed share up front. `workers ×` this many ranges make one wave.
const RANGES_PER_WORKER: usize = 4;
/// Fewest jobs worth a pool task. A level no longer than this runs
/// inline on the caller: waking a worker would cost more than the
/// expansion it takes over.
const MIN_RANGE_JOBS: usize = 64;
/// Most jobs per range: a range's edges are still cache-resident when
/// the collect takes them, and a wave holds the kept edges of at most
/// `workers × RANGES_PER_WORKER × MAX_RANGE_JOBS` jobs.
const MAX_RANGE_JOBS: usize = 256;

/// Length of the contiguous ranges a level of `n` items is cut into at
/// `workers` workers: [`RANGES_PER_WORKER`] per worker within the
/// [`MIN_RANGE_JOBS`]..=[`MAX_RANGE_JOBS`] band, evened out so the last
/// range is no sliver. The level fits one range iff `n <= range_len`.
fn range_len(n: usize, workers: usize) -> usize {
    let target = (n / (workers * RANGES_PER_WORKER)).clamp(MIN_RANGE_JOBS, MAX_RANGE_JOBS);
    n.div_ceil(n.div_ceil(target).max(1)).max(1)
}

/// The contiguous [`range_len`] ranges a level of `n` jobs is cut into,
/// in job order.
fn cut(n: usize, workers: usize) -> Vec<Range<usize>> {
    let len = range_len(n, workers);
    (0..n).step_by(len).map(|s| s..n.min(s + len)).collect()
}

/// One level's states, each with the arena record of the edge that
/// reached it — all items of one level share a depth.
type Level<P> = Vec<(GlobalState<P>, Option<usize>)>;

/// A level as the collect enqueued it: its successors, each with the arena
/// record of the edge that reached it, not all built yet.
type Frontier<P> = Vec<(Succ<P>, Option<usize>)>;

/// A successor as its range left it: built — a memo miss, whose handler
/// run is what hashed it, and the start state — or, for a memo hit, its
/// parent's index in the level it was expanded from and the memo entry's
/// result, which the next level's phase 1 builds if the budget reaches it.
enum Succ<P: Protocol> {
    Built(GlobalState<P>),
    Deferred { parent: usize, recipe: Deferred<P> },
}

impl<P: Protocol> Succ<P> {
    /// The state, building a deferred one in place from its parent in
    /// `parents`, with the event and step of its edge (`rec`) in `arena`.
    fn build(
        &mut self,
        protocol: &P,
        parents: &[(GlobalState<P>, Option<usize>)],
        arena: &[ArenaRec<P>],
        rec: Option<usize>,
    ) -> &GlobalState<P> {
        if let Succ::Deferred { parent, recipe } = self {
            let edge = &arena[rec.expect("the start state is built")];
            let state = recipe.build(protocol, &parents[*parent].0, &edge.event, &edge.step);
            *self = Succ::Built(state);
        }
        match self {
            Succ::Built(state) => state,
            Succ::Deferred { .. } => unreachable!("built above"),
        }
    }

    fn into_built(self) -> GlobalState<P> {
        match self {
            Succ::Built(state) => state,
            Succ::Deferred { .. } => unreachable!("phase 1 builds the budget prefix"),
        }
    }
}

/// A successor edge its range did not find to be a duplicate, enqueued by
/// the collect iff its `hash` is fresh there.
struct Edge<P: Protocol> {
    /// The arena record of the state the edge leaves.
    parent: Option<usize>,
    hash: u64,
    succ: Succ<P>,
    /// Byte footprint of the successor, built or not (as `Searcher::run`
    /// counts a frontier entry).
    bytes: usize,
    event: Event<P>,
    step: TraceStep,
}

/// What one range task counted while expanding.
#[derive(Default)]
struct ExpandTally {
    filtered: usize,
    /// Edges whose hash the explored set or an earlier edge of the range
    /// already held, and so built nothing.
    duplicates: usize,
    memo_hits: usize,
    memo_misses: usize,
}

impl ExpandTally {
    fn add_to(&self, stats: &mut SearchStats) {
        stats.filtered_events += self.filtered;
        stats.duplicates_hit += self.duplicates;
        stats.memo_hits += self.memo_hits;
        stats.memo_misses += self.memo_misses;
    }
}

/// One range's expansion: its kept edges in canonical (job, event) order,
/// and what it counted.
type Expanded<P> = (Vec<Edge<P>>, ExpandTally);

/// The level under construction: admitted successors in canonical
/// enqueue order, with their byte footprints summed.
struct NextLevel<P: Protocol> {
    items: Frontier<P>,
    bytes: usize,
}

impl<P: Protocol> NextLevel<P> {
    /// The in-order collect of one range's edges, after every earlier
    /// range's: inserts each edge's hash into the explored set and
    /// enqueues, with its arena record, each edge whose insert is fresh —
    /// the canonical edge to its hash. Returns how many edges it dropped
    /// (kept by their range, but an earlier range reached their hash
    /// first).
    fn collect(
        &mut self,
        explored: &mut DigestSet,
        arena: &mut Vec<ArenaRec<P>>,
        edges: Vec<Edge<P>>,
    ) -> usize {
        let mut dropped = 0;
        for e in edges {
            if !explored.insert(e.hash) {
                dropped += 1;
                continue;
            }
            arena.push(ArenaRec {
                parent: e.parent,
                event: e.event,
                step: e.step,
            });
            self.bytes += e.bytes;
            self.items.push((e.succ, Some(arena.len() - 1)));
        }
        dropped
    }
}

/// The search's transition memos that no range task holds. A task takes
/// one — a new one when every memo is taken — and puts it back when done,
/// so a memo lives across ranges, waves and levels, and a search holds no
/// more memos than it ran range tasks at once. Which memo a range gets
/// depends on scheduling: what it holds moves the hit count, never a
/// successor.
struct Memos<'p, P: Protocol> {
    protocol: &'p P,
    free: Mutex<Vec<TransitionMemo<'p, P>>>,
}

impl<'p, P: Protocol> Memos<'p, P> {
    fn new(protocol: &'p P) -> Self {
        Memos {
            protocol,
            free: Mutex::new(Vec::new()),
        }
    }

    fn take(&self) -> TransitionMemo<'p, P> {
        let free = self.free.lock().expect("memo list poisoned").pop();
        free.unwrap_or_else(|| TransitionMemo::new(self.protocol))
    }

    fn put(&self, memo: TransitionMemo<'p, P>) {
        self.free.lock().expect("memo list poisoned").push(memo);
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

/// One level's phase 3: what its range tasks all read besides the
/// explored set (frozen for the length of a wave), the memos they take,
/// and the logical worker count its jobs are cut for.
struct Phase3<'a, 'p, P: Protocol> {
    level: &'a [(GlobalState<P>, Option<usize>)],
    jobs: &'a [ExpandJob],
    deadline: &'a Deadline,
    memos: &'a Memos<'p, P>,
    workers: usize,
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
        let mut explored = DigestSet::default();
        let mut local_explored = DigestSet::default();
        let memos = Memos::new(self.protocol);
        let mut depth_truncated = false;
        let mut stopped: Option<StopReason> = None;

        explored.insert(start.state_hash());
        // The level the frontier was expanded from: deferred successors
        // are built from it.
        let mut parents: Level<P> = Vec::new();
        let mut frontier: Frontier<P> = vec![(Succ::Built(start.clone()), None)];
        // Byte footprint of `frontier`, accumulated as the collect
        // enqueued it, each deferred successor counted as if built.
        let mut frontier_bytes = approx_state_bytes(start);
        stats.states_enqueued = 1;
        let mut depth = 0usize;

        'levels: while !frontier.is_empty() {
            if deadline.passed() {
                break 'levels;
            }
            stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(frontier_bytes);

            // Only the prefix the visit loop can still afford to dequeue
            // is built, checked and expanded — the final BFS level is
            // typically the largest, and work beyond the budget would be
            // discarded. A deferred successor past it is never built.
            let enqueued = frontier.len();
            let budget_left = self
                .config
                .max_states
                .map_or(enqueued, |max| max.saturating_sub(stats.states_visited))
                .min(enqueued);
            frontier.truncate(budget_left);

            // Phase 1: parallel build and property check of the budget
            // prefix; the level it was expanded from goes with it.
            let Some((level, checks)) =
                self.check_level(frontier, parents, &arena, workers, &deadline, pool)
            else {
                break 'levels;
            };

            // Phase 2: sequential visit, in canonical (sequential-dequeue)
            // order — exactly what the sequential loop does between
            // dequeue and expansion: record the visit, report a violation,
            // apply the stop criteria, and make the `localExplored` claims
            // of Fig. 8. The claims are resolved here, not by the
            // expansion (which runs later, on other threads), so they land
            // in canonical item order regardless of scheduling.
            let mut jobs: Vec<ExpandJob> = Vec::with_capacity(budget_left);
            for (i, ((state, rec), check)) in level.iter().zip(checks).enumerate() {
                stats.record_visit(depth);
                if let Some(violation) = check {
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
            if stopped.is_none() && budget_left < enqueued {
                // The sequential loop dequeues the first state past the
                // budget and stops there.
                stopped = Some(StopReason::StateLimit);
            }

            // Phase 3: expand against the frozen explored set, and
            // collect each wave's edges into it in canonical order.
            let mut next = NextLevel {
                // Levels rarely shrink: the previous level's size is a
                // cheap floor that skips most of the growth reallocations.
                items: Vec::with_capacity(enqueued),
                bytes: 0,
            };
            let cx = Phase3 {
                level: &level,
                jobs: &jobs,
                deadline: &deadline,
                memos: &memos,
                workers,
            };
            self.expand_level(&cx, &mut explored, pool, &mut arena, &mut next, &mut stats);
            if deadline.hit() {
                break 'levels; // the partial level is discarded
            }
            stats.states_enqueued += next.items.len();
            if stopped.is_some() {
                break 'levels;
            }
            parents = level;
            frontier = next.items;
            frontier_bytes = next.bytes;
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
        stats.explored_resident_bytes = digest_set_bytes(&explored);
        stats.tree_bytes = arena.len() * size_of::<ArenaRec<P>>()
            + stats.explored_resident_bytes
            + digest_set_bytes(&local_explored);
        stats.publish();
        SearchOutcome {
            violations,
            stats,
            stopped,
        }
    }

    /// Phase 1: builds each deferred successor of the budget prefix
    /// `frontier` from its parent in `parents` and property-checks every
    /// item, one pool task per contiguous range ([`range_len`]), each
    /// writing its own chunk of the items and of the result; a level that
    /// fits one range runs on the caller. Returns the built level and its
    /// checks, and drops `parents`; `None` when the deadline fired
    /// mid-phase.
    fn check_level(
        &self,
        mut frontier: Frontier<P>,
        parents: Level<P>,
        arena: &[ArenaRec<P>],
        workers: usize,
        deadline: &Deadline,
        pool: &WorkerPool,
    ) -> Option<(Level<P>, Vec<Option<Violation>>)> {
        let mut checks: Vec<Option<Violation>> = Vec::new();
        checks.resize_with(frontier.len(), || None);
        let check_range = |items: &mut [(Succ<P>, Option<usize>)],
                           out: &mut [Option<Violation>]| {
            for ((succ, rec), slot) in items.iter_mut().zip(out) {
                if deadline.passed() {
                    return;
                }
                let state = succ.build(self.protocol, &parents, arena, *rec);
                *slot = self.props.check(state);
            }
        };
        let len = range_len(frontier.len(), workers);
        if frontier.len() <= len {
            check_range(&mut frontier, &mut checks);
        } else {
            pool.scope(|scope| {
                for (items, out) in frontier.chunks_mut(len).zip(checks.chunks_mut(len)) {
                    let check_range = &check_range;
                    scope.spawn(move || check_range(items, out));
                }
            });
        }
        if deadline.hit() {
            return None;
        }
        let level = frontier
            .into_iter()
            .map(|(succ, rec)| (succ.into_built(), rec))
            .collect();
        Some((level, checks))
    }

    /// Executes the contiguous `range` of the level's expansion jobs on a
    /// memo taken from `cx.memos`: enumerate and hash each successor, and
    /// keep it unless `explored` or an earlier edge of the range already
    /// holds its hash. A memo hit is hashed and kept unbuilt; a miss is
    /// built, since running its handler is what hashes it. Cut short (to
    /// be discarded) once the deadline has passed.
    fn expand_range(
        &self,
        cx: &Phase3<'_, '_, P>,
        explored: &DigestSet,
        range: Range<usize>,
    ) -> Expanded<P> {
        let mut edges = Vec::new();
        let mut tally = ExpandTally::default();
        // The hashes this range kept: a later edge to one is a duplicate
        // whatever the collect decides for the first.
        let mut seen = DigestSet::default();
        let mut memo = cx.memos.take();
        let (hits, misses) = (memo.hits(), memo.misses());
        for j in range {
            if cx.deadline.passed() {
                break;
            }
            let job = &cx.jobs[j];
            let (state, parent) = &cx.level[job.item];
            let events = enumerate_gated(
                self.protocol,
                &self.config,
                state,
                |n| job.allowed.as_ref().is_none_or(|nodes| nodes.contains(&n)),
                &mut tally.filtered,
            );
            let mut from = memo.expand(state);
            for event in events {
                let (built, hash, step, bytes) = match from.hash_of(&event) {
                    Some(probe) => {
                        let bytes =
                            approx_bytes::<P>(state.nodes.len(), probe.conns, probe.inflight);
                        (None, probe.hash, probe.step, bytes)
                    }
                    None => {
                        let (next, step) = from.successor(&event);
                        let (hash, bytes) = (next.state_hash(), approx_state_bytes(&next));
                        (Some(next), hash, step, bytes)
                    }
                };
                if explored.contains(&hash) || !seen.insert(hash) {
                    tally.duplicates += 1;
                    continue;
                }
                let succ = match built {
                    Some(next) => Succ::Built(next),
                    None => Succ::Deferred {
                        parent: job.item,
                        recipe: from.defer(&event).expect("a probed hit is held"),
                    },
                };
                edges.push(Edge {
                    parent: *parent,
                    hash,
                    succ,
                    bytes,
                    event,
                    step,
                });
            }
        }
        tally.memo_hits = memo.hits() - hits;
        tally.memo_misses = memo.misses() - misses;
        cx.memos.put(memo);
        (edges, tally)
    }

    /// Phase 3: expands the level's jobs range by range in waves of
    /// `workers × RANGES_PER_WORKER` ranges, one pool scope each, against
    /// `explored` as the earlier waves left it, and after each wave
    /// collects its edges into `explored` in canonical order. A wave of
    /// one range runs on the caller. When the deadline fires mid-phase the
    /// collect is left partial, for the caller to discard.
    fn expand_level(
        &self,
        cx: &Phase3<'_, '_, P>,
        explored: &mut DigestSet,
        pool: &WorkerPool,
        arena: &mut Vec<ArenaRec<P>>,
        next: &mut NextLevel<P>,
        stats: &mut SearchStats,
    ) {
        let _span = cb_obs::span("mc.expand", "mc");
        let ranges = cut(cx.jobs.len(), cx.workers);
        stats.expand_ranges += ranges.len();
        for wave in ranges.chunks(cx.workers * RANGES_PER_WORKER) {
            let frozen = &*explored;
            let expanded = if let [range] = wave {
                vec![self.expand_range(cx, frozen, range.clone())]
            } else {
                let mut out: Vec<Expanded<P>> = Vec::new();
                out.resize_with(wave.len(), Default::default);
                pool.scope(|scope| {
                    for (range, out) in wave.iter().zip(&mut out) {
                        scope.spawn(move || *out = self.expand_range(cx, frozen, range.clone()));
                    }
                });
                out
            };
            if cx.deadline.hit() {
                return;
            }
            let _span = cb_obs::span("mc.merge", "mc");
            let t = Instant::now();
            for (edges, tally) in expanded {
                tally.add_to(stats);
                stats.duplicates_hit += next.collect(explored, arena, edges);
            }
            stats.merge_busy += t.elapsed();
        }
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
    use cb_model::hashing::combine;
    use cb_model::testproto::{max_pings_property, Ping, PingAction, PingMsg, PingState};
    use cb_model::{ExploreOptions, NodeId, Outbox, Property, PropertySet};
    use std::sync::{Arc, Mutex};

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

    /// The state budget cuts wide()'s system at depth 11 midway: 9000 of
    /// its 10872 states are visited, and their expansion spans several
    /// waves at every worker count, as does the expansion of the level
    /// before it. Successors past the budget are never built.
    #[test]
    fn state_budget_cutting_a_multi_wave_level_matches_sequential() {
        let (p, gs, pr, base) = wide();
        let below: usize = [1, 4, 14, 40, 101, 232, 498, 1004, 1930, 3556, 6318]
            .iter()
            .sum();
        let base = SearchConfig {
            max_depth: Some(12),
            max_states: Some(below + 9000),
            ..base
        };
        let seq = find_errors(&p, &pr, &gs, base.clone());
        assert_eq!(seq.stopped, StopReason::StateLimit);
        assert_eq!(
            seq.stats.per_depth[10..],
            [6318, 9000],
            "the level sizes moved"
        );
        for workers in [2, 4, 7] {
            for jobs in [6318, 9000] {
                assert!(
                    cut(jobs, workers).len() > workers * RANGES_PER_WORKER,
                    "{jobs} jobs span several waves at {workers} workers"
                );
            }
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
            let what = format!("workers={workers}");
            assert_eq!(par.stopped, StopReason::StateLimit, "{what}");
            assert_eq!(
                outcome_fingerprint(&seq),
                outcome_fingerprint(&par),
                "{what}"
            );
            assert_eq!(seq.stats.per_depth, par.stats.per_depth, "{what}");
        }
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

    /// `merge_busy` times the phased engine's in-order collects and is 0
    /// under the sequential loop; `merge_wait` is 0 under both.
    #[test]
    fn merge_timers_populated_only_in_streamed_mode() {
        let (p, gs, pr, base) = wide();
        let seq = find_errors(&p, &pr, &gs, base.clone());
        assert_eq!(seq.stats.merge_busy, Duration::ZERO);
        assert_eq!(seq.stats.merge_wait, Duration::ZERO);
        let phased = find_errors_parallel(
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
            phased.stats.merge_busy > Duration::ZERO,
            "the coordinator's collects were timed"
        );
        assert_eq!(phased.stats.merge_wait, Duration::ZERO);
        assert_eq!(phased.stats.merge_shard_busy, vec![phased.stats.merge_busy]);
        assert!(
            phased.stats.expand_ranges > phased.stats.per_depth.len(),
            "some level was cut into several ranges"
        );
    }

    /// The phased engine with no pool thread at all: the coordinator
    /// runs every range task itself as each wave's scope exits, and the
    /// result is still the sequential engine's.
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

    /// A panicking range task leaves the engine: its wave's scope waits
    /// for the sibling ranges and re-raises the panic out of
    /// `run_parallel`. Four nodes hit the bug in a 9-job level (inline, no
    /// task at all); six nodes with one pong to spare hit it in a 476-job
    /// level cut into 8 ranges.
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
    /// hash from parents in different ranges, so the canonical edge of a
    /// same-level duplicate and a later, built one sit in different
    /// ranges.
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

    /// Reports no violation, and records the digest of every state it
    /// checks: its hash folded with its in-flight `Vec` order, which event
    /// enumeration reads.
    struct Recorder(Arc<Mutex<Vec<u64>>>);

    impl Property<Ping> for Recorder {
        fn name(&self) -> &str {
            "recorder"
        }

        fn check(&self, gs: &GlobalState<Ping>) -> Option<Violation> {
            self.0.lock().unwrap().push(digest(gs));
            None
        }
    }

    fn digest(gs: &GlobalState<Ping>) -> u64 {
        gs.inflight
            .iter()
            .fold(gs.state_hash(), |h, m| combine(h, m.stable_hash()))
    }

    /// Each level's ranges go through `expand_range` last to first, as if
    /// the later ranges' tasks ran ahead, on one memo carried across every
    /// range and level, and only then does the in-order collect run. Some
    /// later range keeps a successor whose hash an earlier range reaches
    /// too, and the collect drops it. Every enqueued state — built by phase
    /// 1, in-flight `Vec` order included — and the counts are still
    /// `Searcher::run`'s.
    #[test]
    fn ranges_expanded_in_reverse_match_sequential() {
        let (p, gs) = sys(5);
        let base = SearchConfig {
            max_depth: Some(7),
            prune_local: false,
            ..cfg()
        };
        let visited = Arc::new(Mutex::new(Vec::new()));
        let recorder = PropertySet::new().with(Recorder(visited.clone()));
        let seq = Searcher::new(&p, &recorder, base.clone()).run(&gs);
        assert_eq!(seq.stopped, StopReason::DepthLimit);

        let none = PropertySet::new();
        let searcher = Searcher::new(&p, &none, base);
        let mut explored = DigestSet::default();
        explored.insert(gs.state_hash());
        let deadline = Deadline {
            search_t0: Instant::now(),
            limit: None,
            hit: AtomicBool::new(false),
        };
        let (pool, memos) = (WorkerPool::new(0), Memos::new(&p));
        let (mut arena, mut stats) = (Vec::new(), SearchStats::default());
        let mut parents: Level<Ping> = Vec::new();
        let mut frontier: Frontier<Ping> = vec![(Succ::Built(gs.clone()), None)];
        let (mut enqueued, mut dropped, mut order) = (1, 0, Vec::new());
        for depth in 0..=7 {
            let (level, _) = searcher
                .check_level(frontier, parents, &arena, 4, &deadline, &pool)
                .expect("no deadline");
            order.extend(level.iter().map(|(s, _)| digest(s)));
            if depth == 7 {
                break;
            }
            let jobs: Vec<ExpandJob> = (0..level.len())
                .map(|item| ExpandJob {
                    item,
                    allowed: None,
                })
                .collect();
            let cx = Phase3 {
                level: &level,
                jobs: &jobs,
                deadline: &deadline,
                memos: &memos,
                workers: 4,
            };
            let mut expanded: Vec<_> = (cut(jobs.len(), cx.workers).into_iter().rev())
                .map(|range| searcher.expand_range(&cx, &explored, range))
                .collect();
            expanded.reverse();
            let mut next = NextLevel {
                items: Vec::new(),
                bytes: 0,
            };
            for (edges, tally) in expanded {
                tally.add_to(&mut stats);
                let late = next.collect(&mut explored, &mut arena, edges);
                dropped += late;
                stats.duplicates_hit += late;
            }
            enqueued += next.items.len();
            frontier = next.items;
            parents = level;
        }
        assert!(
            dropped > 0,
            "some range kept a successor an earlier range reached first"
        );
        assert_eq!(order, *visited.lock().unwrap(), "BFS order, states exact");
        assert_eq!(enqueued, seq.stats.states_enqueued);
        assert_eq!(stats.duplicates_hit, seq.stats.duplicates_hit);
        let free = memos.free.lock().unwrap();
        assert_eq!(free.len(), 1, "every range ran on the one memo");
        assert_eq!(
            (free[0].hits(), free[0].misses()),
            (stats.memo_hits, stats.memo_misses)
        );
        assert!(stats.memo_hits > stats.memo_misses, "the memo was reused");
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
