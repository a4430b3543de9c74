//! The search engines: exhaustive BFS (Fig. 5), consequence prediction
//! (Fig. 8), the random-walk baseline, and the parallel level-synchronous
//! engine (`crate::parallel`).
//!
//! Both BFS variants share one loop; the *only* semantic difference is the
//! `localExplored` test, exactly as in the paper: "if we omitted the test in
//! Line 16, the algorithm would reduce precisely to Figure 5" (§3.2). That
//! one-line difference survives every engine: the sequential loop gates
//! per-node expansion through a `localExplored` claim, and the parallel
//! engine performs the same claims in the same canonical order during its
//! per-level sequential phase (see `crate::parallel` for the phase
//! breakdown), so Fig. 5 vs Fig. 8 remains exactly the presence or absence
//! of that gate.
//!
//! Deviations from the pseudocode, called out for reviewers:
//!
//! * `explored` hashes are recorded at **enqueue** time rather than dequeue
//!   time, so the frontier never holds duplicates (Fig. 5 as written may
//!   re-enqueue a state reached along two paths before either is popped;
//!   semantics are unchanged, memory is strictly better). The sequential
//!   engine keeps one `HashSet`; the parallel engine uses the lock-free
//!   concurrent table ([`crate::LockFreeExplored`]) with the same
//!   enqueue-time discipline — workers race successor hashes in with one
//!   CAS each, exactly one wins, and a streamed canonical merge assigns
//!   each newly admitted state its canonical (first-in-BFS-order) parent,
//!   so the recorded paths match the sequential engine's bit for bit.
//! * States that violate a property are reported but **not expanded**:
//!   CrystalBall consumes the shallowest path to a violation (for steering
//!   and replay), and spending the runtime budget on post-violation suffixes
//!   would only delay finding distinct violations.
//! * "`s' := apply(s, e)`" (Fig. 5 line 11) does not run the handler every
//!   time: each search owns a [`cb_model::TransitionMemo`], and a handler
//!   runs once per (acting node's slot, input, view of the other nodes'
//!   incarnations) — a later application of the same transition swaps the
//!   recorded slot in and appends the recorded messages. The successor is
//!   bit-identical to `apply_event`'s (debug builds re-derive every hit and
//!   compare), so only the time per successor differs; the parallel engine
//!   keeps one memo per range task. `SearchStats::memo_hits`/`memo_misses`
//!   report the split.
//! * A successor is **built when it is dequeued**, not when it is
//!   generated: on a memo hit, [`cb_model::Expansion::hash_of`] folds the
//!   successor's `state_hash` from its parent's, the explored set is
//!   probed with it, and a duplicate costs that probe alone. A survivor is
//!   enqueued as its shared parent plus the event in its arena record and
//!   built through the memo when dequeued — exactly `apply_event`'s
//!   state, in-flight `Vec` order included — so a state the budget never
//!   reaches is never built. A memo miss is built at once, since running
//!   its handler is what hashes it. The parallel engine probes the same
//!   way and builds only the successors that win the explored-set race.

use std::collections::{HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::mem::size_of;
use std::rc::Rc;
use std::time::{Duration, Instant};

use cb_model::hashing::DigestHasher;
use cb_model::{
    apply_event, enumerate_events_gated, Event, ExploreOptions, GlobalState, NodeId, PropertySet,
    Protocol, TraceStep, TransitionMemo,
};

use crate::filter::FilterSet;
use crate::parallel::ParallelConfig;
use crate::report::{FoundViolation, PathStep, SearchOutcome, StopReason};
use crate::stats::SearchStats;

/// Stop criteria and exploration options for one search run — the paper's
/// `StopCriterion` plus CrystalBall-specific knobs.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Maximum path length from the start state (levels in Fig. 12).
    pub max_depth: Option<usize>,
    /// Budget of dequeued (visited) states.
    pub max_states: Option<usize>,
    /// Wall-clock budget ("CrystalBall identified inconsistencies by
    /// running consequence prediction ... for up to several hundred
    /// seconds", §5.2).
    pub deadline: Option<Duration>,
    /// Which environment events to explore besides deliveries and actions.
    pub explore: ExploreOptions,
    /// Whether to apply consequence prediction's `localExplored` pruning.
    pub prune_local: bool,
    /// Stop after this many violations (the controller wants 1).
    pub max_violations: usize,
    /// Events suppressed during exploration; used to evaluate candidate
    /// event filters (§3.3 "Checking Safety of Event Filters").
    pub filters: FilterSet,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            max_depth: None,
            max_states: Some(200_000),
            deadline: None,
            explore: ExploreOptions::default(),
            prune_local: true,
            max_violations: 1,
            filters: FilterSet::new(),
        }
    }
}

impl SearchConfig {
    /// Builder: set the depth bound.
    pub fn with_depth(mut self, d: usize) -> Self {
        self.max_depth = Some(d);
        self
    }

    /// Builder: set the visited-state budget.
    pub fn with_states(mut self, n: usize) -> Self {
        self.max_states = Some(n);
        self
    }

    /// Builder: set the wall-clock budget.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Builder: set exploration options.
    pub fn with_explore(mut self, e: ExploreOptions) -> Self {
        self.explore = e;
        self
    }

    /// Builder: set the violation budget.
    pub fn with_violations(mut self, n: usize) -> Self {
        self.max_violations = n.max(1);
        self
    }

    /// Builder: install exploration-time filters.
    pub fn with_filters(mut self, f: FilterSet) -> Self {
        self.filters = f;
        self
    }
}

/// A set of 64-bit state digests (`state_hash`/`local_hash` values).
///
/// The keys are already FNV digests, so SipHashing them again buys
/// nothing: the set's hasher ([`DigestHasher`]) is one multiply and a
/// rotate. These sets are only inserted into and counted, never iterated,
/// so the bucket layout cannot reach a search outcome.
pub(crate) type DigestSet = HashSet<u64, BuildHasherDefault<DigestHasher>>;

/// Which exploration engine drives a search run.
#[derive(Clone, Debug, Default)]
pub enum Engine {
    /// The single-threaded FIFO loop of Fig. 5 / Fig. 8.
    #[default]
    Sequential,
    /// The level-synchronous parallel engine: same violation set and
    /// canonical paths, expansion fanned out over a worker pool. At most
    /// one worker is `Sequential` itself (see
    /// [`ParallelConfig::workers`]).
    Parallel(ParallelConfig),
    /// The MaceMC random-walk baseline (§5.3).
    RandomWalk {
        /// PRNG seed (runs replay bit-identically per seed).
        seed: u64,
        /// Maximum events per walk before restarting from the start state.
        max_walk_len: usize,
    },
}

/// A frontier entry of [`Searcher::run`]: a successor built when it was
/// enqueued (a memo miss, and the start state), or one the memo hashed
/// without building — its parent, shared with its siblings, and the event
/// in its arena record, built when it is dequeued.
enum Pending<P: Protocol> {
    Built(GlobalState<P>),
    Deferred(Rc<GlobalState<P>>),
}

/// Parent-pointer record for path reconstruction.
pub(crate) struct ArenaRec<P: Protocol> {
    pub(crate) parent: Option<usize>,
    pub(crate) event: Event<P>,
    pub(crate) step: TraceStep,
}

/// A reusable search driver binding a protocol, its safety properties, and
/// a configuration.
pub struct Searcher<'a, P: Protocol> {
    pub(crate) protocol: &'a P,
    pub(crate) props: &'a PropertySet<P>,
    /// The active configuration (mutable between runs).
    pub config: SearchConfig,
}

/// [`cb_model::enumerate_events_gated`] — the canonical event order every
/// engine shares — with this search's installed filters as the keep test:
/// events a filter blocks are dropped and tallied into `filtered`.
/// `allow_node` is the `localExplored` gate of Fig. 8; exhaustive search
/// passes a constant-true gate.
pub(crate) fn enumerate_gated<P: Protocol>(
    protocol: &P,
    config: &SearchConfig,
    state: &GlobalState<P>,
    allow_node: impl FnMut(NodeId) -> bool,
    filtered: &mut usize,
) -> Vec<Event<P>> {
    if config.filters.is_empty() {
        // Nothing to block: no event's key is resolved.
        return enumerate_events_gated(protocol, state, &config.explore, allow_node, |_| true);
    }
    enumerate_events_gated(protocol, state, &config.explore, allow_node, |ev| {
        let blocked = ev.key(state).is_some_and(|key| config.filters.blocks(&key));
        *filtered += usize::from(blocked);
        !blocked
    })
}

impl<'a, P: Protocol> Searcher<'a, P> {
    /// Creates a searcher.
    pub fn new(protocol: &'a P, props: &'a PropertySet<P>, config: SearchConfig) -> Self {
        SearchStats::touch_metrics();
        Searcher {
            protocol,
            props,
            config,
        }
    }

    /// Runs the search with the given engine. All engines agree on the
    /// violation set and on the canonical (shallowest, path-lexicographic
    /// first) counterexample paths, except the random walk, which is a
    /// sampling baseline.
    pub fn search(&self, start: &GlobalState<P>, engine: &Engine) -> SearchOutcome<P> {
        match engine {
            Engine::Sequential => self.run(start),
            Engine::Parallel(par) => self.run_parallel(start, par),
            Engine::RandomWalk { seed, max_walk_len } => {
                self.random_walk(start, *seed, *max_walk_len)
            }
        }
    }

    /// [`Searcher::search`], except that a parallel engine draws its
    /// workers from the shared `pool` instead of spawning its own — the
    /// entry point for callers running several independent searches
    /// (prediction, replays, safety re-checks, checker shards) over one
    /// set of threads. With `None`, behaves exactly like [`Searcher::search`].
    pub fn search_on(
        &self,
        start: &GlobalState<P>,
        engine: &Engine,
        pool: Option<&crate::pool::WorkerPool>,
    ) -> SearchOutcome<P> {
        match (engine, pool) {
            (Engine::Parallel(par), Some(pool)) => self.run_parallel_pooled(start, par, pool),
            _ => self.search(start, engine),
        }
    }

    /// Runs the breadth-first search from `start`: Fig. 5 when
    /// `config.prune_local` is false, Fig. 8 (consequence prediction) when
    /// true.
    pub fn run(&self, start: &GlobalState<P>) -> SearchOutcome<P> {
        let t0 = Instant::now();
        let mut stats = SearchStats::default();
        let mut violations = Vec::new();

        let mut arena: Vec<ArenaRec<P>> = Vec::new();
        let mut explored = DigestSet::default();
        let mut local_explored = DigestSet::default();
        let mut memo = TransitionMemo::new(self.protocol);
        // (state, built or not, arena rec of the edge that reached it,
        // depth, the bytes it was counted as when pushed). FIFO order is breadth-first
        // order, and doubles as the *canonical* order the parallel engine
        // reproduces.
        let mut frontier: VecDeque<(Pending<P>, Option<usize>, usize, usize)> = VecDeque::new();
        let mut frontier_bytes = 0usize;
        let mut depth_truncated = false;

        explored.insert(start.state_hash());
        frontier_bytes += approx_state_bytes(start);
        stats.peak_frontier_bytes = frontier_bytes;
        frontier.push_back((Pending::Built(start.clone()), None, 0, frontier_bytes));
        stats.states_enqueued += 1;

        let mut stopped = StopReason::Exhausted;

        'search: while let Some((pending, rec, depth, bytes)) = frontier.pop_front() {
            frontier_bytes -= bytes;
            if let Some(deadline) = self.config.deadline {
                if t0.elapsed() >= deadline {
                    stopped = StopReason::Deadline;
                    break 'search;
                }
            }
            if let Some(max) = self.config.max_states {
                if stats.states_visited >= max {
                    stopped = StopReason::StateLimit;
                    break 'search;
                }
            }
            let state = Rc::new(match pending {
                Pending::Built(state) => state,
                Pending::Deferred(parent) => {
                    let rec = rec.expect("the start state is built");
                    memo.expand(&parent).build(&arena[rec].event)
                }
            });
            stats.record_visit(depth);

            // Property check on the dequeued state (Fig. 5 line 7).
            if let Some(violation) = self.props.check(&state) {
                stats.violations_found += 1;
                violations.push(FoundViolation {
                    violation,
                    path: reconstruct(&arena, rec),
                    depth,
                });
                if violations.len() >= self.config.max_violations {
                    stopped = StopReason::ViolationLimit;
                    break 'search;
                }
                // Do not expand violating states (see module docs).
                continue;
            }

            if self.config.max_depth.is_some_and(|d| depth >= d) {
                depth_truncated = true;
                continue;
            }

            let events = self.enumerate_claiming(&state, &mut local_explored, &mut stats);
            let mut from = memo.expand(&state);
            for event in events {
                // A memo hit is hashed without being built: a duplicate
                // costs the probe, a survivor is built when dequeued. A
                // miss runs its handler now, since that is what hashes it.
                let (next, step, hash, bytes) = match from.hash_of(&event) {
                    Some(probe) => {
                        let bytes =
                            approx_bytes::<P>(state.nodes.len(), probe.conns, probe.inflight);
                        let next = Pending::Deferred(Rc::clone(&state));
                        (next, probe.step, probe.hash, bytes)
                    }
                    None => {
                        let (next, step) = from.successor(&event);
                        let (hash, bytes) = (next.state_hash(), approx_state_bytes(&next));
                        (Pending::Built(next), step, hash, bytes)
                    }
                };
                if !explored.insert(hash) {
                    stats.duplicates_hit += 1;
                    continue;
                }
                arena.push(ArenaRec {
                    parent: rec,
                    event,
                    step,
                });
                let child_rec = Some(arena.len() - 1);
                frontier_bytes += bytes;
                stats.peak_frontier_bytes = stats.peak_frontier_bytes.max(frontier_bytes);
                frontier.push_back((next, child_rec, depth + 1, bytes));
                stats.states_enqueued += 1;
            }
        }

        if stopped == StopReason::Exhausted && depth_truncated {
            stopped = StopReason::DepthLimit;
        }
        stats.memo_hits = memo.hits();
        stats.memo_misses = memo.misses();
        stats.elapsed = t0.elapsed();
        stats.explored_resident_bytes = explored.len() * 2 * size_of::<u64>();
        stats.tree_bytes = arena.len() * size_of::<ArenaRec<P>>()
            + stats.explored_resident_bytes
            + local_explored.len() * 2 * size_of::<u64>();
        stats.publish();
        SearchOutcome {
            violations,
            stats,
            stopped,
        }
    }

    /// Enumerates the events to expand from `state` the way the canonical
    /// dequeue does: filters honored, and — under consequence prediction —
    /// each node's local-action block gated through a `localExplored`
    /// claim made *now*, in node-id order (Fig. 8 lines 16–20). Tallies
    /// `filtered_events` and `local_prunes`.
    fn enumerate_claiming(
        &self,
        state: &GlobalState<P>,
        local_explored: &mut DigestSet,
        stats: &mut SearchStats,
    ) -> Vec<Event<P>> {
        let mut filtered = 0usize;
        let mut prunes = 0usize;
        let events = enumerate_gated(
            self.protocol,
            &self.config,
            state,
            |node| {
                if !self.config.prune_local {
                    return true;
                }
                let lh = state.local_hash(node).expect("node exists");
                let fresh = local_explored.insert(lh);
                prunes += usize::from(!fresh);
                fresh
            },
            &mut filtered,
        );
        stats.filtered_events += filtered;
        stats.local_prunes += prunes;
        events
    }

    /// The MaceMC random-walk baseline (§5.3): repeatedly walks a random
    /// path of at most `max_walk_len` events from `start`, checking
    /// properties after every step, until a stop criterion fires.
    pub fn random_walk(
        &self,
        start: &GlobalState<P>,
        seed: u64,
        max_walk_len: usize,
    ) -> SearchOutcome<P> {
        let t0 = Instant::now();
        let mut rng = SplitMix64::new(seed);
        let mut stats = SearchStats::default();
        let mut violations = Vec::new();
        let stopped;

        'outer: loop {
            let mut state = start.clone();
            let mut path: Vec<PathStep<P>> = Vec::new();
            for depth in 0..max_walk_len {
                if let Some(deadline) = self.config.deadline {
                    if t0.elapsed() >= deadline {
                        stopped = StopReason::Deadline;
                        break 'outer;
                    }
                }
                if let Some(max) = self.config.max_states {
                    if stats.states_visited >= max {
                        stopped = StopReason::StateLimit;
                        break 'outer;
                    }
                }
                // The random walk is the unpruned baseline: constant-true
                // gate, no `localExplored`.
                let mut filtered = 0usize;
                let events =
                    enumerate_gated(self.protocol, &self.config, &state, |_| true, &mut filtered);
                stats.filtered_events += filtered;
                if events.is_empty() {
                    break; // dead end; restart the walk
                }
                let mut events = events;
                let event = events.swap_remove((rng.next() as usize) % events.len());
                let step = apply_event(self.protocol, &mut state, &event);
                path.push(PathStep { event, step });
                stats.record_visit(depth + 1);
                if let Some(violation) = self.props.check(&state) {
                    stats.violations_found += 1;
                    violations.push(FoundViolation {
                        violation,
                        depth: path.len(),
                        path: path.clone(),
                    });
                    if violations.len() >= self.config.max_violations {
                        stopped = StopReason::ViolationLimit;
                        break 'outer;
                    }
                    break; // restart after a violation
                }
            }
        }
        stats.elapsed = t0.elapsed();
        stats.publish();
        SearchOutcome {
            violations,
            stats,
            stopped,
        }
    }
}

/// Runs the exhaustive search of Fig. 5 (the MaceMC baseline).
pub fn find_errors<P: Protocol>(
    protocol: &P,
    props: &PropertySet<P>,
    start: &GlobalState<P>,
    config: SearchConfig,
) -> SearchOutcome<P> {
    Searcher::new(
        protocol,
        props,
        SearchConfig {
            prune_local: false,
            ..config
        },
    )
    .run(start)
}

/// Runs consequence prediction (Fig. 8) — CrystalBall's online algorithm.
pub fn find_consequences<P: Protocol>(
    protocol: &P,
    props: &PropertySet<P>,
    start: &GlobalState<P>,
    config: SearchConfig,
) -> SearchOutcome<P> {
    Searcher::new(
        protocol,
        props,
        SearchConfig {
            prune_local: true,
            ..config
        },
    )
    .run(start)
}

/// Runs the random-walk baseline of §5.3.
pub fn random_walk<P: Protocol>(
    protocol: &P,
    props: &PropertySet<P>,
    start: &GlobalState<P>,
    config: SearchConfig,
    seed: u64,
    max_walk_len: usize,
) -> SearchOutcome<P> {
    Searcher::new(protocol, props, config).random_walk(start, seed, max_walk_len)
}

pub(crate) fn reconstruct<P: Protocol>(
    arena: &[ArenaRec<P>],
    mut rec: Option<usize>,
) -> Vec<PathStep<P>> {
    let mut path = Vec::new();
    while let Some(i) = rec {
        let r = &arena[i];
        path.push(PathStep {
            event: r.event.clone(),
            step: r.step.clone(),
        });
        rec = r.parent;
    }
    path.reverse();
    path
}

/// Rough heap footprint of a global state held on the frontier, as if it
/// shared no slot with any other state (see
/// [`SearchStats::peak_frontier_bytes`]).
pub(crate) fn approx_state_bytes<P: Protocol>(gs: &GlobalState<P>) -> usize {
    let conns = gs.nodes.values().map(|s| s.conns.len()).sum();
    approx_bytes::<P>(gs.nodes.len(), conns, gs.inflight.len())
}

/// [`approx_state_bytes`] of a state with `nodes` slots holding `conns`
/// open connections and `inflight` items in flight — all it reads, so a
/// successor that is not built yet is counted the same.
fn approx_bytes<P: Protocol>(nodes: usize, conns: usize, inflight: usize) -> usize {
    let per_node = size_of::<cb_model::NodeSlot<P::State>>() + 2 * size_of::<u64>();
    size_of::<GlobalState<P>>()
        + nodes * per_node
        + conns * 12
        + inflight * size_of::<cb_model::InFlight<P::Message>>()
}

/// Tiny deterministic PRNG (SplitMix64) so the random-walk baseline needs no
/// external dependency and replays bit-identically from a seed.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::testproto::{max_pings_property, Ping};
    use cb_model::NodeId;

    fn sys(n: u32, kick_enabled: bool) -> (Ping, GlobalState<Ping>) {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled,
        };
        let gs = GlobalState::init(&cfg, (0..n).map(NodeId));
        (cfg, gs)
    }

    fn props(limit: u32) -> PropertySet<Ping> {
        PropertySet::new().with(max_pings_property(limit))
    }

    fn quiet() -> SearchConfig {
        SearchConfig {
            explore: ExploreOptions::minimal(),
            ..SearchConfig::default()
        }
    }

    #[test]
    fn finds_violation_at_expected_depth() {
        // Node 0 is violated after 2 pings; each ping takes a Kick action
        // plus a delivery, so the shallowest violating path has 4 events.
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        let out = find_errors(&cfg, &props, &gs, quiet());
        let v = out.first().expect("violation found");
        assert_eq!(v.depth, 4);
        assert_eq!(v.violation.node, Some(NodeId(0)));
        assert_eq!(out.stopped, StopReason::ViolationLimit);
        assert!(out.stats.states_visited > 0);
        assert!(out.stats.tree_bytes > 0);
    }

    #[test]
    fn consequence_prediction_finds_same_violation() {
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        let out = find_consequences(&cfg, &props, &gs, quiet());
        let v = out.first().expect("violation found");
        assert_eq!(v.depth, 4, "CP reaches the same shallowest violation");
        assert!(out.stats.local_prunes > 0, "pruning engaged");
    }

    #[test]
    fn consequence_prediction_explores_fewer_states() {
        let (cfg, gs) = sys(4, true);
        // No violation reachable: exhaust both searches at a fixed depth.
        let props = props(u32::MAX);
        let limit = |prune| SearchConfig {
            explore: ExploreOptions::minimal(),
            prune_local: prune,
            max_depth: Some(5),
            max_states: Some(1_000_000),
            ..SearchConfig::default()
        };
        let bfs = find_errors(&cfg, &props, &gs, limit(false));
        let cp = find_consequences(&cfg, &props, &gs, limit(true));
        assert!(
            cp.stats.states_visited < bfs.stats.states_visited,
            "CP {} should visit fewer states than BFS {}",
            cp.stats.states_visited,
            bfs.stats.states_visited
        );
        assert!(cp.is_clean() && bfs.is_clean());
    }

    #[test]
    fn consequence_prediction_covers_all_depth_one_successors() {
        // "consequence prediction explores all possible transitions from the
        // initial state (because at that point localExplored is empty)" §3.2
        let (cfg, gs) = sys(3, true);
        let props = props(u32::MAX);
        let one = |prune| SearchConfig {
            explore: ExploreOptions::minimal(),
            prune_local: prune,
            max_depth: Some(1),
            ..SearchConfig::default()
        };
        let bfs = find_errors(&cfg, &props, &gs, one(false));
        let cp = find_consequences(&cfg, &props, &gs, one(true));
        assert_eq!(bfs.stats.states_enqueued, cp.stats.states_enqueued);
    }

    #[test]
    fn path_replays_to_the_violation() {
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        let out = find_errors(&cfg, &props, &gs, quiet());
        let v = out.first().unwrap();
        // Re-apply the reported path from the start state: must end in a
        // state violating the property.
        let mut state = gs.clone();
        assert!(props.check(&state).is_none());
        for step in &v.path {
            apply_event(&cfg, &mut state, &step.event);
        }
        assert!(
            props.check(&state).is_some(),
            "path reproduces the violation"
        );
    }

    #[test]
    fn depth_limit_reported() {
        let (cfg, gs) = sys(2, true);
        let props = props(u32::MAX);
        let out = find_errors(
            &cfg,
            &props,
            &gs,
            SearchConfig {
                max_depth: Some(2),
                explore: ExploreOptions::minimal(),
                ..quiet()
            },
        );
        assert_eq!(out.stopped, StopReason::DepthLimit);
        assert!(out.stats.max_depth <= 2);
    }

    #[test]
    fn state_budget_respected() {
        let (cfg, gs) = sys(4, true);
        let props = props(u32::MAX);
        let out = find_errors(
            &cfg,
            &props,
            &gs,
            SearchConfig {
                max_states: Some(10),
                explore: ExploreOptions::minimal(),
                ..SearchConfig::default()
            },
        );
        assert_eq!(out.stopped, StopReason::StateLimit);
        assert!(out.stats.states_visited <= 10);
    }

    #[test]
    fn deadline_stops_search() {
        let (cfg, gs) = sys(6, true);
        let props = props(u32::MAX);
        let out = find_errors(
            &cfg,
            &props,
            &gs,
            SearchConfig {
                deadline: Some(Duration::from_millis(0)),
                explore: ExploreOptions::minimal(),
                max_states: None,
                ..SearchConfig::default()
            },
        );
        assert_eq!(out.stopped, StopReason::Deadline);
    }

    #[test]
    fn empty_system_exhausts() {
        let (cfg, gs) = sys(2, false);
        let props = props(u32::MAX);
        let out = find_errors(&cfg, &props, &gs, quiet());
        assert_eq!(out.stopped, StopReason::Exhausted);
        assert_eq!(out.stats.states_visited, 1, "only the start state");
    }

    #[test]
    fn violation_in_start_state_is_reported_at_depth_zero() {
        let (cfg, mut gs) = sys(2, false);
        gs.slot_mut(NodeId(0)).unwrap().state.pings_seen = 100;
        let props = props(2);
        let out = find_errors(&cfg, &props, &gs, quiet());
        let v = out.first().unwrap();
        assert_eq!(v.depth, 0);
        assert!(v.path.is_empty());
    }

    #[test]
    fn filters_suppress_events_during_search() {
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        // Block every Ping delivery to node 0 from node 1 and node 2: the
        // violation becomes unreachable.
        let filters = FilterSet::from_iter([
            crate::EventFilter::Message {
                kind: "Ping",
                src: NodeId(1),
                dst: NodeId(0),
                reset_connection: false,
            },
            crate::EventFilter::Message {
                kind: "Ping",
                src: NodeId(2),
                dst: NodeId(0),
                reset_connection: false,
            },
        ]);
        // Consequence prediction + a state cap keeps this bounded: with the
        // deliveries blocked, BFS would chase ever-growing in-flight bags.
        let out = find_consequences(
            &cfg,
            &props,
            &gs,
            quiet().with_states(5_000).with_filters(filters),
        );
        assert!(
            out.is_clean(),
            "filtered events make the violation unreachable"
        );
        assert!(out.stats.filtered_events > 0);
    }

    #[test]
    fn random_walk_finds_violation_eventually() {
        let (cfg, gs) = sys(2, true);
        let props = props(1);
        let out = random_walk(&cfg, &props, &gs, quiet().with_states(50_000), 7, 20);
        assert!(!out.is_clean(), "random walk stumbles on the shallow bug");
        let v = out.first().unwrap();
        // Walk paths are checked step-by-step, so the reported path ends at
        // the first violating state.
        let mut state = gs.clone();
        for step in &v.path {
            apply_event(&cfg, &mut state, &step.event);
        }
        assert!(props.check(&state).is_some());
    }

    #[test]
    fn random_walk_is_deterministic_per_seed() {
        let (cfg, gs) = sys(2, true);
        let props = props(1);
        let a = random_walk(&cfg, &props, &gs, quiet().with_states(50_000), 7, 20);
        let b = random_walk(&cfg, &props, &gs, quiet().with_states(50_000), 7, 20);
        assert_eq!(a.stats.states_visited, b.stats.states_visited);
        assert_eq!(a.first().map(|v| v.depth), b.first().map(|v| v.depth));
    }

    #[test]
    fn bfs_and_cp_are_deterministic() {
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        let a = find_consequences(&cfg, &props, &gs, quiet());
        let b = find_consequences(&cfg, &props, &gs, quiet());
        assert_eq!(a.stats.states_visited, b.stats.states_visited);
        assert_eq!(a.stats.states_enqueued, b.stats.states_enqueued);
        assert_eq!(
            a.first().map(|v| v.scenario()),
            b.first().map(|v| v.scenario())
        );
    }

    #[test]
    fn builder_methods_compose() {
        let c = SearchConfig::default()
            .with_depth(3)
            .with_states(10)
            .with_deadline(Duration::from_secs(1))
            .with_violations(0)
            .with_explore(ExploreOptions::full());
        assert_eq!(c.max_depth, Some(3));
        assert_eq!(c.max_states, Some(10));
        assert_eq!(c.max_violations, 1, "clamped to at least one");
        assert!(c.explore.drops);
    }

    #[test]
    fn engine_dispatch_matches_direct_calls() {
        let (cfg, gs) = sys(3, true);
        let props = props(2);
        let searcher = Searcher::new(&cfg, &props, quiet());
        let seq = searcher.search(&gs, &Engine::Sequential);
        let par = searcher.search(
            &gs,
            &Engine::Parallel(ParallelConfig {
                workers: 2,
                ..ParallelConfig::default()
            }),
        );
        let walk = searcher.search(
            &gs,
            &Engine::RandomWalk {
                seed: 7,
                max_walk_len: 20,
            },
        );
        assert_eq!(
            seq.first().map(|v| v.scenario()),
            par.first().map(|v| v.scenario())
        );
        assert!(!walk.is_clean());
    }
}
