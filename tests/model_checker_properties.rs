//! Integration tests on the checker invariants the paper's argument rests
//! on (§3.2 "Exploring Consequence Chains"), checked over a grid of system
//! sizes, depth bounds, and bug configurations.
//!
//! (These were property-based tests; with no registry access for a
//! proptest dependency they enumerate their input grids exhaustively
//! instead, which also makes failures reproducible without a shrinker.)

use std::collections::{HashSet, VecDeque};
use std::mem::size_of;
use std::sync::{Arc, Mutex};

use crystalball_suite::mc::{
    find_consequences, find_errors, Engine, ParallelConfig, SearchConfig, SearchOutcome, Searcher,
};
use crystalball_suite::model::hashing::combine;
use crystalball_suite::model::testproto::{max_pings_property, Ping};
use crystalball_suite::model::{
    apply_event, enumerate_events, enumerate_events_gated, Event, ExploreOptions, GlobalState,
    InFlight, NodeId, NodeSlot, Property, PropertySet, Protocol, TraceStep, Violation,
};
use crystalball_suite::protocols::chord::ChordBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::{self, RandTree, RandTreeBugs};

fn ping_system(n: u32) -> (Ping, GlobalState<Ping>) {
    let cfg = Ping {
        kick_target: NodeId(0),
        kick_enabled: true,
    };
    let gs = GlobalState::init(&cfg, (0..n).map(NodeId));
    (cfg, gs)
}

/// Consequence prediction never *misses* a violation that exhaustive
/// search finds at depth ≤ 2: "consequence prediction explores all
/// possible transitions from the initial state", and depth-2 paths always
/// start from fresh local states.
#[test]
fn cp_finds_every_shallow_violation() {
    for nodes in 2u32..5 {
        for limit in 1u32..3 {
            let (cfg, gs) = ping_system(nodes);
            let props = PropertySet::new().with(max_pings_property(limit));
            let mk = || SearchConfig {
                explore: ExploreOptions::minimal(),
                max_depth: Some(2),
                max_states: Some(200_000),
                ..SearchConfig::default()
            };
            let bfs = find_errors(&cfg, &props, &gs, mk());
            let cp = find_consequences(&cfg, &props, &gs, mk());
            assert_eq!(bfs.is_clean(), cp.is_clean(), "nodes={nodes} limit={limit}");
            if let (Some(b), Some(c)) = (bfs.first(), cp.first()) {
                assert_eq!(
                    b.depth, c.depth,
                    "same shallowest depth (nodes={nodes} limit={limit})"
                );
            }
        }
    }
}

/// Consequence prediction visits a subset of BFS's budget: never more
/// states at the same depth bound.
#[test]
fn cp_never_explores_more_than_bfs() {
    for nodes in 2u32..5 {
        for depth in 1usize..4 {
            let (cfg, gs) = ping_system(nodes);
            let props = PropertySet::new().with(max_pings_property(u32::MAX));
            let mk = |prune| SearchConfig {
                explore: ExploreOptions::minimal(),
                prune_local: prune,
                max_depth: Some(depth),
                max_states: Some(500_000),
                ..SearchConfig::default()
            };
            let bfs = find_errors(&cfg, &props, &gs, mk(false));
            let cp = find_consequences(&cfg, &props, &gs, mk(true));
            assert!(
                cp.stats.states_visited <= bfs.stats.states_visited,
                "nodes={nodes} depth={depth}: CP {} > BFS {}",
                cp.stats.states_visited,
                bfs.stats.states_visited
            );
        }
    }
}

/// Every reported path replays from the start state to a state that
/// violates the property — predicted violations are real (unlike
/// overapproximating analyses, §6: "bugs identified by consequence search
/// are guaranteed to be real with respect to the model").
#[test]
fn reported_paths_are_sound() {
    for bug in RandTreeBugs::NAMES {
        let proto = RandTree::new(2, vec![NodeId(1)], RandTreeBugs::only(bug));
        let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(5), NodeId(9)]);
        for n in [1u32, 5, 9] {
            apply_event(
                &proto,
                &mut gs,
                &Event::Action {
                    node: NodeId(n),
                    action: randtree::Action::Join { target: NodeId(1) },
                },
            );
            let mut k = 0;
            while !gs.inflight.is_empty() && k < 500 {
                apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
                k += 1;
            }
        }
        let props = randtree::properties::all();
        if props.check(&gs).is_some() {
            // The bug manifests during setup; nothing to predict from here.
            continue;
        }
        let out = find_consequences(
            &proto,
            &props,
            &gs,
            SearchConfig {
                max_states: Some(60_000),
                max_depth: Some(6),
                ..SearchConfig::default()
            },
        );
        if let Some(found) = out.first() {
            let mut replay = gs.clone();
            for step in &found.path {
                apply_event(&proto, &mut replay, &step.event);
            }
            assert!(
                props.check(&replay).is_some(),
                "path must reproduce the violation for bug {bug}"
            );
        }
    }
}

/// Event application preserves model sanity: every enumerated event applies
/// without panicking, node count is invariant, and hashing is pure — over
/// seeded pseudo-random walks through the full event space.
#[test]
fn random_walks_keep_the_model_sane() {
    for seed in 0u64..24 {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (cfg, mut gs) = ping_system(3);
        let nodes_before = gs.node_count();
        for _ in 0..40 {
            let evs = enumerate_events(&cfg, &gs, &ExploreOptions::full());
            if evs.is_empty() {
                break;
            }
            let ev = evs[next() as usize % evs.len()].clone();
            apply_event(&cfg, &mut gs, &ev);
            assert_eq!(gs.node_count(), nodes_before, "seed {seed}");
            assert_eq!(
                gs.state_hash(),
                gs.state_hash(),
                "hashing stays pure (seed {seed})"
            );
        }
    }
}

/// The canonical event order has one definition: `enumerate_events` is
/// the gated enumerator under an always-true gate and keep test, and a
/// real gate or keep test only ever *removes* events from that order —
/// a gated node loses its whole block (deliveries are never gated), a
/// rejected event just itself.
fn assert_one_event_order<P: Protocol>(proto: &P, gs: &GlobalState<P>) {
    // `Event<P>` is only `PartialEq` when the config type `P` is; compare
    // the rendered events instead.
    fn render<'a, P: Protocol>(evs: impl IntoIterator<Item = &'a Event<P>>) -> Vec<String> {
        evs.into_iter().map(|e| format!("{e:?}")).collect()
    }
    for opts in [
        ExploreOptions::minimal(),
        ExploreOptions::default(),
        ExploreOptions::full(),
    ] {
        let all = enumerate_events(proto, gs, &opts);
        assert!(
            !all.is_empty(),
            "{}: scenario state has events",
            proto.name()
        );
        assert_eq!(
            render(&all),
            render(&enumerate_events_gated(
                proto,
                gs,
                &opts,
                |_| true,
                |_| true
            )),
            "{}: ungated call is the plain enumeration",
            proto.name()
        );
        for blocked in gs.nodes.keys().copied() {
            let mut asked = Vec::new();
            let gated = enumerate_events_gated(
                proto,
                gs,
                &opts,
                |n| {
                    asked.push(n);
                    n != blocked
                },
                |_| true,
            );
            let expect = all.iter().filter(|e| e.local_node() != Some(blocked));
            assert_eq!(
                render(&gated),
                render(expect),
                "{}: gate on {blocked}",
                proto.name()
            );
            let ids: Vec<NodeId> = gs.nodes.keys().copied().collect();
            assert_eq!(asked, ids, "gate asked once per node, in id order");
        }
        let mut flip = false;
        let every_other = enumerate_events_gated(
            proto,
            gs,
            &opts,
            |_| true,
            |_| {
                flip = !flip;
                flip
            },
        );
        assert_eq!(
            render(&every_other),
            render(all.iter().step_by(2)),
            "{}: keep test",
            proto.name()
        );
    }
}

#[test]
fn event_order_is_defined_once_on_all_four_protocols() {
    use cb_bench::scenarios;
    let (p, gs) = scenarios::randtree_fig2(RandTreeBugs::as_shipped());
    assert_one_event_order(&p, &gs);
    let (p, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::as_shipped());
    assert_one_event_order(&p, &gs);
    let (p, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
    assert_one_event_order(&p, &gs);
    let (p, gs) = scenarios::bullet_b3_live();
    assert_one_event_order(&p, &gs);
}

/// What a search is compared on: the counters every engine must agree on,
/// the shallowest violating path, and the states it visited.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    states_visited: usize,
    states_enqueued: usize,
    duplicates_hit: usize,
    local_prunes: usize,
    per_depth: Vec<usize>,
    shallowest: Option<Vec<String>>,
    /// [`visit_digest`] of every dequeued state, in dequeue order.
    visited: Vec<u64>,
    peak_frontier_bytes: usize,
}

impl Fingerprint {
    /// What the parallel engine is held to: it checks a level's states on
    /// several threads at once, so `visited` is compared as one multiset
    /// per BFS level, and it counts its frontier a level at a time, so
    /// `peak_frontier_bytes` is left out. Its property check also runs
    /// ahead of a violation over the rest of that level's budget, so the
    /// last level it recorded may hold more than was visited: `visited`
    /// keeps only the levels before it, and `last_level` the sorted rest.
    fn by_level(mut self) -> (Fingerprint, Vec<u64>) {
        let mut rest = &self.visited[..];
        let mut levels = Vec::new();
        for &n in &self.per_depth[..self.per_depth.len().saturating_sub(1)] {
            let (level, tail) = rest.split_at(n);
            let mut level = level.to_vec();
            level.sort_unstable();
            levels.extend(level);
            rest = tail;
        }
        let mut last_level = rest.to_vec();
        last_level.sort_unstable();
        self.visited = levels;
        self.peak_frontier_bytes = 0;
        (self, last_level)
    }
}

/// A visited state as the search must reproduce it: its `state_hash`
/// and its in-flight `Vec` order, which `Event::Deliver { index }` reads.
fn visit_digest<P: Protocol>(gs: &GlobalState<P>) -> u64 {
    gs.inflight
        .iter()
        .fold(gs.state_hash(), |h, item| combine(h, item.stable_hash()))
}

/// The protocol's properties behind an observer that records the
/// [`visit_digest`] of every state the search checks — that is, of every
/// state it dequeues.
struct Observed<P: Protocol> {
    props: PropertySet<P>,
    visited: Arc<Mutex<Vec<u64>>>,
}

impl<P: Protocol> Property<P> for Observed<P> {
    fn name(&self) -> &str {
        "observed"
    }

    fn check(&self, gs: &GlobalState<P>) -> Option<Violation> {
        self.visited.lock().unwrap().push(visit_digest(gs));
        self.props.check(gs)
    }
}

/// `SearchStats::peak_frontier_bytes`' per-state figure, written out: a
/// state counted at its full, unshared size.
fn approx_state_bytes<P: Protocol>(gs: &GlobalState<P>) -> usize {
    let per_node = size_of::<NodeSlot<P::State>>() + 2 * size_of::<u64>();
    let conns: usize = gs.nodes.values().map(|s| s.conns.len() * 12).sum();
    size_of::<GlobalState<P>>()
        + gs.nodes.len() * per_node
        + conns
        + gs.inflight.len() * size_of::<InFlight<P::Message>>()
}

fn render_path<P: Protocol>(path: impl IntoIterator<Item = (Event<P>, TraceStep)>) -> Vec<String> {
    path.into_iter()
        .map(|(event, step)| format!("{event:?} -> {step}"))
        .collect()
}

fn fingerprint<P: Protocol>(out: &SearchOutcome<P>, visited: Vec<u64>) -> Fingerprint {
    Fingerprint {
        states_visited: out.stats.states_visited,
        states_enqueued: out.stats.states_enqueued,
        duplicates_hit: out.stats.duplicates_hit,
        local_prunes: out.stats.local_prunes,
        per_depth: out.stats.per_depth.clone(),
        shallowest: out
            .first()
            .map(|found| render_path(found.path.iter().map(|s| (s.event.clone(), s.step.clone())))),
        visited,
        peak_frontier_bytes: out.stats.peak_frontier_bytes,
    }
}

/// Fig. 5 / Fig. 8 written out with plain `apply_event` and a `HashSet`,
/// every successor built and hashed before the explored set is asked: the
/// engines have no switch that turns their transition memo (or its
/// hash-before-build probe) off, so this loop is what they are held to.
/// Stops at the first violation or once `budget` states were visited.
fn reference_bfs<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    start: &GlobalState<P>,
    explore: ExploreOptions,
    prune_local: bool,
    budget: usize,
) -> Fingerprint {
    let mut fp = Fingerprint {
        states_visited: 0,
        states_enqueued: 1,
        duplicates_hit: 0,
        local_prunes: 0,
        per_depth: Vec::new(),
        shallowest: None,
        visited: Vec::new(),
        peak_frontier_bytes: approx_state_bytes(start),
    };
    let mut explored = HashSet::from([start.state_hash()]);
    let mut local_explored = HashSet::new();
    let mut arena: Vec<(Option<usize>, Event<P>, TraceStep)> = Vec::new();
    let mut frontier_bytes = fp.peak_frontier_bytes;
    let mut frontier = VecDeque::from([(start.clone(), None, 0usize)]);
    while let Some((state, rec, depth)) = frontier.pop_front() {
        frontier_bytes -= approx_state_bytes(&state);
        if fp.states_visited >= budget {
            break;
        }
        fp.states_visited += 1;
        fp.per_depth.resize(fp.per_depth.len().max(depth + 1), 0);
        fp.per_depth[depth] += 1;
        fp.visited.push(visit_digest(&state));
        if props.check(&state).is_some() {
            let mut path = Vec::new();
            let mut at: Option<usize> = rec;
            while let Some(i) = at {
                let (parent, event, step) = &arena[i];
                path.push((event.clone(), step.clone()));
                at = *parent;
            }
            fp.shallowest = Some(render_path(path.into_iter().rev()));
            break;
        }
        let gate = |node| {
            let fresh = !prune_local || local_explored.insert(state.local_hash(node).unwrap());
            fp.local_prunes += usize::from(!fresh);
            fresh
        };
        for event in enumerate_events_gated(proto, &state, &explore, gate, |_| true) {
            let mut next = state.clone();
            let step = apply_event(proto, &mut next, &event);
            if !explored.insert(next.state_hash()) {
                fp.duplicates_hit += 1;
                continue;
            }
            arena.push((rec, event, step));
            frontier_bytes += approx_state_bytes(&next);
            fp.peak_frontier_bytes = fp.peak_frontier_bytes.max(frontier_bytes);
            frontier.push_back((next, Some(arena.len() - 1), depth + 1));
            fp.states_enqueued += 1;
        }
    }
    fp
}

/// The engines apply every event through a per-search transition memo
/// and build a memo hit only once it survives the explored set; the
/// search they run must still be the reference search, count for count,
/// path for path and visited state for visited state.
fn assert_engines_run_the_reference_search<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    start: &GlobalState<P>,
) {
    const BUDGET: usize = 700;
    let visited = Arc::new(Mutex::new(Vec::new()));
    let observed = PropertySet::new().with(Observed {
        props: props.clone(),
        visited: Arc::clone(&visited),
    });
    let take_visited = || std::mem::take(&mut *visited.lock().unwrap());
    for prune_local in [true, false] {
        for explore in [ExploreOptions::default(), ExploreOptions::full()] {
            let what = format!("{} prune_local={prune_local} {explore:?}", proto.name());
            let reference = reference_bfs(proto, props, start, explore, prune_local, BUDGET);
            let searcher = Searcher::new(
                proto,
                &observed,
                SearchConfig {
                    max_depth: None,
                    max_states: Some(BUDGET),
                    explore,
                    prune_local,
                    ..SearchConfig::default()
                },
            );
            let seq = searcher.run(start);
            assert_eq!(
                fingerprint(&seq, take_visited()),
                reference,
                "{what}: Searcher::run"
            );
            // A search that ran its budget out re-applied transitions.
            let ran_long = reference.states_visited == BUDGET;
            assert!(!ran_long || seq.stats.memo_hits > 0, "{what}: memo hits");
            let par_out = searcher.search(
                start,
                &Engine::Parallel(ParallelConfig {
                    workers: 2,
                    merge_shards: 0,
                    compact_explored: false,
                    explored_spill_bytes: None,
                }),
            );
            let (par, par_last) = fingerprint(&par_out, take_visited()).by_level();
            let (expect, expect_last) = reference.by_level();
            assert_eq!(par, expect, "{what}: 2 workers");
            if expect.shallowest.is_none() {
                assert_eq!(par_last, expect_last, "{what}: 2 workers, last level");
            } else {
                // Checked ahead of the violation: a superset, as a multiset.
                let mut checked = par_last;
                for digest in &expect_last {
                    let at = checked
                        .binary_search(digest)
                        .unwrap_or_else(|_| panic!("{what}: 2 workers did not visit {digest:#x}"));
                    checked.remove(at);
                }
            }
            assert!(
                !ran_long || par_out.stats.memo_hits > 0,
                "{what}: range memo hits"
            );
        }
    }
}

#[test]
fn engines_run_the_unmemoized_reference_search_on_all_four_protocols() {
    use cb_bench::scenarios;
    use crystalball_suite::protocols::{bullet, chord, paxos};
    // Fig. 2 with the bug armed (a shallow violation: the paths must
    // agree) and corrected (the budget runs out: the counters must).
    for bugs in [RandTreeBugs::as_shipped(), RandTreeBugs::none()] {
        let (p, gs) = scenarios::randtree_fig2(bugs);
        assert_engines_run_the_reference_search(&p, &randtree::properties::all(), &gs);
    }
    let (p, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::as_shipped());
    assert_engines_run_the_reference_search(&p, &chord::properties::all(), &gs);
    let (p, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
    assert_engines_run_the_reference_search(&p, &paxos::properties::all(), &gs);
    let (p, gs) = scenarios::bullet_b3_live();
    assert_engines_run_the_reference_search(&p, &bullet::properties::all(), &gs);
}
