//! Integration tests on the checker invariants the paper's argument rests
//! on (§3.2 "Exploring Consequence Chains"), checked over a grid of system
//! sizes, depth bounds, and bug configurations.
//!
//! (These were property-based tests; with no registry access for a
//! proptest dependency they enumerate their input grids exhaustively
//! instead, which also makes failures reproducible without a shrinker.)

use crystalball_suite::mc::{find_consequences, find_errors, SearchConfig};
use crystalball_suite::model::testproto::{max_pings_property, Ping};
use crystalball_suite::model::{
    apply_event, enumerate_events, enumerate_events_gated, Event, ExploreOptions, GlobalState,
    NodeId, PropertySet, Protocol,
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
