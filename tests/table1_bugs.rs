//! Integration test: every Table-1 inconsistency (plus the two injected
//! Paxos bugs) is (a) predictable by consequence prediction from a live
//! state when the bug flag is on, and (b) absent when the protocol is
//! fixed — the cross-crate backbone of the reproduction.

use crystalball_suite::mc::{find_consequences, SearchConfig, SearchOutcome};
use crystalball_suite::model::{
    apply_event, Event, ExploreOptions, GlobalState, NodeId, PropertySet, Protocol,
};
use crystalball_suite::protocols::bullet::{self, Bullet, BulletBugs};
use crystalball_suite::protocols::chord::{self, Chord, ChordBugs};
use crystalball_suite::protocols::paxos::{self, Paxos, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTree, RandTreeBugs};

fn settle<P: Protocol>(proto: &P, gs: &mut GlobalState<P>) {
    let mut n = 0;
    while !gs.inflight.is_empty() {
        apply_event(proto, gs, &Event::Deliver { index: 0 });
        n += 1;
        assert!(n < 5_000, "did not settle");
    }
}

fn search<P: Protocol>(
    proto: &P,
    props: &PropertySet<P>,
    gs: &GlobalState<P>,
    explore: ExploreOptions,
    depth: usize,
) -> SearchOutcome<P> {
    find_consequences(
        proto,
        props,
        gs,
        SearchConfig {
            max_states: Some(150_000),
            max_depth: Some(depth),
            explore,
            ..SearchConfig::default()
        },
    )
}

/// The Fig. 2 live state: n1 root with child n9 and spare capacity; n13 a
/// child of n9 with a sibling entry from departed history. Built through
/// the real join protocol plus the departure of a former root child
/// (consequence prediction starts from live states like this one — the
/// paper's own point is that the interesting history has already happened).
fn randtree_live(bugs: RandTreeBugs) -> (RandTree, GlobalState<RandTree>) {
    let proto = RandTree::new(2, vec![NodeId(1)], bugs);
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(9), NodeId(13), NodeId(21)]);
    // Joins: n1 (root), n9, n21 — root children {9, 21}; n13 is delegated
    // under n9 (the smallest root child).
    for n in [1u32, 9, 21, 13] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: randtree::Action::Join { target: NodeId(1) },
            },
        );
        settle(&proto, &mut gs);
    }
    assert!(gs
        .slot(NodeId(9))
        .unwrap()
        .state
        .children
        .contains(&NodeId(13)));
    // n21 departs with RSTs: the root frees a slot; n9 keeps the stale
    // sibling entry (no direct connection to n21, so no RST reaches it).
    apply_event(
        &proto,
        &mut gs,
        &Event::Reset {
            node: NodeId(21),
            notify: true,
        },
    );
    settle(&proto, &mut gs);
    assert_eq!(gs.slot(NodeId(1)).unwrap().state.children.len(), 1);
    (proto, gs)
}

fn randtree_found(bug: &str, depth: usize) -> Option<String> {
    let (proto, gs) = randtree_live(RandTreeBugs::only(bug));
    assert!(
        randtree::properties::all().check(&gs).is_none(),
        "live state itself is clean for {bug}"
    );
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::default(),
        depth,
    );
    out.first().map(|f| f.violation.property.clone())
}

#[test]
fn randtree_r1_update_sibling() {
    // CP explores: n13 resets silently, rejoins via n1 (root has a free
    // slot), UpdateSibling reaches n9 which still lists n13 as a child.
    assert_eq!(
        randtree_found("R1", 5).as_deref(),
        Some("ChildrenSiblingsDisjoint")
    );
}

#[test]
fn randtree_r2_join_reply() {
    // R2's live state: n5 lost its parent and reverted to Init while
    // keeping its subtree {n3}; n3 has independently re-joined the root.
    // CP explores n5's re-join: the JoinReply sibling list contains n3.
    let proto = RandTree::new(2, vec![NodeId(1)], RandTreeBugs::only("R2"));
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(3), NodeId(5)]);
    for n in [1u32, 3] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: randtree::Action::Join { target: NodeId(1) },
            },
        );
        settle(&proto, &mut gs);
    }
    {
        let s5 = &mut gs.slot_mut(NodeId(5)).unwrap().state;
        s5.children.insert(NodeId(3)); // kept subtree from before the outage
    }
    assert!(randtree::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    assert_eq!(
        out.first().map(|f| f.violation.property.as_str()),
        Some("ChildrenSiblingsDisjoint")
    );
}

#[test]
fn randtree_r3_new_root() {
    // The Fig. 9 live state: n61 root of {n65, n69}; n9 under n69 (the
    // paper reaches it after 13 steps of history with other designated
    // nodes; we install the checkpointed state, exactly as a snapshot
    // delivers it). CP explores n9's silent reset + rejoin, the root
    // handover, and the NewRoot arriving at n69 which still lists n9 as a
    // child.
    use std::collections::BTreeSet;
    let proto = RandTree::new(2, vec![NodeId(61)], RandTreeBugs::only("R3"));
    let mut gs = GlobalState::init(&proto, [NodeId(9), NodeId(61), NodeId(65), NodeId(69)]);
    {
        let s = &mut gs.slot_mut(NodeId(61)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.children = BTreeSet::from([NodeId(65), NodeId(69)]);
        s.recovery_scheduled = true;
    }
    for (n, sib) in [(65u32, 69u32), (69, 65)] {
        let s = &mut gs.slot_mut(NodeId(n)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.parent = Some(NodeId(61));
        s.siblings = BTreeSet::from([NodeId(sib)]);
        s.recovery_scheduled = true;
    }
    gs.slot_mut(NodeId(69)).unwrap().state.children = BTreeSet::from([NodeId(9)]);
    {
        let s = &mut gs.slot_mut(NodeId(9)).unwrap().state;
        s.status = randtree::Status::Joined;
        s.root = Some(NodeId(61));
        s.parent = Some(NodeId(69));
        s.recovery_scheduled = true;
    }
    assert!(randtree::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::default(),
        7,
    );
    assert_eq!(
        out.first().map(|f| f.violation.property.as_str()),
        Some("RootNotChildOrSibling")
    );
}

#[test]
fn randtree_r4_promotion_siblings() {
    assert_eq!(
        randtree_found("R4", 5).as_deref(),
        Some("RootHasNoSiblings")
    );
}

#[test]
fn randtree_r5_timer() {
    // Live state: n5 has already self-joined (with the buggy path that
    // skipped the timer); CP explores the smaller n3 joining, which makes
    // n5 relinquish the root role and gain a peer — with no timer running.
    let proto = RandTree::new(2, vec![NodeId(5)], RandTreeBugs::only("R5"));
    let mut gs = GlobalState::init(&proto, [NodeId(3), NodeId(5)]);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(5),
            action: randtree::Action::Join { target: NodeId(5) },
        },
    );
    settle(&proto, &mut gs);
    assert!(randtree::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    assert_eq!(
        out.first().map(|f| f.violation.property.as_str()),
        Some("RecoveryTimerRuns")
    );
}

#[test]
fn randtree_r6_self_sibling() {
    // Under R6 the very first root-accept already misnotifies the joiner,
    // so the clean live state is the freshly bootstrapped root; CP
    // predicts the violation for the next join.
    let proto = RandTree::new(2, vec![NodeId(1)], RandTreeBugs::only("R6"));
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(9)]);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(1),
            action: randtree::Action::Join { target: NodeId(1) },
        },
    );
    settle(&proto, &mut gs);
    assert!(randtree::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    assert_eq!(
        out.first().map(|f| f.violation.property.as_str()),
        Some("NotOwnPeer")
    );
}

#[test]
fn randtree_r7_promotion_parent() {
    // A two-node tree: CP explores the root's notifying reset; the child
    // promotes itself but keeps the dead parent pointer under R7.
    let proto = RandTree::new(2, vec![NodeId(1)], RandTreeBugs::only("R7"));
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(9)]);
    for n in [1u32, 9] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: randtree::Action::Join { target: NodeId(1) },
            },
        );
        settle(&proto, &mut gs);
    }
    assert!(randtree::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::default(),
        4,
    );
    assert_eq!(
        out.first().map(|f| f.violation.property.as_str()),
        Some("RootHasNoParent")
    );
}

#[test]
fn randtree_fixed_is_clean_at_bug_depths() {
    let (proto, gs) = randtree_live(RandTreeBugs::none());
    let out = search(
        &proto,
        &randtree::properties::all(),
        &gs,
        ExploreOptions::default(),
        5,
    );
    assert!(
        out.is_clean(),
        "fixed RandTree has no violation within depth 5: {}",
        out.first().map(|f| f.scenario()).unwrap_or_default()
    );
}

/// A live Chord ring of four nodes.
fn chord_live(bugs: ChordBugs) -> (Chord, GlobalState<Chord>) {
    let proto = Chord::new(vec![NodeId(1)], bugs);
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(5), NodeId(9), NodeId(12)]);
    for n in [1u32, 5, 9, 12] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: chord::Action::Join { target: NodeId(1) },
            },
        );
        settle(&proto, &mut gs);
    }
    for _ in 0..4 {
        for n in [1u32, 5, 9, 12] {
            apply_event(
                &proto,
                &mut gs,
                &Event::Action {
                    node: NodeId(n),
                    action: chord::Action::Stabilize,
                },
            );
            settle(&proto, &mut gs);
        }
    }
    (proto, gs)
}

#[test]
fn chord_c1_pred_self() {
    let (proto, gs) = chord_live(ChordBugs::only("C1"));
    assert!(chord::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &chord::properties::all(),
        &gs,
        ExploreOptions {
            resets: true,
            peer_errors: true,
            drops: false,
        },
        6,
    );
    let f = out.first().expect("C1 predicted");
    assert_eq!(f.violation.property, "PredSelfImpliesSuccSelf");
}

#[test]
fn chord_c2_ordering() {
    // The Fig. 11 live state: Ai-1 and Ai-2 joined Ai concurrently with
    // identical FindPredReply information (the paper's live prefix); CP
    // then discovers the stabilize continuation, exactly as in §5.2.2:
    // "In this state, consequence prediction discovers the following
    // subsequent actions."
    let proto = Chord::new(vec![NodeId(9)], ChordBugs::only("C2"));
    let mut gs = GlobalState::init(&proto, [NodeId(3), NodeId(5), NodeId(9)]);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(9),
            action: chord::Action::Join { target: NodeId(9) },
        },
    );
    for n in [5u32, 3] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: chord::Action::Join { target: NodeId(9) },
            },
        );
    }
    // Deliver the two FindPreds, the two identical replies, then the two
    // UpdatePreds with Ai-2's first.
    let deliver_where =
        |gs: &mut GlobalState<Chord>, pred: &dyn Fn(&cb_model::InFlight<chord::Msg>) -> bool| {
            let i = gs.inflight.iter().position(|m| pred(m)).expect("message");
            apply_event(&proto, gs, &Event::Deliver { index: i });
        };
    let kind = |m: &cb_model::InFlight<chord::Msg>, k: &str| matches!(&m.payload, cb_model::Payload::Msg(msg) if Chord::message_kind(msg) == k);
    deliver_where(&mut gs, &|m| kind(m, "FindPred"));
    deliver_where(&mut gs, &|m| kind(m, "FindPred"));
    deliver_where(&mut gs, &|m| kind(m, "FindPredReply"));
    deliver_where(&mut gs, &|m| kind(m, "FindPredReply"));
    deliver_where(&mut gs, &|m| m.src == NodeId(3) && kind(m, "UpdatePred"));
    deliver_where(&mut gs, &|m| m.src == NodeId(5) && kind(m, "UpdatePred"));
    assert!(chord::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &chord::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    let f = out.first().expect("C2 predicted");
    assert_eq!(f.violation.property, "NodeOrdering");
}

#[test]
fn chord_c3_empty_successors() {
    // The fragile shape is a two-node ring: one peer dying with RSTs
    // leaves the survivor's successor list empty under C3.
    let proto = Chord::new(vec![NodeId(1)], ChordBugs::only("C3"));
    let mut gs = GlobalState::init(&proto, [NodeId(1), NodeId(5)]);
    for n in [1u32, 5] {
        apply_event(
            &proto,
            &mut gs,
            &Event::Action {
                node: NodeId(n),
                action: chord::Action::Join { target: NodeId(1) },
            },
        );
        settle(&proto, &mut gs);
    }
    assert!(chord::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &chord::properties::all(),
        &gs,
        ExploreOptions::default(),
        4,
    );
    let f = out.first().expect("C3 predicted");
    assert_eq!(f.violation.property, "SuccessorsNonEmpty");
}

#[test]
fn chord_fixed_is_clean_at_bug_depths() {
    let (proto, gs) = chord_live(ChordBugs::none());
    let out = search(
        &proto,
        &chord::properties::all(),
        &gs,
        ExploreOptions::default(),
        4,
    );
    assert!(
        out.is_clean(),
        "fixed Chord has no violation within depth 4: {}",
        out.first().map(|f| f.scenario()).unwrap_or_default()
    );
}

fn bullet_line(bugs: BulletBugs) -> (Bullet, GlobalState<Bullet>) {
    let mut senders_of = std::collections::BTreeMap::new();
    senders_of.insert(NodeId(1), vec![NodeId(0)]);
    senders_of.insert(NodeId(2), vec![NodeId(1)]);
    let proto = Bullet {
        source: NodeId(0),
        num_blocks: 6,
        block_size: 1024,
        senders_of,
        diff_window: 1,
        max_diff_blocks: 2,
        request_pipeline: 2,
        diff_period: cb_model::SimDuration::from_millis(500),
        request_period: cb_model::SimDuration::from_millis(250),
        bugs,
    };
    let gs = GlobalState::init(&proto, [NodeId(0), NodeId(1), NodeId(2)]);
    (proto, gs)
}

#[test]
fn bullet_b1_shadow_cleared() {
    let (proto, gs) = bullet_line(BulletBugs::only("B1"));
    let out = search(
        &proto,
        &bullet::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    let f = out.first().expect("B1 predicted");
    assert_eq!(f.violation.property, "DiffCoverage");
}

#[test]
fn bullet_b2_retry_still_clears() {
    let (proto, gs) = bullet_line(BulletBugs::only("B2"));
    let out = search(
        &proto,
        &bullet::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    let f = out.first().expect("B2 predicted");
    assert_eq!(f.violation.property, "DiffCoverage");
}

#[test]
fn bullet_b3_duplicate_requests() {
    // Live state: n2 peers with two senders; it has already requested
    // block 0 from the source. CP explores the second sender announcing
    // the same block — the buggy handler requests it again.
    let mut senders_of = std::collections::BTreeMap::new();
    senders_of.insert(NodeId(1), vec![NodeId(0)]);
    senders_of.insert(NodeId(2), vec![NodeId(0), NodeId(1)]);
    let proto = Bullet {
        source: NodeId(0),
        num_blocks: 4,
        block_size: 1024,
        senders_of,
        diff_window: 2,
        max_diff_blocks: 2,
        request_pipeline: 2,
        diff_period: cb_model::SimDuration::from_millis(500),
        request_period: cb_model::SimDuration::from_millis(250),
        bugs: BulletBugs::only("B3"),
    };
    let mut gs = GlobalState::init(&proto, [NodeId(0), NodeId(1), NodeId(2)]);
    // Source → n2 diff; n2 eagerly requests blocks 0 and 1 (the requests
    // are still in flight — the Data has not come back yet).
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(0),
            action: bullet::Action::SendDiff { peer: NodeId(2) },
        },
    );
    let diff_idx = gs
        .inflight
        .iter()
        .position(|m| matches!(&m.payload, cb_model::Payload::Msg(bullet::Msg::Diff { .. })))
        .unwrap();
    apply_event(&proto, &mut gs, &Event::Deliver { index: diff_idx });
    assert_eq!(gs.slot(NodeId(2)).unwrap().state.outstanding.len(), 2);
    // Meanwhile n1 fetched block 0 itself, ready to announce it to n2.
    {
        let s1 = &mut gs.slot_mut(NodeId(1)).unwrap().state;
        s1.file_map.insert(0);
        s1.shadow.entry(NodeId(2)).or_default().insert(0);
    }
    assert!(bullet::properties::all().check(&gs).is_none());
    let out = search(
        &proto,
        &bullet::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        3,
    );
    let f = out.first().expect("B3 predicted");
    assert_eq!(f.violation.property, "NoDuplicateRequests");
}

#[test]
fn bullet_fixed_is_clean_at_bug_depths() {
    let (proto, gs) = bullet_line(BulletBugs::none());
    let out = search(
        &proto,
        &bullet::properties::all(),
        &gs,
        ExploreOptions::minimal(),
        4,
    );
    assert!(out.is_clean());
}

#[test]
fn paxos_p1_two_values() {
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Paxos::new(members.clone(), PaxosBugs::only("P1"));
    // Live state: round 1 completed on {A, B} while C was partitioned.
    let mut gs = GlobalState::init(&proto, members);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(0),
            action: paxos::Action::Propose,
        },
    );
    // Drop everything touching C, deliver the rest.
    loop {
        if let Some(i) = gs
            .inflight
            .iter()
            .position(|m| m.src == NodeId(2) || m.dst == NodeId(2))
        {
            apply_event(&proto, &mut gs, &Event::Drop { index: i });
            continue;
        }
        if gs.inflight.is_empty() {
            break;
        }
        apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
    }
    assert!(gs.slot(NodeId(0)).unwrap().state.chosen.contains(&0));
    assert!(paxos::properties::all().check(&gs).is_none());
    // From here, consequence prediction explores B proposing round 2 and
    // predicts the double choice.
    let out = find_consequences(
        &proto,
        &paxos::properties::all(),
        &gs,
        SearchConfig {
            max_states: Some(200_000),
            max_depth: Some(12),
            explore: ExploreOptions::minimal(),
            ..SearchConfig::default()
        },
    );
    let f = out.first().expect("P1 predicted");
    assert_eq!(f.violation.property, "AtMostOneChosen");
}

#[test]
fn paxos_fixed_is_safe_in_same_search() {
    let members: Vec<NodeId> = (0..3).map(NodeId).collect();
    let proto = Paxos::new(members.clone(), PaxosBugs::none());
    let mut gs = GlobalState::init(&proto, members);
    apply_event(
        &proto,
        &mut gs,
        &Event::Action {
            node: NodeId(0),
            action: paxos::Action::Propose,
        },
    );
    loop {
        if let Some(i) = gs
            .inflight
            .iter()
            .position(|m| m.src == NodeId(2) || m.dst == NodeId(2))
        {
            apply_event(&proto, &mut gs, &Event::Drop { index: i });
            continue;
        }
        if gs.inflight.is_empty() {
            break;
        }
        apply_event(&proto, &mut gs, &Event::Deliver { index: 0 });
    }
    let out = find_consequences(
        &proto,
        &paxos::properties::all(),
        &gs,
        SearchConfig {
            max_states: Some(90_000),
            max_depth: Some(12),
            explore: ExploreOptions::minimal(),
            ..SearchConfig::default()
        },
    );
    assert!(
        out.is_clean(),
        "correct Paxos chooses one value in every explored future"
    );
}
