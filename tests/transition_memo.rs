//! `TransitionMemo` must be invisible: a successor served from the table is
//! the successor `apply_event` builds, bit for bit — node slots, in-flight
//! bag *in `Vec` order*, parked items in order, trace step, state hash.
//!
//! Walks cover Ping and all four protocols under `ExploreOptions::full()`;
//! the targeted cases are the ones the key's view digest exists for: a
//! transition that reads, outside its own slot, whether a node is present
//! and which incarnation it is in.
//!
//! Debug builds re-derive every hit inside the memo and panic on a
//! difference; the comparisons here are what is left of that check in
//! `--release`, where CI runs this suite a second time.

use cb_bench::scenarios;
use crystalball_suite::model::testproto::{Ping, PingAction, PingMsg};
use crystalball_suite::model::{
    apply_event, enumerate_events, Event, ExploreOptions, GlobalState, NodeId, Outbox, Protocol,
    SharedSlot, TraceStep, TransitionMemo,
};
use crystalball_suite::protocols::chord::ChordBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::RandTreeBugs;

struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

/// The node whose handler `event` runs, if it runs one.
fn acting_node<P: Protocol>(gs: &GlobalState<P>, event: &Event<P>) -> Option<NodeId> {
    match event {
        Event::Deliver { index } => Some(gs.inflight[*index].dst),
        Event::Drop { .. } => None,
        Event::Action { node, .. } | Event::Reset { node, .. } | Event::PeerError { node, .. } => {
            Some(*node)
        }
    }
}

/// How one event went through the memo.
#[derive(Debug, PartialEq, Eq)]
enum Served {
    Hit,
    Miss,
    Unkeyed,
}

/// Applies `event` to `parent` both ways — through `memo` and with plain
/// `apply_event` — and asserts the two successors are the same state.
/// Returns the memo's successor and how it was served.
fn both_ways<P: Protocol>(
    proto: &P,
    memo: &mut TransitionMemo<'_, P>,
    parent: &GlobalState<P>,
    event: &Event<P>,
    what: &str,
) -> (GlobalState<P>, TraceStep, Served) {
    let (hits, misses) = (memo.hits(), memo.misses());
    let (next, step) = memo.expand(parent).successor(event);
    let served = match (memo.hits() - hits, memo.misses() - misses) {
        (1, 0) => Served::Hit,
        (0, 1) => Served::Miss,
        (0, 0) => Served::Unkeyed,
        other => panic!("{what}: one successor counted as {other:?}"),
    };

    let mut plain = parent.clone();
    let plain_step = apply_event(proto, &mut plain, event);
    assert_eq!(step, plain_step, "{what}: trace step");
    assert_eq!(next.nodes.len(), plain.nodes.len(), "{what}: node count");
    for ((id, slot), (plain_id, plain_slot)) in next.nodes.iter().zip(&plain.nodes) {
        assert_eq!(id, plain_id, "{what}: node ids");
        assert!(slot == plain_slot, "{what}: slot of {id}");
    }
    assert_eq!(next.inflight, plain.inflight, "{what}: in-flight, in order");
    assert_eq!(next.parked, plain.parked, "{what}: parked, in order");
    assert_eq!(next.state_hash(), plain.state_hash(), "{what}: state hash");
    for &id in plain.nodes.keys() {
        assert_eq!(next.local_hash(id), plain.local_hash(id), "{what}: {id}");
    }
    (next, step, served)
}

/// One seeded walk with one memo: at every state *every* enabled event is
/// applied both ways, then a random one is taken. A hit must hand out the
/// very slot allocation some earlier miss produced.
fn walk_both_ways<P: Protocol>(proto: &P, start: &GlobalState<P>, seed: u64) -> (usize, usize) {
    let mut rng = XorShift::new(seed);
    let mut memo = TransitionMemo::new(proto);
    let mut produced: Vec<SharedSlot<P::State>> = Vec::new();
    let mut state = start.clone();
    for step in 0..50 {
        let events = enumerate_events(proto, &state, &ExploreOptions::full());
        if events.is_empty() {
            break;
        }
        for event in &events {
            let what = format!("{} seed {seed} step {step} {event:?}", proto.name());
            let (next, _, served) = both_ways(proto, &mut memo, &state, event, &what);
            let Some(node) = acting_node(&state, event) else {
                assert_eq!(served, Served::Unkeyed, "{what}");
                continue;
            };
            let Some(slot) = next.nodes.get(&node) else {
                assert_eq!(served, Served::Unkeyed, "{what}: absent node");
                continue;
            };
            match served {
                Served::Miss => produced.push(slot.clone()),
                Served::Hit => assert!(
                    produced.iter().any(|first| first.ptr_eq(slot)),
                    "{what}: a hit shares its first producer's slot"
                ),
                Served::Unkeyed => panic!("{what}: a present acting node is keyed"),
            }
        }
        let event = &events[rng.below(events.len())];
        apply_event(proto, &mut state, event);
    }
    (memo.hits(), memo.misses())
}

/// Runs `f` on Ping and on the canonical live state of each protocol.
macro_rules! on_every_protocol {
    ($f:ident ( $($arg:expr),* )) => {{
        let ping = Ping { kick_target: NodeId(0), kick_enabled: true };
        let gs = GlobalState::init(&ping, (0..4).map(NodeId));
        $f(&ping, &gs, $($arg),*);
        let (p, gs) = scenarios::randtree_fig2(RandTreeBugs::as_shipped());
        $f(&p, &gs, $($arg),*);
        let (p, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::as_shipped());
        $f(&p, &gs, $($arg),*);
        let (p, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
        $f(&p, &gs, $($arg),*);
        let (p, gs) = scenarios::bullet_b3_live();
        $f(&p, &gs, $($arg),*);
    }};
}

#[test]
fn memo_equals_apply_event_on_every_enabled_event_along_seeded_walks() {
    fn walk<P: Protocol>(proto: &P, start: &GlobalState<P>, seed: u64) {
        let (hits, misses) = walk_both_ways(proto, start, seed);
        assert!(
            hits > 0,
            "{} seed {seed}: a walk re-applies transitions ({hits} hits, {misses} misses)",
            proto.name()
        );
    }
    for seed in 0..4 {
        on_every_protocol!(walk(seed));
    }
}

fn ping() -> Ping {
    Ping {
        kick_target: NodeId(0),
        kick_enabled: true,
    }
}

fn kick(node: u32) -> Event<Ping> {
    Event::Action {
        node: NodeId(node),
        action: PingAction::Kick,
    }
}

fn reset(node: u32, notify: bool) -> Event<Ping> {
    Event::Reset {
        node: NodeId(node),
        notify,
    }
}

/// A first send connects lazily and stamps the item with the destination's
/// *current* incarnation — read from a slot that is not the sender's. Two
/// states that differ only there must not share an entry.
#[test]
fn a_first_send_is_stamped_with_the_peers_incarnation_of_its_own_state() {
    let proto = ping();
    let young: GlobalState<Ping> = GlobalState::init(&proto, (0..3).map(NodeId));
    let mut reborn = young.clone();
    apply_event(&proto, &mut reborn, &reset(0, false));
    assert_eq!(
        young.local_hash(NodeId(1)),
        reborn.local_hash(NodeId(1)),
        "the sender's slot is the same in both"
    );

    let mut memo = TransitionMemo::new(&proto);
    let (next, _, served) = both_ways(&proto, &mut memo, &young, &kick(1), "young");
    assert_eq!(served, Served::Miss);
    assert_eq!(next.inflight[0].dst_inc, 0);
    let (next, _, served) = both_ways(&proto, &mut memo, &reborn, &kick(1), "reborn");
    assert_eq!(served, Served::Miss, "another view, another entry");
    assert_eq!(next.inflight[0].dst_inc, 1);
    // Each state again: now both are served from the table, each its own.
    let (next, _, served) = both_ways(&proto, &mut memo, &young, &kick(1), "young again");
    assert_eq!((served, next.inflight[0].dst_inc), (Served::Hit, 0));
    let (next, _, served) = both_ways(&proto, &mut memo, &reborn, &kick(1), "reborn again");
    assert_eq!((served, next.inflight[0].dst_inc), (Served::Hit, 1));
}

/// The same send from a partial snapshot that lacks the destination is
/// parked on the dummy node (unhashed) instead of queued.
#[test]
fn a_send_to_a_node_absent_from_a_partial_snapshot_is_parked() {
    let proto = ping();
    let full: GlobalState<Ping> = GlobalState::init(&proto, (0..3).map(NodeId));
    let partial: GlobalState<Ping> =
        GlobalState::from_slots(full.nodes.iter().skip(1).map(|(id, s)| (*id, s.clone())));
    assert!(partial.slot(NodeId(0)).is_none());

    let mut memo = TransitionMemo::new(&proto);
    let (next, _, _) = both_ways(&proto, &mut memo, &full, &kick(1), "full");
    assert_eq!((next.inflight.len(), next.parked.len()), (1, 0));
    for round in 0..2 {
        let (next, _, served) = both_ways(&proto, &mut memo, &partial, &kick(1), "partial");
        assert_eq!((next.inflight.len(), next.parked.len()), (0, 1));
        assert_eq!(served == Served::Hit, round == 1);
    }

    // Delivering to an absent node parks the item and is never keyed.
    let mut orphan = partial.clone();
    let mut out = Outbox::new();
    out.send(NodeId(2), PingMsg::Ping);
    orphan.apply_outbox(NodeId(1), out);
    orphan.nodes.remove(&NodeId(2));
    let deliver = Event::Deliver { index: 0 };
    let (next, step, served) = both_ways(&proto, &mut memo, &orphan, &deliver, "orphan");
    assert_eq!((step, served), (TraceStep::Stale, Served::Unkeyed));
    assert_eq!((next.inflight.len(), next.parked.len()), (0, 1));
}

/// Bounces and stale notices run no handler and write no slot; their
/// entries hold the parent's own slot handle and queue (or not) an RST.
#[test]
fn bounces_and_stale_notices_are_served_like_everything_else() {
    let proto = ping();
    let mut gs: GlobalState<Ping> = GlobalState::init(&proto, (0..3).map(NodeId));
    apply_event(&proto, &mut gs, &kick(1));
    apply_event(&proto, &mut gs, &reset(0, false));
    // The ping to n0's previous life bounces as an RST to n1 ...
    let deliver = Event::Deliver { index: 0 };
    let mut memo = TransitionMemo::new(&proto);
    for round in 0..2 {
        let (next, step, served) = both_ways(&proto, &mut memo, &gs, &deliver, "bounce");
        assert!(matches!(step, TraceStep::Bounced { .. }));
        assert_eq!(served == Served::Hit, round == 1);
        assert!(next.inflight[0].payload.is_error());
        assert!(next.nodes[&NodeId(0)].ptr_eq(&gs.nodes[&NodeId(0)]));
    }
    // ... which is stale by the time it arrives if n1 has reset as well.
    apply_event(&proto, &mut gs, &deliver);
    apply_event(&proto, &mut gs, &reset(1, false));
    for round in 0..2 {
        let (next, step, served) = both_ways(&proto, &mut memo, &gs, &deliver, "stale");
        assert_eq!(step, TraceStep::Stale);
        assert_eq!(served == Served::Hit, round == 1);
        assert!(next.inflight.is_empty());
    }
}

/// A notifying reset queues one RST per open connection, in connection
/// order — none when the node has no connection.
#[test]
fn notifying_resets_queue_one_rst_per_open_connection() {
    let proto = ping();
    let lonely: GlobalState<Ping> = GlobalState::init(&proto, (0..3).map(NodeId));
    let mut connected = lonely.clone();
    // n0 accepts from n1 and n2: two open connections at n0.
    for node in [1, 2] {
        apply_event(&proto, &mut connected, &kick(node));
        let index = connected.inflight.len() - 1;
        apply_event(&proto, &mut connected, &Event::Deliver { index });
    }
    assert_eq!(connected.slot(NodeId(0)).unwrap().conns.len(), 2);
    let before = connected.inflight.len();

    let mut memo = TransitionMemo::new(&proto);
    for round in 0..2 {
        let (next, _, served) = both_ways(&proto, &mut memo, &lonely, &reset(0, true), "lonely");
        assert_eq!(served == Served::Hit, round == 1);
        assert!(next.inflight.is_empty());
        let (next, _, served) =
            both_ways(&proto, &mut memo, &connected, &reset(0, true), "connected");
        assert_eq!(served == Served::Hit, round == 1);
        let rsts: Vec<NodeId> = next.inflight[before..].iter().map(|m| m.dst).collect();
        assert_eq!(rsts, [NodeId(1), NodeId(2)]);
    }
}
