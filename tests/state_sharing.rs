//! `GlobalState` shares node slots between a state and its clones and
//! memoizes their hashes. Two things must hold for that to be invisible:
//!
//! * **hashes are frozen** — `state_hash()`/`local_hash()` return exactly
//!   what the from-scratch fold (kept here as the reference) returns, no
//!   matter which mix of clones, writes, rebuilds and codec round trips
//!   produced the state, and a write to a child never reaches its parent;
//! * **sharing is real and thread-safe** — an event unshares exactly the
//!   one slot its handler writes (none when no handler runs), and states
//!   sharing slots can be hashed from several threads at once.
//!
//! The same walks hold `Expansion::hash_of` — a successor's hash
//! folded from its parent without building it — to the from-scratch fold
//! of the successor it stands for.
//!
//! Walks cover Ping and all four protocols under `ExploreOptions::full()`
//! (resets, drops, peer errors, bounces).

use std::collections::BTreeMap;
use std::sync::Barrier;

use cb_bench::scenarios;
use crystalball_suite::model::hashing::{combine, combine_unordered};
use crystalball_suite::model::testproto::{Ping, PingAction};
use crystalball_suite::model::{
    apply_event, enumerate_events, stable_hash, Decode, Encode, Event, ExploreOptions, GlobalState,
    InFlight, NodeId, NodeSlot, Protocol, TraceStep, TransitionMemo,
};
use crystalball_suite::protocols::chord::ChordBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::RandTreeBugs;
use crystalball_suite::snapshot::{DeltaDecoder, DeltaEncoder, StateDelta};

/// The state hash as the deep-copy representation computed it: every slot
/// and every in-flight item hashed from scratch.
fn reference_state_hash<P: Protocol>(gs: &GlobalState<P>) -> u64 {
    let mut h = 0u64;
    for (id, slot) in &gs.nodes {
        let slot: &NodeSlot<P::State> = slot;
        h = combine(h, stable_hash(&(id, slot)));
    }
    let bag = combine_unordered(gs.inflight.iter().map(|queued| {
        let item: &InFlight<P::Message> = queued;
        stable_hash(item)
    }));
    combine(h, bag)
}

fn reference_local_hash<P: Protocol>(gs: &GlobalState<P>, node: NodeId) -> Option<u64> {
    gs.slot(node).map(|slot| stable_hash(&(node, slot)))
}

fn assert_hashes_match_reference<P: Protocol>(gs: &GlobalState<P>, what: &str) {
    // Twice: the first call may fill memos, the second reads them.
    for pass in 0..2 {
        assert_eq!(
            gs.state_hash(),
            reference_state_hash(gs),
            "{what}: state_hash (pass {pass})"
        );
        for &node in gs.nodes.keys() {
            assert_eq!(
                gs.local_hash(node),
                reference_local_hash(gs, node),
                "{what}: local_hash({node}) (pass {pass})"
            );
        }
    }
    assert_eq!(gs.local_hash(NodeId(u32::MAX)), None);
}

/// A deep copy of everything `state_hash` covers, sharing nothing with `gs`.
type Contents<P> = (
    BTreeMap<NodeId, NodeSlot<<P as Protocol>::State>>,
    Vec<InFlight<<P as Protocol>::Message>>,
);

fn contents<P: Protocol>(gs: &GlobalState<P>) -> Contents<P> {
    (
        gs.nodes.iter().map(|(n, s)| (*n, (**s).clone())).collect(),
        gs.inflight.iter().map(|q| (**q).clone()).collect(),
    )
}

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

/// Entries the walks' transition memo holds: far below the 32 misses it
/// records unconditionally, so a walk past that many misses has cleared
/// the table at least once.
const MEMO_CAP: usize = 8;

/// Probes every enabled event of `state` through `memo` before building
/// it: a hit's folded hash must be the from-scratch hash of the successor
/// it stands for (and `build` must make that successor, `Vec` order
/// included); a miss and a `Drop` must not be hits.
fn probe_every_event<P: Protocol>(
    memo: &mut TransitionMemo<'_, P>,
    state: &GlobalState<P>,
    events: &[Event<P>],
    what: &str,
) {
    for event in events {
        let (hits, misses) = (memo.hits(), memo.misses());
        let mut from = memo.expand(state);
        let probe = from.hash_of(event);
        let (built, step) = from.successor(event);
        let rebuilt = probe.as_ref().map(|_| from.build(event));
        let (hits, misses) = (memo.hits() - hits, memo.misses() - misses);
        match probe {
            Some(probe) => {
                assert_eq!(
                    probe.hash,
                    reference_state_hash(&built),
                    "{what}: probe of {event:?}"
                );
                assert_eq!(probe.step, step, "{what}: probe step of {event:?}");
                assert_eq!(probe.inflight, built.inflight.len());
                let conns: usize = built.nodes.values().map(|slot| slot.conns.len()).sum();
                assert_eq!(probe.conns, conns, "{what}: probe conns of {event:?}");
                let rebuilt = rebuilt.expect("a hit is rebuilt");
                assert!(
                    contents(&rebuilt) == contents(&built),
                    "{what}: build of {event:?}"
                );
                // The probe and the successor hit; `build` counts nothing.
                assert_eq!((hits, misses), (2, 0), "{what}: {event:?}");
            }
            None => {
                assert_eq!(hits, 0, "{what}: a probe missed what {event:?} hit");
                if matches!(event, Event::Drop { .. }) {
                    assert_eq!(misses, 0, "{what}: a drop is never keyed");
                }
            }
        }
    }
}

/// One seeded walk: every step probes every enabled event through a
/// small transition memo ([`probe_every_event`]), clones the current
/// state, applies a random enabled event to the clone and checks both;
/// between steps the state is put through a raw `slot_mut` write, a
/// `from_slots` rebuild, or a `StateDelta` wire round trip.
fn walk_checking_hashes<P: Protocol>(proto: &P, start: &GlobalState<P>, seed: u64, steps: usize) {
    let name = proto.name();
    let mut rng = XorShift::new(seed);
    let mut enc = DeltaEncoder::new();
    let mut dec = DeltaDecoder::new();
    let mut memo = TransitionMemo::with_max_entries(proto, MEMO_CAP);
    let mut state = start.clone();
    assert_hashes_match_reference(&state, name);
    for step in 0..steps {
        let events = enumerate_events(proto, &state, &ExploreOptions::full());
        if events.is_empty() {
            break;
        }
        probe_every_event(
            &mut memo,
            &state,
            &events,
            &format!("{name} seed {seed} step {step}"),
        );
        let event = &events[rng.below(events.len())];
        let what = format!("{name} seed {seed} step {step} {event:?}");

        // Hash the parent on odd steps only, so children are cut from
        // parents with and without filled memos.
        if step % 2 == 1 {
            state.state_hash();
        }
        let before = contents(&state);
        let before_hash = reference_state_hash(&state);
        let mut child = state.clone();
        apply_event(proto, &mut child, event);
        assert_hashes_match_reference(&child, &what);
        assert!(contents(&state) == before, "{what}: parent contents");
        assert_eq!(state.state_hash(), before_hash, "{what}: parent hash");

        match step % 3 {
            0 => {
                // A raw write through the door, on a clone of the child.
                let node = *child
                    .nodes
                    .keys()
                    .nth(rng.below(child.node_count()))
                    .unwrap();
                let kept = contents(&child);
                let kept_hash = child.state_hash();
                let mut written = child.clone();
                written.slot_mut(node).unwrap().incarnation += 1;
                assert_hashes_match_reference(&written, &what);
                assert_ne!(written.state_hash(), kept_hash, "{what}: write is hashed");
                assert_ne!(written.local_hash(node), child.local_hash(node));
                assert!(contents(&child) == kept, "{what}: contents after write");
                assert_eq!(child.state_hash(), kept_hash, "{what}: hash after write");
            }
            1 => {
                // Rebuilt from shared handles, and from deep copies.
                let mut shared: GlobalState<P> =
                    GlobalState::from_slots(child.nodes.iter().map(|(n, s)| (*n, s.clone())));
                shared.inflight = child.inflight.clone();
                assert_hashes_match_reference(&shared, &what);
                assert_eq!(shared.state_hash(), child.state_hash());
                let (slots, items) = contents(&child);
                let mut deep: GlobalState<P> = GlobalState::from_slots(slots);
                deep.inflight = items.into_iter().map(Into::into).collect();
                assert_hashes_match_reference(&deep, &what);
                assert_eq!(deep.state_hash(), child.state_hash());
                // A handle filed under another id must not answer with the
                // hash memoized for its first id.
                let moved: GlobalState<P> = GlobalState::from_slots(
                    child
                        .nodes
                        .iter()
                        .map(|(n, s)| (NodeId(n.0 + 1000), s.clone())),
                );
                assert_hashes_match_reference(&moved, &what);
            }
            _ => {
                let wire = enc.encode_state(&child).to_bytes();
                let delta = StateDelta::from_bytes(&wire).expect("own encoding decodes");
                let back: GlobalState<P> = dec.decode_state(&delta).expect("in sequence");
                assert_hashes_match_reference(&back, &what);
                assert_eq!(back.state_hash(), child.state_hash(), "{what}: round trip");
            }
        }
        state = child;
    }
    assert!(
        memo.hits() > 0 && memo.misses() > MEMO_CAP,
        "{name} seed {seed}: the memo was hit ({}) and cleared ({} misses)",
        memo.hits(),
        memo.misses()
    );
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
fn hashes_equal_the_from_scratch_fold_along_seeded_walks() {
    for seed in 0..6 {
        on_every_protocol!(walk_checking_hashes(seed, 90));
    }
}

/// The fold itself is pinned: these values were produced by the deep-copy
/// representation, and hashes like them sit in prediction-cache keys and in
/// the benchmark's pinned fleet digest.
#[test]
fn hash_values_are_pinned() {
    let ping = Ping {
        kick_target: NodeId(0),
        kick_enabled: true,
    };
    let mut gs = GlobalState::init(&ping, (0..3).map(NodeId));
    let kick = |node| Event::Action {
        node: NodeId(node),
        action: PingAction::Kick,
    };
    let reset = Event::Reset {
        node: NodeId(2),
        notify: true,
    };
    // Leaves two pings, a pong and an RST in flight, n2 in its second life.
    for event in [
        kick(1),
        kick(2),
        Event::Deliver { index: 0 },
        reset,
        kick(1),
    ] {
        apply_event(&ping, &mut gs, &event);
    }
    assert_eq!(gs.inflight.len(), 4);
    assert_eq!(gs.state_hash(), 8211608313859152287);
    assert_eq!(gs.local_hash(NodeId(1)), Some(10095712822018843045));
}

/// How many slots of `child` are not the parent's own allocation.
fn unshared_slots<P: Protocol>(parent: &GlobalState<P>, child: &GlobalState<P>) -> usize {
    assert_eq!(parent.node_count(), child.node_count());
    parent
        .nodes
        .iter()
        .filter(|(n, slot)| !slot.ptr_eq(&child.nodes[n]))
        .count()
}

fn step_kind(step: &TraceStep) -> &'static str {
    match step {
        TraceStep::Delivered { .. } => "Delivered",
        TraceStep::Bounced { .. } => "Bounced",
        TraceStep::ErrorObserved { .. } => "ErrorObserved",
        TraceStep::Stale => "Stale",
        TraceStep::Lost { .. } => "Lost",
        TraceStep::ActionRun { .. } => "ActionRun",
        TraceStep::ResetDone { .. } => "ResetDone",
        TraceStep::ConnectionBroke { .. } => "ConnectionBroke",
    }
}

/// Along a seeded walk, applies *every* enabled event of every state to a
/// fresh clone and counts the slots it unshared, per outcome kind.
fn walk_counting_unshared<P: Protocol>(
    proto: &P,
    start: &GlobalState<P>,
    seed: u64,
    tally: &mut BTreeMap<&'static str, (usize, usize)>,
) {
    let mut rng = XorShift::new(seed);
    let mut state = start.clone();
    for _ in 0..60 {
        let events: Vec<Event<P>> = enumerate_events(proto, &state, &ExploreOptions::full());
        if events.is_empty() {
            break;
        }
        for event in &events {
            let mut child = state.clone();
            assert_eq!(unshared_slots(&state, &child), 0, "clone shares every slot");
            let step = apply_event(proto, &mut child, event);
            let unshared = unshared_slots(&state, &child);
            let expect = match step {
                TraceStep::Bounced { .. } | TraceStep::Stale | TraceStep::Lost { .. } => 0,
                _ => 1,
            };
            assert_eq!(
                unshared,
                expect,
                "{} seed {seed}: {event:?} -> {step}",
                proto.name()
            );
            let entry = tally.entry(step_kind(&step)).or_default();
            entry.0 += 1;
            entry.1 += unshared;
        }
        let event = &events[rng.below(events.len())];
        apply_event(proto, &mut state, event);
    }
}

#[test]
fn an_event_unshares_exactly_the_slot_its_handler_writes() {
    let run = || {
        let mut tally = BTreeMap::new();
        for seed in 0..4 {
            on_every_protocol!(walk_counting_unshared(seed, &mut tally));
        }
        tally
    };
    let tally = run();
    for kind in [
        "Delivered",
        "ActionRun",
        "ResetDone",
        "ConnectionBroke",
        "ErrorObserved",
    ] {
        let (events, unshared) = tally.get(kind).copied().unwrap_or_default();
        assert!(events > 0, "{kind} was exercised");
        assert_eq!(unshared, events, "{kind}: one slot each");
    }
    for kind in ["Bounced", "Stale", "Lost"] {
        let (events, unshared) = tally.get(kind).copied().unwrap_or_default();
        assert!(events > 0, "{kind} was exercised");
        assert_eq!(unshared, 0, "{kind}: no slot");
    }
    assert_eq!(run(), tally, "the counts repeat exactly");
}

fn assert_send_sync<T: Send + Sync>() {}

/// Compile-time: a state can be handed to, and shared between, the
/// parallel engine's pool threads whatever the protocol.
#[allow(dead_code)]
fn global_state_is_send_and_sync<P: Protocol>() {
    assert_send_sync::<GlobalState<P>>();
}

/// Two threads hash states that share every slot (and so every memo cell)
/// at the same moment; both must get the reference values.
fn hash_concurrently<P: Protocol>(proto: &P, start: &GlobalState<P>, seed: u64) {
    let mut rng = XorShift::new(seed);
    let mut state = start.clone();
    for _ in 0..40 {
        let events = enumerate_events(proto, &state, &ExploreOptions::full());
        if events.is_empty() {
            break;
        }
        apply_event(proto, &mut state, &events[rng.below(events.len())]);
        // Write every slot so no memo is filled when the threads start.
        let ids: Vec<NodeId> = state.nodes.keys().copied().collect();
        for &id in &ids {
            let slot = state.slot_mut(id).unwrap();
            slot.incarnation += 1;
            slot.incarnation -= 1;
        }
        let expect = reference_state_hash(&state);
        let twin = state.clone();
        let gate = Barrier::new(2);
        let hash_all = |gs: &GlobalState<P>| {
            gate.wait();
            let locals: Vec<Option<u64>> = ids.iter().map(|&id| gs.local_hash(id)).collect();
            (gs.state_hash(), locals)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| hash_all(&state));
            let b = s.spawn(|| hash_all(&twin));
            (a.join().unwrap(), b.join().unwrap())
        });
        let locals: Vec<Option<u64>> = ids
            .iter()
            .map(|&id| reference_local_hash(&state, id))
            .collect();
        assert_eq!(a, (expect, locals.clone()), "{} seed {seed}", proto.name());
        assert_eq!(b, (expect, locals), "{} seed {seed}", proto.name());
    }
}

#[test]
fn states_sharing_slots_hash_the_same_from_two_threads() {
    for seed in 0..3 {
        on_every_protocol!(hash_concurrently(seed));
    }
}
