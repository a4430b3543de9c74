//! The transition memo: within one search, a `(node slot, input)` pair
//! runs its handler once.
//!
//! A search applies the *same* local transition over and over: delivering
//! message `m` to node `n` is re-run in every global state that differs
//! only in what the *other* nodes did. Handlers are pure functions of
//! `(state, input)` ([`crate::protocol`]), so each re-run copies the slot,
//! runs the handler, hashes the new slot and every emitted message — and
//! arrives at bytes it has already produced. [`TransitionMemo`] keeps what
//! the first run produced — the resulting [`SharedSlot`] (its memoized leaf
//! hash with it), the items it queued and parked, the [`TraceStep`] — and
//! serves every later run from the table.
//!
//! # What a transition reads (the key's proof obligation)
//!
//! [`apply_event`] of an event acting at node `n` reads exactly
//!
//! * `n`'s **own slot** — protocol state, incarnation, connection table;
//! * its **input** — the delivered item, the action, `notify`, the peer;
//! * and, outside the slot, only **which nodes are present and their
//!   current incarnations**: [`GlobalState::push_payload`] stamps a first
//!   send with the destination's incarnation, [`GlobalState::apply_outbox`]
//!   stamps a close the same way, and [`GlobalState::route_item`] parks an
//!   item whose destination is absent. That is the *view*.
//!
//! It writes `n`'s slot and appends to the two bags, nothing else. So the
//! key is the tuple `(event kind, n, local_hash(n), input digest, view
//! digest)` — compared field by field, never folded into one word — and a
//! hit rebuilds the successor *bit-identically*, `inflight` and `parked`
//! `Vec` order included (`Event::Deliver { index }` and the canonical
//! event order depend on it): clone the parent, `swap_remove` the
//! delivered item, swap the slot handle in, append the stored items.
//!
//! In debug builds every hit is re-derived with [`apply_event`] and
//! compared field by field: that assertion is what keeps the key honest
//! when `apply_event` later learns to read something new.
//!
//! # Hashing a successor before it exists
//!
//! A hit also knows the successor's `state_hash` without building it
//! ([`Expansion::hash_of`]): the node fold runs over the parent's
//! memoized leaves with the acting node's leaf replaced by the entry
//! slot's, and the bag fold is the parent's [`BagFold`] with the delivered
//! item removed and the entry's queued items added. A search probes its
//! explored set with that hash, so a duplicate costs the probe alone, and
//! builds a survivor only when it visits it ([`Expansion::build`]). Debug
//! builds build every probed successor with [`apply_event`] and compare
//! hashes.
//!
//! A search that visits the survivor on another thread, or after its memo
//! has moved on, takes the entry's result by value instead
//! ([`Expansion::defer`]): a [`Deferred`] holds what a hit's rebuild
//! applies besides the event — the acting node, the entry's slot handle
//! and the items it queued and parked — and builds the same state from the
//! parent and the event whenever it is asked ([`Deferred::build`]),
//! whatever the memo holds by then. Debug builds re-derive that build with [`apply_event`]
//! as they do every hit.
//!
//! `Drop` (no handler, no slot) and events whose acting node is absent
//! from the state are never keyed; they go straight to [`apply_event`].
//!
//! # Bounded, and quiet when nothing repeats
//!
//! A memo holds at most `MAX_ENTRIES` entries and is cleared when full.
//! Past its first `RECORD_UNPROVEN` misses it records in full only while
//! it is being hit (`TransitionMemo::recording_pays`): a search that
//! repeats nothing — a one-node partial snapshot ticking its timer — would
//! otherwise pay for a table of slots nobody asks for again. Neither bound
//! can reach a result: a transition that is not in the table is simply
//! run.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::event::{apply_event, Event, TraceStep};
use crate::hashing::{combine, stable_hash, BagFold, DigestHasher};
use crate::node::NodeId;
use crate::protocol::Protocol;
use crate::state::{GlobalState, InFlight, Queued, SharedSlot};

/// Most entries a memo holds; the insert that would exceed it clears the
/// table first. Every entry pins a node slot, so this is what keeps an
/// unbounded search (§5.2) on the paper's "only stores hashes" memory
/// model (§5.5) rather than on a table that grows with it.
const MAX_ENTRIES: usize = 1 << 16;

/// Misses recorded before the hit count has a say: about one wide
/// expansion, which cannot hit anything yet.
const RECORD_UNPROVEN: usize = 32;
/// Past that, misses recorded per hit so far, and the stride at which a
/// memo that is not being hit still records. Low on purpose: a search
/// that repeats transitions at all clears one hit in seventeen lookups
/// within its first two expansions, and one that never does (see
/// [`TransitionMemo::recording_pays`]) stays at zero.
const RECORD_MISSES_PER_HIT: usize = 16;

/// Where a view digest starts (the FNV-1a offset basis).
const VIEW_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Which handler path an entry stands for. Part of the key because input
/// digests of different kinds share one 64-bit space.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Deliver,
    Action,
    Reset,
    PeerError,
}

/// A tuple of digests, compared field by field.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    kind: Kind,
    /// The acting node.
    node: NodeId,
    /// `GlobalState::local_hash(node)` in the parent.
    local: u64,
    /// The delivered item's stored hash, `stable_hash(action)`, `notify`,
    /// or the peer's id.
    input: u64,
    /// Presence and incarnation of every node of the parent.
    view: u64,
}

impl Hash for Key {
    fn hash<H: Hasher>(&self, h: &mut H) {
        // `local` is an FNV digest already; the rest is folded in at
        // distinct rotations and `DigestHasher` mixes the word once.
        h.write_u64(
            self.local
                ^ self.input.rotate_left(21)
                ^ self.view.rotate_left(42)
                ^ (u64::from(self.node.0) << 2 | self.kind as u64),
        );
    }
}

/// What the first run of a transition produced.
struct Entry<P: Protocol> {
    /// The acting node's slot afterwards (the parent's own handle when
    /// no handler ran).
    slot: SharedSlot<P::State>,
    /// Items queued, in emission order: a run of [`TransitionMemo::queued`].
    queued: Run,
    /// Items parked on the dummy node, in emission order: a run of
    /// [`TransitionMemo::parked`].
    parked: Run,
    step: TraceStep,
}

/// A run of consecutive items in one of the memo's two item stores. The
/// entries share the stores so that recording a transition allocates
/// nothing of its own and an entry stays a few words.
#[derive(Clone, Copy)]
struct Run {
    start: u32,
    len: u32,
}

impl Run {
    /// Appends `items` to `store` as one run.
    fn push<T: Clone>(store: &mut Vec<T>, items: &[T]) -> Run {
        let run = Run {
            start: u32::try_from(store.len()).expect("item store outgrew its entry cap"),
            len: items.len() as u32,
        };
        store.extend_from_slice(items);
        run
    }

    fn of<T>(self, store: &[T]) -> &[T] {
        &store[self.start as usize..][..self.len as usize]
    }
}

/// A per-search table from `(node slot, input, view)` to the transition's
/// result — see the [module docs](self).
///
/// A memo is bound to the protocol configuration it was created with, and
/// is meant to live and die with one search (or one worker of the parallel
/// engine): it shares nothing, takes no lock, and is bounded.
pub struct TransitionMemo<'a, P: Protocol> {
    config: &'a P,
    table: HashMap<Key, Entry<P>, BuildHasherDefault<DigestHasher>>,
    /// Every entry's queued items, back to back.
    queued: Vec<Queued<P::Message>>,
    /// Every entry's parked items, back to back.
    parked: Vec<InFlight<P::Message>>,
    /// The node fold of the state being expanded, once a probe hit:
    /// `(id, leaf, fold of the leaves before it)` in key order.
    fold: Vec<(NodeId, u64, u64)>,
    max_entries: usize,
    hits: usize,
    misses: usize,
}

impl<'a, P: Protocol> TransitionMemo<'a, P> {
    /// An empty memo for transitions of `config`.
    pub fn new(config: &'a P) -> Self {
        Self::with_max_entries(config, MAX_ENTRIES)
    }

    /// An empty memo that holds at most `max_entries` entries, clearing
    /// the table on the insert that would exceed it. [`TransitionMemo::new`]
    /// is this at the cap every search runs with; a small cap lets a test
    /// cross the clear-on-full boundary.
    pub fn with_max_entries(config: &'a P, max_entries: usize) -> Self {
        TransitionMemo {
            config,
            // Room for the misses every search records unconditionally: a
            // few KB, and a small search never rehashes.
            table: HashMap::with_capacity_and_hasher(RECORD_UNPROVEN, Default::default()),
            queued: Vec::with_capacity(RECORD_UNPROVEN),
            parked: Vec::new(),
            fold: Vec::new(),
            max_entries,
            hits: 0,
            misses: 0,
        }
    }

    /// Starts expanding `parent`: digests its view once, for every
    /// successor taken through the returned handle.
    pub fn expand<'m>(&'m mut self, parent: &'m GlobalState<P>) -> Expansion<'m, 'a, P> {
        // One multiply per node: the digest is private to this memo, so it
        // need not be a `stable_hash`, only well mixed — from a non-zero
        // seed, or node 0 in its first life would leave it unchanged.
        let mut view = VIEW_SEED;
        for (id, slot) in &parent.nodes {
            let word = u64::from(id.0) << 32 | u64::from(slot.incarnation);
            view = (view.rotate_left(5) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
        Expansion {
            view,
            memo: self,
            parent,
            folded: None,
        }
    }

    /// Whether a miss is still worth an entry. An entry pins the slot it
    /// produced; on a search that never repeats a transition (a partial
    /// snapshot of one or two nodes is a chain of timer ticks) that turns
    /// every slot the allocator would have reused at once into one more
    /// cold allocation, held to the end. So past the first few misses the
    /// memo records in full only while it is being hit, and one miss in
    /// [`RECORD_MISSES_PER_HIT`] otherwise — enough for a search that turns
    /// repetitive later to be noticed. What is held is always served.
    fn recording_pays(&self) -> bool {
        self.misses <= RECORD_UNPROVEN
            || self.hits * RECORD_MISSES_PER_HIT >= self.misses
            || self.misses.is_multiple_of(RECORD_MISSES_PER_HIT)
    }

    /// Successors served from the table: by [`Expansion::successor`], or
    /// hashed by [`Expansion::hash_of`] (a probed successor built later is
    /// not counted again).
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Keyed successors that were not in the table and ran
    /// [`apply_event`] in [`Expansion::successor`].
    pub fn misses(&self) -> usize {
        self.misses
    }
}

/// What [`Expansion::hash_of`] learns of a successor without building it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Probe {
    /// The successor's `state_hash`.
    pub hash: u64,
    /// What happened, as [`apply_event`] reports it.
    pub step: TraceStep,
    /// Items the successor holds in flight.
    pub inflight: usize,
    /// Open connections across the successor's slots.
    pub conns: usize,
}

/// One state being expanded through a [`TransitionMemo`].
pub struct Expansion<'m, 'a, P: Protocol> {
    memo: &'m mut TransitionMemo<'a, P>,
    parent: &'m GlobalState<P>,
    view: u64,
    /// The parent's bag fold and open-connection count, taken with the
    /// memo's `fold` by the first hit ([`fold_parent`]).
    folded: Option<(BagFold, usize)>,
}

impl<P: Protocol> Expansion<'_, '_, P> {
    /// The successor of the parent under `event` and what happened —
    /// exactly what cloning the parent and calling [`apply_event`] yields.
    ///
    /// # Panics
    ///
    /// As [`apply_event`]: on a `Deliver`/`Drop` index out of range.
    pub fn successor(&mut self, event: &Event<P>) -> (GlobalState<P>, TraceStep) {
        let key = self.key(event);
        let (memo, parent) = (&mut *self.memo, self.parent);
        let Some(key) = key else {
            let mut next = parent.clone();
            let step = apply_event(memo.config, &mut next, event);
            return (next, step);
        };

        if let Some(entry) = memo.table.get(&key) {
            memo.hits += 1;
            let next = rebuild(memo, parent, event, key, entry);
            return (next, entry.step.clone());
        }

        memo.misses += 1;
        let mut next = parent.clone();
        // What `apply_event` keeps of the parent's bags: it only ever
        // removes the delivered item, and appends.
        let kept = parent.inflight.len() - usize::from(key.kind == Kind::Deliver);
        let step = apply_event(memo.config, &mut next, event);
        if !memo.recording_pays() {
            return (next, step);
        }
        if memo.table.len() >= memo.max_entries {
            memo.table.clear();
            memo.queued.clear();
            memo.parked.clear();
        }
        memo.table.insert(
            key,
            Entry {
                slot: next.nodes[&key.node].clone(),
                queued: Run::push(&mut memo.queued, &next.inflight[kept..]),
                parked: Run::push(&mut memo.parked, &next.parked[parent.parked.len()..]),
                step: step.clone(),
            },
        );
        (next, step)
    }

    /// The successor's `state_hash` and what happened, on a hit, without
    /// building the successor (see the [module docs](self)); `None` on a
    /// miss and for events that are never keyed, which must be built with
    /// [`Expansion::successor`] to be hashed. A hit counts as one; building
    /// it later with [`Expansion::build`] does not count again.
    pub fn hash_of(&mut self, event: &Event<P>) -> Option<Probe> {
        let key = self.key(event)?;
        let (memo, parent) = (&mut *self.memo, self.parent);
        let entry = memo.table.get(&key)?;
        memo.hits += 1;
        let (mut bag, conns) = *self
            .folded
            .get_or_insert_with(|| fold_parent(&mut memo.fold, parent));

        let at = memo
            .fold
            .binary_search_by_key(&key.node, |&(id, ..)| id)
            .expect("keyed node is present");
        let mut nodes = combine(memo.fold[at].2, entry.slot.hash_as(key.node));
        for &(_, leaf, _) in &memo.fold[at + 1..] {
            nodes = combine(nodes, leaf);
        }
        let mut inflight = parent.inflight.len();
        if let Event::Deliver { index } = event {
            bag.remove(parent.inflight[*index].stable_hash());
            inflight -= 1;
        }
        let queued = entry.queued.of(&memo.queued);
        for item in queued {
            bag.add(item.stable_hash());
        }
        let hash = combine(nodes, bag.finish());
        let probe = Probe {
            hash,
            step: entry.step.clone(),
            inflight: inflight + queued.len(),
            conns: conns - parent.nodes[&key.node].conns.len() + entry.slot.conns.len(),
        };
        if cfg!(debug_assertions) {
            let mut fresh = parent.clone();
            let step = apply_event(memo.config, &mut fresh, event);
            assert_eq!(step, probe.step, "probe: trace step of {event:?}");
            assert_eq!(fresh.state_hash(), hash, "probe: state hash of {event:?}");
            assert_eq!(fresh.inflight.len(), probe.inflight, "probe: in flight");
        }
        Some(probe)
    }

    /// The successor of the parent under `event`, as [`Expansion::successor`]
    /// builds it, without counting a hit or a miss and without recording:
    /// what a search calls for a successor [`Expansion::hash_of`] already
    /// counted. Served from the table while the entry is held; a cleared
    /// entry simply runs the handler again.
    pub fn build(&mut self, event: &Event<P>) -> GlobalState<P> {
        let key = self.key(event);
        let (memo, parent) = (&*self.memo, self.parent);
        if let Some(key) = key {
            if let Some(entry) = memo.table.get(&key) {
                return rebuild(memo, parent, event, key, entry);
            }
        }
        let mut next = parent.clone();
        apply_event(memo.config, &mut next, event);
        next
    }

    /// The successor [`Expansion::hash_of`] found held, as a value that
    /// builds it later ([`Deferred::build`]) without this memo; `None` when
    /// the table does not hold `event`'s entry. Counts nothing.
    pub fn defer(&self, event: &Event<P>) -> Option<Deferred<P>> {
        let key = self.key(event)?;
        let entry = self.memo.table.get(&key)?;
        Some(Deferred {
            node: key.node,
            slot: entry.slot.clone(),
            queued: entry.queued.of(&self.memo.queued).into(),
            parked: entry.parked.of(&self.memo.parked).into(),
        })
    }

    /// The memo key of `event` at the parent, or `None` for the events
    /// that are never keyed (`Drop`, an absent acting node, a stale index
    /// — which [`apply_event`] panics on).
    fn key(&self, event: &Event<P>) -> Option<Key> {
        let (kind, node, input) = match event {
            Event::Deliver { index } => {
                let item = self.parent.inflight.get(*index)?;
                (Kind::Deliver, item.dst, item.stable_hash())
            }
            Event::Drop { .. } => return None,
            Event::Action { node, action } => (Kind::Action, *node, stable_hash(action)),
            Event::Reset { node, notify } => (Kind::Reset, *node, u64::from(*notify)),
            Event::PeerError { node, peer } => (Kind::PeerError, *node, u64::from(peer.0)),
        };
        Some(Key {
            kind,
            node,
            local: self.parent.local_hash(node)?,
            input,
            view: self.view,
        })
    }
}

/// The parent's half of every probe, taken once per expansion by the
/// first hit: its node fold (into `fold`: `(id, leaf, fold of the leaves
/// before it)` in key order), its bag fold and its open-connection count.
fn fold_parent<P: Protocol>(
    fold: &mut Vec<(NodeId, u64, u64)>,
    parent: &GlobalState<P>,
) -> (BagFold, usize) {
    fold.clear();
    let (mut nodes, mut conns) = (0u64, 0usize);
    for (&id, slot) in &parent.nodes {
        let leaf = slot.hash_as(id);
        fold.push((id, leaf, nodes));
        nodes = combine(nodes, leaf);
        conns += slot.conns.len();
    }
    let bag = parent
        .inflight
        .iter()
        .map(|item| item.stable_hash())
        .collect();
    (bag, conns)
}

/// The successor `entry` records for `event` at `parent`
/// ([`apply_recorded`]), re-derived in debug builds.
fn rebuild<P: Protocol>(
    memo: &TransitionMemo<'_, P>,
    parent: &GlobalState<P>,
    event: &Event<P>,
    key: Key,
    entry: &Entry<P>,
) -> GlobalState<P> {
    let next = apply_recorded(
        parent,
        event,
        key.node,
        &entry.slot,
        entry.queued.of(&memo.queued),
        entry.parked.of(&memo.parked),
    );
    if cfg!(debug_assertions) {
        assert_rederives(memo.config, parent, event, &next, &entry.step);
    }
    next
}

/// A transition recorded for `event` applied to `parent`: clone it,
/// `swap_remove` the delivered item, swap `node`'s slot handle in, append
/// the stored items — `apply_event`'s state, `Vec` order included.
fn apply_recorded<P: Protocol>(
    parent: &GlobalState<P>,
    event: &Event<P>,
    node: NodeId,
    slot: &SharedSlot<P::State>,
    queued: &[Queued<P::Message>],
    parked: &[InFlight<P::Message>],
) -> GlobalState<P> {
    let mut next = parent.clone();
    if let Event::Deliver { index } = event {
        next.inflight.swap_remove(*index);
    }
    *next.nodes.get_mut(&node).expect("keyed node is present") = slot.clone();
    next.inflight.extend_from_slice(queued);
    next.parked.extend_from_slice(parked);
    next
}

/// A memo hit's successor held unbuilt: the entry's result by value
/// ([`Expansion::defer`]), independent of the memo it came from.
pub struct Deferred<P: Protocol> {
    /// The acting node.
    node: NodeId,
    /// The acting node's slot afterwards: the entry's handle.
    slot: SharedSlot<P::State>,
    /// The entry's queued items, in emission order.
    queued: Box<[Queued<P::Message>]>,
    /// The entry's parked items, in emission order.
    parked: Box<[InFlight<P::Message>]>,
}

impl<P: Protocol> Deferred<P> {
    /// The successor of `parent` under `event`, the state and event this
    /// was deferred from — exactly [`apply_event`]'s, as a hit's rebuild
    /// makes it. `step` is the probe's; `config` and `step` serve the
    /// debug-build re-derivation alone.
    pub fn build(
        &self,
        config: &P,
        parent: &GlobalState<P>,
        event: &Event<P>,
        step: &TraceStep,
    ) -> GlobalState<P> {
        let next = apply_recorded(
            parent,
            event,
            self.node,
            &self.slot,
            &self.queued,
            &self.parked,
        );
        if cfg!(debug_assertions) {
            assert_rederives(config, parent, event, &next, step);
        }
        next
    }
}

/// The debug-build check behind every hit: `next`/`step` must be what
/// [`apply_event`] makes of `parent` and `event`.
fn assert_rederives<P: Protocol>(
    config: &P,
    parent: &GlobalState<P>,
    event: &Event<P>,
    next: &GlobalState<P>,
    step: &TraceStep,
) {
    let mut fresh = parent.clone();
    let fresh_step = apply_event(config, &mut fresh, event);
    assert_eq!(*step, fresh_step, "memo hit: trace step of {event:?}");
    assert!(
        next.nodes == fresh.nodes,
        "memo hit: node slots after {event:?}\n memo: {:?}\nfresh: {:?}",
        next.nodes,
        fresh.nodes
    );
    assert_eq!(
        next.inflight, fresh.inflight,
        "memo hit: in-flight bag (in order) after {event:?}"
    );
    assert_eq!(
        next.parked, fresh.parked,
        "memo hit: parked items (in order) after {event:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{enumerate_events, ExploreOptions};
    use crate::testproto::Ping;

    /// Seeded walks through a memo capped at a handful of entries: the
    /// table is cleared many times over, entries recorded before a clear
    /// are gone after it, and every successor still equals `apply_event`'s
    /// (debug builds also re-derive every hit inside the memo).
    #[test]
    fn walks_cross_the_clear_on_full_boundary() {
        let proto = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        for seed in 1u64..5 {
            let mut memo = TransitionMemo::with_max_entries(&proto, 5);
            let mut state: GlobalState<Ping> = GlobalState::init(&proto, (0..4).map(NodeId));
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut clears = 0;
            for _ in 0..60 {
                let events = enumerate_events(&proto, &state, &ExploreOptions::full());
                for event in &events {
                    let held = memo.table.len();
                    let (next, step) = memo.expand(&state).successor(event);
                    clears += usize::from(memo.table.len() < held);
                    assert!(memo.table.len() <= 5);
                    assert!(memo.queued.len() <= 5 * 4 && memo.parked.is_empty());
                    let mut plain = state.clone();
                    assert_eq!(step, apply_event(&proto, &mut plain, event));
                    assert!(next.nodes == plain.nodes);
                    assert_eq!(next.inflight, plain.inflight);
                    assert_eq!(next.state_hash(), plain.state_hash());
                }
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let event = &events[(x % events.len() as u64) as usize];
                apply_event(&proto, &mut state, event);
            }
            assert!(
                clears >= 5,
                "seed {seed}: the table was cleared {clears} times"
            );
            assert!(memo.hits() > 0 && memo.misses() > memo.hits());
        }
    }

    /// A successor probed while its entry was held is built the same once
    /// the table has been cleared — the handler simply runs again — and
    /// building counts neither a hit nor a miss.
    #[test]
    fn build_after_a_clear_runs_the_handler() {
        let proto = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let mut state: GlobalState<Ping> = GlobalState::init(&proto, (0..3).map(NodeId));
        for node in [1, 2] {
            let kick = Event::Action {
                node: NodeId(node),
                action: crate::testproto::PingAction::Kick,
            };
            apply_event(&proto, &mut state, &kick);
        }
        let events = enumerate_events(&proto, &state, &ExploreOptions::full());
        let mut memo = TransitionMemo::new(&proto);
        for event in &events {
            memo.expand(&state).successor(event);
        }
        let probes: Vec<_> = events
            .iter()
            .map(|event| memo.expand(&state).hash_of(event))
            .collect();
        memo.table.clear();
        let counts = (memo.hits(), memo.misses());
        let mut built = 0;
        for (event, probe) in events.iter().zip(probes) {
            let Some(probe) = probe else {
                assert!(matches!(event, Event::Drop { .. }), "{event:?} was held");
                continue;
            };
            let next = memo.expand(&state).build(event);
            let mut plain = state.clone();
            assert_eq!(probe.step, apply_event(&proto, &mut plain, event));
            assert!(next.nodes == plain.nodes);
            assert_eq!(next.inflight, plain.inflight);
            assert_eq!(next.state_hash(), probe.hash);
            built += 1;
        }
        assert!(
            built > 0 && built < events.len(),
            "hits and drops both seen"
        );
        assert_eq!((memo.hits(), memo.misses()), counts, "build counts nothing");
    }

    /// A search that never repeats a transition stops paying for entries
    /// after the first few; hits on what is held switch recording back on.
    #[test]
    fn recording_follows_the_hit_count() {
        let proto = Ping::default();
        let mut memo = TransitionMemo::new(&proto);
        assert!(memo.recording_pays());
        memo.misses = RECORD_UNPROVEN + 1;
        assert!(!memo.recording_pays());
        memo.hits = 2;
        assert!(!memo.recording_pays());
        memo.hits = 3;
        assert!(memo.recording_pays());
        // Unhit, it still samples one miss per stride.
        memo.hits = 0;
        let recorded = (RECORD_UNPROVEN + 1..=RECORD_UNPROVEN + 64)
            .filter(|&misses| {
                memo.misses = misses;
                memo.recording_pays()
            })
            .count();
        assert_eq!(recorded, 64 / RECORD_MISSES_PER_HIT);
    }
}
