//! Global system state: the paper's `(L, I)` pair.
//!
//! `L` maps every node to its local state; `I` is the multiset of in-flight
//! messages (Fig. 4). Two extensions beyond the paper's minimal model are
//! needed to express its own bug scenarios:
//!
//! * **Incarnations** — every node slot carries an incarnation counter that
//!   is bumped on reset. In-flight messages are stamped with the incarnation
//!   of the destination *as known over the sender's connection*; delivering
//!   a message to a node that has since reset produces a transport error
//!   back to the sender instead (TCP RST semantics). This is what lets n9
//!   keep believing a reset n13 is its child (Fig. 2) and what makes node A
//!   "not observe the reset of C" in the Chord scenario (Fig. 10).
//! * **Connection tables** — each slot records the peers it has an open
//!   connection to and the peer incarnation it connected to. The table
//!   doubles as the input of the snapshot-neighborhood heuristic (§3.1
//!   "query the runtime to obtain the list of open connections").
//!
//! Messages addressed to nodes that are absent from the state (possible when
//! the checker runs on a *partial* neighborhood snapshot) are parked on the
//! paper's **dummy node** (§4): they are retained for trace display but are
//! never delivered, never explored, and excluded from the state hash.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::Hash;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::hashing::{combine, combine_unordered, stable_hash};
use crate::node::NodeId;
use crate::protocol::{Outbox, Protocol};

/// One node's entry in `L`: protocol state plus runtime-level connection
/// bookkeeping.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct NodeSlot<S> {
    /// The protocol state machine's local state.
    pub state: S,
    /// Bumped on every reset; distinguishes pre- and post-reset connections.
    pub incarnation: u32,
    /// Open connections: peer → incarnation of the peer at connect time.
    pub conns: BTreeMap<NodeId, u32>,
}

impl<S> NodeSlot<S> {
    /// A fresh slot for a node that has never reset.
    pub fn new(state: S) -> Self {
        NodeSlot {
            state,
            incarnation: 0,
            conns: BTreeMap::new(),
        }
    }
}

impl<S: Encode> Encode for NodeSlot<S> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.state.encode(buf);
        self.incarnation.encode(buf);
        self.conns.encode(buf);
    }
}

impl<S: crate::codec::Decode> crate::codec::Decode for NodeSlot<S> {
    fn decode(r: &mut crate::codec::Reader<'_>) -> Result<Self, crate::codec::DecodeError> {
        Ok(NodeSlot {
            state: S::decode(r)?,
            incarnation: u32::decode(r)?,
            conns: BTreeMap::decode(r)?,
        })
    }
}

/// A read-only, shared handle on one node's [`NodeSlot`] — the value type
/// of [`GlobalState::nodes`].
///
/// Cloning a state bumps one reference count per node instead of copying
/// the slots, and the handle memoizes `stable_hash(&(id, slot))`, so a
/// successor re-hashes only the slot its event wrote. The handle only
/// [`Deref`]s: the one way to a `&mut NodeSlot` is
/// [`GlobalState::slot_mut`], which unshares the slot and drops the memo.
#[derive(Clone)]
pub struct SharedSlot<S>(Arc<Memoized<S>>);

#[derive(Clone)]
struct Memoized<S> {
    slot: NodeSlot<S>,
    /// `(id, stable_hash(&(id, slot)))` as first asked for since the last
    /// write. A pure function of the immutable `slot`, so threads racing
    /// to fill it can only agree.
    memo: OnceLock<(NodeId, u64)>,
}

impl<S> SharedSlot<S> {
    /// True when both handles point at the same slot allocation (no write
    /// has separated them).
    pub fn ptr_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl<S: Hash> SharedSlot<S> {
    /// `stable_hash(&(id, slot))`, memoized for the id it is first asked
    /// under (the slot's map key; any other id is hashed from scratch).
    pub(crate) fn hash_as(&self, id: NodeId) -> u64 {
        let fresh = || stable_hash(&(id, &self.0.slot));
        match *self.0.memo.get_or_init(|| (id, fresh())) {
            (memo_id, hash) if memo_id == id => hash,
            _ => fresh(),
        }
    }
}

impl<S> From<NodeSlot<S>> for SharedSlot<S> {
    fn from(slot: NodeSlot<S>) -> Self {
        SharedSlot(Arc::new(Memoized {
            slot,
            memo: OnceLock::new(),
        }))
    }
}

impl<S> Deref for SharedSlot<S> {
    type Target = NodeSlot<S>;
    fn deref(&self) -> &NodeSlot<S> {
        &self.0.slot
    }
}

impl<S: PartialEq> PartialEq for SharedSlot<S> {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || **self == **other
    }
}

impl<S: Eq> Eq for SharedSlot<S> {}

impl<S: fmt::Debug> fmt::Debug for SharedSlot<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// The content of an in-flight network item.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Payload<M> {
    /// An application message (the common case).
    Msg(M),
    /// A transport-error notification: the recipient's connection to the
    /// item's source has failed (RST, broken pipe, close). "We assume that
    /// transport errors are particular messages" (§2.1).
    Error,
}

impl<M> Payload<M> {
    /// True for [`Payload::Error`].
    pub fn is_error(&self) -> bool {
        matches!(self, Payload::Error)
    }

    /// The application message, if this is not an error notice.
    pub fn msg(&self) -> Option<&M> {
        match self {
            Payload::Msg(m) => Some(m),
            Payload::Error => None,
        }
    }
}

impl<M: Encode> Encode for Payload<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Payload::Msg(m) => {
                buf.push(0);
                m.encode(buf);
            }
            Payload::Error => buf.push(1),
        }
    }
}

impl<M: Decode> Decode for Payload<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(Payload::Msg(M::decode(r)?)),
            1 => Ok(Payload::Error),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// An element of the network multiset `I`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct InFlight<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Sender's incarnation at send time (so replies and error
    /// notifications can be matched to the right incarnation).
    pub src_inc: u32,
    /// Destination incarnation the sender's connection was established to;
    /// a mismatch at delivery time means the connection is stale.
    pub dst_inc: u32,
    /// The message or error notification itself.
    pub payload: Payload<M>,
}

impl<M: Encode> Encode for InFlight<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.src.encode(buf);
        self.dst.encode(buf);
        self.src_inc.encode(buf);
        self.dst_inc.encode(buf);
        self.payload.encode(buf);
    }
}

impl<M: Decode> Decode for InFlight<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InFlight {
            src: NodeId::decode(r)?,
            dst: NodeId::decode(r)?,
            src_inc: u32::decode(r)?,
            dst_inc: u32::decode(r)?,
            payload: Payload::decode(r)?,
        })
    }
}

/// An [`InFlight`] item queued in [`GlobalState::inflight`]: a shared,
/// read-only handle on the item beside its `stable_hash` — taken once,
/// when queued, because a queued item is never written again (the handle
/// only [`Deref`]s). Cloning one bumps a reference count; the message is
/// not copied.
#[derive(Clone, PartialEq, Eq)]
pub struct Queued<M> {
    item: Arc<InFlight<M>>,
    hash: u64,
}

impl<M> Queued<M> {
    /// `stable_hash` of the item, as taken when it was queued.
    pub fn stable_hash(&self) -> u64 {
        self.hash
    }
}

impl<M: Clone> Queued<M> {
    /// Takes the item back off the wire (copying it only if another state
    /// still holds it in flight).
    pub fn into_item(self) -> InFlight<M> {
        Arc::unwrap_or_clone(self.item)
    }
}

impl<M: Hash> From<InFlight<M>> for Queued<M> {
    fn from(item: InFlight<M>) -> Self {
        let hash = stable_hash(&item);
        Queued {
            item: Arc::new(item),
            hash,
        }
    }
}

impl<M> Deref for Queued<M> {
    type Target = InFlight<M>;
    fn deref(&self) -> &InFlight<M> {
        &self.item
    }
}

impl<M: fmt::Debug> fmt::Debug for Queued<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.item.fmt(f)
    }
}

impl<M: Encode> Encode for Queued<M> {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.item.encode(buf);
    }
}

impl<M: Decode + Hash> Decode for Queued<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        InFlight::decode(r).map(Queued::from)
    }
}

/// The global state `(L, I)` of the distributed system.
#[derive(Clone, Debug)]
pub struct GlobalState<P: Protocol> {
    /// `L`: local node states, keyed by node id (absent key = node unknown
    /// to this — possibly partial — snapshot). Slots are shared between a
    /// state and its clones until written through
    /// [`GlobalState::slot_mut`].
    pub nodes: BTreeMap<NodeId, SharedSlot<P::State>>,
    /// `I`: in-flight messages between known nodes. Vec order is an
    /// implementation artifact; hashing treats it as a multiset.
    pub inflight: Vec<Queued<P::Message>>,
    /// Messages redirected to the dummy node (§4). Never delivered, never
    /// hashed.
    pub parked: Vec<InFlight<P::Message>>,
}

impl<P: Protocol> GlobalState<P> {
    /// A system of `nodes`, each in its protocol-initial state, with an
    /// empty network.
    pub fn init(config: &P, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let nodes = nodes
            .into_iter()
            .map(|n| (n, NodeSlot::new(config.init(n)).into()))
            .collect();
        GlobalState {
            nodes,
            inflight: Vec::new(),
            parked: Vec::new(),
        }
    }

    /// Builds a state from externally collected `(node, slot)` checkpoints —
    /// the entry point used when feeding a neighborhood snapshot to the
    /// checker.
    pub fn from_slots<S: Into<SharedSlot<P::State>>>(
        slots: impl IntoIterator<Item = (NodeId, S)>,
    ) -> Self {
        GlobalState {
            nodes: slots.into_iter().map(|(n, s)| (n, s.into())).collect(),
            inflight: Vec::new(),
            parked: Vec::new(),
        }
    }

    /// Number of nodes with a known local state.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node slot.
    pub fn slot(&self, node: NodeId) -> Option<&NodeSlot<P::State>> {
        self.nodes.get(&node).map(|shared| &**shared)
    }

    /// Mutable access to a node slot — the single write door. The slot is
    /// copied first if another state still shares it, and its memoized
    /// hash is dropped, so no other holder can observe the write and no
    /// stale hash can outlive it.
    pub fn slot_mut(&mut self, node: NodeId) -> Option<&mut NodeSlot<P::State>> {
        let own = Arc::make_mut(&mut self.nodes.get_mut(&node)?.0);
        own.memo = OnceLock::new();
        Some(&mut own.slot)
    }

    /// Deterministic hash of the whole global state, used by the checker's
    /// `explored` set. Node map is hashed in key order; the in-flight bag is
    /// hashed order-independently; parked (dummy-node) messages are
    /// deliberately excluded.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0u64;
        for (&id, slot) in &self.nodes {
            h = combine(h, slot.hash_as(id));
        }
        let bag = combine_unordered(self.inflight.iter().map(|queued| queued.hash));
        combine(h, bag)
    }

    /// Deterministic hash of `(n, s)` — the key of consequence prediction's
    /// `localExplored` set (Fig. 8 lines 17/20).
    pub fn local_hash(&self, node: NodeId) -> Option<u64> {
        self.nodes.get(&node).map(|slot| slot.hash_as(node))
    }

    /// Applies the output of a handler execution at `from`: stamps each send
    /// with connection incarnations (establishing connections lazily, as TCP
    /// connect does) and turns requested closes into error notifications for
    /// the affected peers.
    pub fn apply_outbox(&mut self, from: NodeId, out: Outbox<P::Message>) {
        let (sends, closes) = out.into_parts();
        for (dst, msg) in sends {
            self.push_payload(from, dst, Payload::Msg(msg));
        }
        for peer in closes {
            // Close tears down our side immediately; the peer learns via an
            // in-flight error notification about the connection *as it was*.
            let (src_inc, stamp) = match self.slot_mut(from) {
                Some(slot) => (slot.incarnation, slot.conns.remove(&peer)),
                None => (0, None),
            };
            let dst_inc =
                stamp.unwrap_or_else(|| self.nodes.get(&peer).map_or(0, |s| s.incarnation));
            self.route_item(InFlight {
                src: from,
                dst: peer,
                src_inc,
                dst_inc,
                payload: Payload::Error,
            });
        }
    }

    /// Queues one payload from `src` to `dst`, stamping connection
    /// incarnations. Application messages establish a connection lazily;
    /// error notifications are stamped with the existing connection (or the
    /// peer's current incarnation) without establishing one. Items to
    /// unknown nodes are parked on the dummy node.
    pub fn push_payload(&mut self, src: NodeId, dst: NodeId, payload: Payload<P::Message>) {
        let src_inc = self.nodes.get(&src).map_or(0, |s| s.incarnation);
        let dst_cur = self.nodes.get(&dst).map_or(0, |s| s.incarnation);
        let dst_inc = match self.slot(src).map(|slot| slot.conns.get(&dst).copied()) {
            Some(Some(stamp)) => stamp,
            // First application message to `dst`: connect (a slot write).
            Some(None) if !payload.is_error() => {
                let slot = self.slot_mut(src).expect("src slot was just read");
                slot.conns.insert(dst, dst_cur);
                dst_cur
            }
            _ => dst_cur,
        };
        self.route_item(InFlight {
            src,
            dst,
            src_inc,
            dst_inc,
            payload,
        });
    }

    /// Places an already-stamped item into the network (or parks it on the
    /// dummy node if the destination is unknown to this snapshot).
    pub fn route_item(&mut self, item: InFlight<P::Message>) {
        if self.nodes.contains_key(&item.dst) {
            self.inflight.push(item.into());
        } else {
            self.parked.push(item);
        }
    }

    /// Total encoded bytes of in-flight application messages (used by
    /// bandwidth accounting in tests).
    pub fn inflight_bytes(&self) -> usize {
        self.inflight
            .iter()
            .filter_map(|m| match &m.payload {
                Payload::Msg(msg) => Some(msg.encoded_len()),
                Payload::Error => None,
            })
            .sum()
    }

    /// Summarizes the state for debugging output.
    pub fn summary(&self) -> String {
        format!(
            "{} nodes, {} in-flight, {} parked",
            self.nodes.len(),
            self.inflight.len(),
            self.parked.len()
        )
    }
}

impl<P: Protocol> fmt::Display for GlobalState<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "GlobalState [{}]", self.summary())?;
        for (id, slot) in &self.nodes {
            writeln!(f, "  {id} (inc {}): {:?}", slot.incarnation, slot.state)?;
        }
        for m in &self.inflight {
            writeln!(f, "  wire {} -> {}: {:?}", m.src, m.dst, m.payload)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testproto::{Ping, PingMsg};

    fn two_nodes() -> GlobalState<Ping> {
        GlobalState::init(&Ping::default(), [NodeId(0), NodeId(1)])
    }

    #[test]
    fn init_builds_fresh_slots() {
        let gs = two_nodes();
        assert_eq!(gs.node_count(), 2);
        assert_eq!(gs.slot(NodeId(0)).unwrap().incarnation, 0);
        assert!(gs.inflight.is_empty());
    }

    #[test]
    fn outbox_sends_become_inflight_with_stamps() {
        let mut gs = two_nodes();
        let mut out = Outbox::new();
        out.send(NodeId(1), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        assert_eq!(gs.inflight.len(), 1);
        let m = &gs.inflight[0];
        assert_eq!(
            (m.src, m.dst, m.src_inc, m.dst_inc),
            (NodeId(0), NodeId(1), 0, 0)
        );
        // Connection was established lazily.
        assert_eq!(gs.slot(NodeId(0)).unwrap().conns.get(&NodeId(1)), Some(&0));
    }

    #[test]
    fn stale_connection_keeps_old_incarnation() {
        let mut gs = two_nodes();
        let mut out = Outbox::new();
        out.send(NodeId(1), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        // Node 1 resets: incarnation bumps.
        gs.slot_mut(NodeId(1)).unwrap().incarnation = 1;
        // Node 0 still has the old connection, so a second send is stamped
        // with the stale incarnation 0.
        let mut out = Outbox::new();
        out.send(NodeId(1), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        assert_eq!(gs.inflight[1].dst_inc, 0, "stale connection stamp");
    }

    #[test]
    fn close_emits_error_and_drops_connection() {
        let mut gs = two_nodes();
        let mut out = Outbox::new();
        out.send(NodeId(1), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        let mut out = Outbox::new();
        out.close(NodeId(1));
        gs.apply_outbox(NodeId(0), out);
        assert!(gs.slot(NodeId(0)).unwrap().conns.is_empty());
        assert!(gs
            .inflight
            .iter()
            .any(|m| m.payload.is_error() && m.dst == NodeId(1)));
    }

    #[test]
    fn messages_to_unknown_nodes_are_parked() {
        let mut gs = two_nodes();
        let mut out = Outbox::new();
        out.send(NodeId(99), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        assert!(gs.inflight.is_empty());
        assert_eq!(gs.parked.len(), 1);
        // Parked messages do not affect the state hash (dummy node, §4).
        let h1 = gs.state_hash();
        let mut out = Outbox::new();
        out.send(NodeId(99), PingMsg::Ping);
        gs.apply_outbox(NodeId(0), out);
        assert_eq!(gs.state_hash(), h1);
    }

    #[test]
    fn state_hash_is_inflight_order_independent() {
        let mk = |first: PingMsg, second: PingMsg| {
            let mut gs = two_nodes();
            let mut out = Outbox::new();
            out.send(NodeId(1), first);
            out.send(NodeId(1), second);
            gs.apply_outbox(NodeId(0), out);
            gs
        };
        // Same multiset of in-flight messages, inserted in opposite orders.
        assert_eq!(
            mk(PingMsg::Ping, PingMsg::Pong).state_hash(),
            mk(PingMsg::Pong, PingMsg::Ping).state_hash()
        );
        // ...and a genuinely different multiset hashes differently.
        assert_ne!(
            mk(PingMsg::Ping, PingMsg::Ping).state_hash(),
            mk(PingMsg::Pong, PingMsg::Ping).state_hash()
        );
    }

    #[test]
    fn from_slots_builds_partial_states() {
        let full = two_nodes();
        let partial: GlobalState<Ping> =
            GlobalState::from_slots(full.nodes.iter().take(1).map(|(id, s)| (*id, s.clone())));
        assert_eq!(partial.node_count(), 1);
        assert!(partial.slot(NodeId(1)).is_none());
    }

    #[test]
    fn state_hash_distinguishes_local_states() {
        let gs = two_nodes();
        let mut gs2 = two_nodes();
        gs2.slot_mut(NodeId(0)).unwrap().state.pings_seen = 7;
        assert_ne!(gs.state_hash(), gs2.state_hash());
        assert_ne!(gs.local_hash(NodeId(0)), gs2.local_hash(NodeId(0)));
        assert_eq!(gs.local_hash(NodeId(1)), gs2.local_hash(NodeId(1)));
        assert_eq!(gs.local_hash(NodeId(42)), None);
    }

    #[test]
    fn inflight_bytes_counts_only_messages() {
        let mut gs = two_nodes();
        let mut out = Outbox::new();
        out.send(NodeId(1), PingMsg::Ping);
        out.close(NodeId(1));
        gs.apply_outbox(NodeId(0), out);
        assert_eq!(gs.inflight_bytes(), 1);
    }

    #[test]
    fn inflight_codec_roundtrips() {
        use crate::codec::Decode;
        for payload in [Payload::Msg(PingMsg::Ping), Payload::Error] {
            let item = InFlight {
                src: NodeId(3),
                dst: NodeId(9),
                src_inc: 2,
                dst_inc: 7,
                payload,
            };
            let decoded = InFlight::<PingMsg>::from_bytes(&item.to_bytes()).unwrap();
            assert_eq!(decoded, item);
        }
        assert!(InFlight::<PingMsg>::from_bytes(&[0, 0, 0, 0, 9]).is_err());
    }

    #[test]
    fn display_renders() {
        let gs = two_nodes();
        let s = gs.to_string();
        assert!(s.contains("GlobalState"));
        assert!(s.contains("n0"));
    }
}
