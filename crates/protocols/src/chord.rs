//! Chord: a distributed hash table providing key-based routing (§5.2.2).
//!
//! "Each Chord node is assigned a Chord id (effectively, a key). Nodes
//! arrange themselves in an overlay ring where each node keeps pointers to
//! its predecessor and successor. ... A 'stabilize' timer periodically
//! updates these pointers."
//!
//! This port keeps the parts of Chord the paper's evaluation exercises —
//! ring membership, the join handshake (`FindPred`/`FindPredReply`/
//! `UpdatePred`), the stabilize protocol (`GetPred`/`GetPredReply`) and the
//! successor list — and re-injects the three inconsistencies CrystalBall
//! found ([`ChordBugs`]). Finger tables accelerate lookups but play no role
//! in any of the paper's bugs or properties, so routing simply walks
//! successor pointers (documented substitution; DESIGN.md §1).
//!
//! Chord ids are the node address widened to 64 bits, which preserves every
//! ordering used in the paper's scenarios while keeping tests legible.

use std::fmt;

use cb_model::{
    Decode, DecodeError, Encode, NodeId, Outbox, PropertySet, Protocol, Reader, Schedule,
    SimDuration,
};

use crate::ring::{between_open, between_right_closed};

/// The Chord id of a node: its address on the identifier circle.
pub fn chord_id(node: NodeId) -> u64 {
    u64::from(node.0)
}

/// The paper's Chord bugs. `true` = the Mace behaviour CrystalBall caught;
/// `false` = the correction discussed in §5.2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChordBugs {
    /// C1 — Fig. 10: a rejoining node sends `UpdatePred` to itself and the
    /// handler assigns the predecessor pointer to itself even though the
    /// successor list names other nodes ("If Successor is Self, So Is
    /// Predecessor" violated).
    pub c1_self_update_pred: bool,
    /// C2 — Fig. 11: the `GetPredReply` handler extends the successor list
    /// without re-checking the ordering against the predecessor pointer
    /// ("Node Ordering Constraint" violated).
    pub c2_merge_keeps_stale_pred: bool,
    /// C3 — transport-error cleanup drops the failed peer from the
    /// successor list but forgets to re-seed it with self when it empties,
    /// leaving a joined node with no successor.
    pub c3_error_leaves_empty_successors: bool,
}

impl ChordBugs {
    /// All bugs present (the implementation the paper studied).
    pub fn as_shipped() -> Self {
        ChordBugs {
            c1_self_update_pred: true,
            c2_merge_keeps_stale_pred: true,
            c3_error_leaves_empty_successors: true,
        }
    }

    /// Fully corrected implementation.
    pub fn none() -> Self {
        ChordBugs {
            c1_self_update_pred: false,
            c2_merge_keeps_stale_pred: false,
            c3_error_leaves_empty_successors: false,
        }
    }

    /// Only the named bug (`"C1"`..`"C3"`) enabled.
    pub fn only(name: &str) -> Self {
        let mut b = Self::none();
        match name {
            "C1" => b.c1_self_update_pred = true,
            "C2" => b.c2_merge_keeps_stale_pred = true,
            "C3" => b.c3_error_leaves_empty_successors = true,
            other => panic!("unknown Chord bug {other}"),
        }
        b
    }

    /// All bug names, in paper order.
    pub const NAMES: [&'static str; 3] = ["C1", "C2", "C3"];
}

/// Chord protocol configuration.
#[derive(Clone, Debug)]
pub struct Chord {
    /// Nodes a joiner may contact.
    pub bootstrap: Vec<NodeId>,
    /// Maximum successor-list length.
    pub succ_list_len: usize,
    /// Which bugs are present.
    pub bugs: ChordBugs,
    /// Stabilize-timer period.
    pub stabilize_period: SimDuration,
}

impl Default for Chord {
    fn default() -> Self {
        Chord {
            bootstrap: vec![NodeId(0)],
            succ_list_len: 3,
            bugs: ChordBugs::as_shipped(),
            stabilize_period: SimDuration::from_secs(1),
        }
    }
}

impl Chord {
    /// Convenience constructor.
    pub fn new(bootstrap: Vec<NodeId>, bugs: ChordBugs) -> Self {
        Chord {
            bootstrap,
            bugs,
            ..Chord::default()
        }
    }
}

/// Join status.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Status {
    /// Not in the ring.
    Init,
    /// `FindPred` issued via `target`.
    Joining(NodeId),
    /// Ring member.
    Joined,
}

/// Local state of one Chord node.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ChordState {
    /// This node's address.
    pub me: NodeId,
    /// Join status.
    pub status: Status,
    /// Predecessor pointer.
    pub predecessor: Option<NodeId>,
    /// Successor list, closest first. `successors[0]` is *the* successor.
    pub successors: Vec<NodeId>,
}

impl ChordState {
    /// The node's own Chord id.
    pub fn id(&self) -> u64 {
        chord_id(self.me)
    }

    /// The immediate successor, if any.
    pub fn successor(&self) -> Option<NodeId> {
        self.successors.first().copied()
    }

    /// One-line rendering for examples and reports.
    pub fn view(&self) -> String {
        format!(
            "{:?} pred={} succs={:?}",
            self.status,
            self.predecessor.map_or("-".into(), |n| n.to_string()),
            self.successors.iter().map(|n| n.0).collect::<Vec<_>>(),
        )
    }

    /// Truncates the successor list to the configured length, deduplicating
    /// while preserving order.
    fn trim_successors(&mut self, max: usize) {
        let mut seen = std::collections::BTreeSet::new();
        self.successors.retain(|s| seen.insert(*s));
        self.successors.truncate(max);
    }
}

impl Encode for Status {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Status::Init => buf.push(0),
            Status::Joining(t) => {
                buf.push(1);
                t.encode(buf);
            }
            Status::Joined => buf.push(2),
        }
    }
}

impl Decode for Status {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.byte()? {
            0 => Ok(Status::Init),
            1 => Ok(Status::Joining(NodeId::decode(r)?)),
            2 => Ok(Status::Joined),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for ChordState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.me.encode(buf);
        self.status.encode(buf);
        self.predecessor.encode(buf);
        self.successors.encode(buf);
    }
}

impl Decode for ChordState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ChordState {
            me: NodeId::decode(r)?,
            status: Status::decode(r)?,
            predecessor: Option::decode(r)?,
            successors: Vec::decode(r)?,
        })
    }
}

/// Chord wire messages.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Find the predecessor-to-be of `joiner`; routed around the ring.
    FindPred {
        /// The joining node.
        joiner: NodeId,
    },
    /// The responsible node accepts `joiner` between itself and its
    /// successor; carries its successor list (Fig. 10: "A replies to C by
    /// a FindPredReply message that shows A's successor to be C").
    FindPredReply {
        /// The responder's successor list at reply time.
        succs: Vec<NodeId>,
    },
    /// "Your new predecessor is me" — sent by a joiner to its new
    /// successor.
    UpdatePred,
    /// Stabilize: ask the successor for its predecessor and successors.
    GetPred,
    /// Answer to [`Msg::GetPred`].
    GetPredReply {
        /// The responder's predecessor pointer.
        pred: Option<NodeId>,
        /// The responder's successor list.
        succs: Vec<NodeId>,
    },
}

impl Encode for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::FindPred { joiner } => {
                buf.push(0);
                joiner.encode(buf);
            }
            Msg::FindPredReply { succs } => {
                buf.push(1);
                succs.encode(buf);
            }
            Msg::UpdatePred => buf.push(2),
            Msg::GetPred => buf.push(3),
            Msg::GetPredReply { pred, succs } => {
                buf.push(4);
                pred.encode(buf);
                succs.encode(buf);
            }
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => Msg::FindPred {
                joiner: NodeId::decode(r)?,
            },
            1 => Msg::FindPredReply {
                succs: Vec::decode(r)?,
            },
            2 => Msg::UpdatePred,
            3 => Msg::GetPred,
            4 => Msg::GetPredReply {
                pred: Option::decode(r)?,
                succs: Vec::decode(r)?,
            },
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// Internal actions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Application asks the node to join via `target` (self-join bootstraps
    /// a one-node ring).
    Join {
        /// Designated node to contact.
        target: NodeId,
    },
    /// The stabilize timer fires.
    Stabilize,
}

impl Protocol for Chord {
    type State = ChordState;
    type Message = Msg;
    type Action = Action;

    fn name(&self) -> &'static str {
        "chord"
    }

    fn init(&self, node: NodeId) -> ChordState {
        ChordState {
            me: node,
            status: Status::Init,
            predecessor: None,
            successors: Vec::new(),
        }
    }

    fn on_message(
        &self,
        node: NodeId,
        state: &mut ChordState,
        from: NodeId,
        msg: &Msg,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match msg {
            Msg::FindPred { joiner } => self.handle_find_pred(state, *joiner, out),
            Msg::FindPredReply { succs } => self.handle_find_pred_reply(state, from, succs, out),
            Msg::UpdatePred => self.handle_update_pred(state, from),
            Msg::GetPred => {
                out.send(
                    from,
                    Msg::GetPredReply {
                        pred: state.predecessor,
                        succs: state.successors.clone(),
                    },
                );
            }
            Msg::GetPredReply { pred, succs } => {
                self.handle_get_pred_reply(state, from, *pred, succs, out)
            }
        }
    }

    fn on_error(&self, node: NodeId, state: &mut ChordState, peer: NodeId, out: &mut Outbox<Msg>) {
        debug_assert_eq!(node, state.me);
        let _ = out;
        // "Upon receiving this error, node A removes B from its internal
        // data structures" (Fig. 10 narration).
        state.successors.retain(|s| *s != peer);
        if state.predecessor == Some(peer) {
            state.predecessor = None;
        }
        if let Status::Joining(target) = state.status {
            if target == peer {
                state.status = Status::Init;
            }
        }
        if state.status == Status::Joined
            && state.successors.is_empty()
            && !self.bugs.c3_error_leaves_empty_successors
        {
            // Correction for C3: fall back to a self-ring instead of
            // keeping an empty successor list.
            state.successors.push(state.me);
        }
    }

    fn enabled_actions(&self, node: NodeId, state: &ChordState, acts: &mut Vec<Action>) {
        if state.status == Status::Init {
            for &target in &self.bootstrap {
                if target == node {
                    if self.bootstrap.iter().all(|b| node <= *b) {
                        acts.push(Action::Join { target });
                    }
                } else {
                    acts.push(Action::Join { target });
                }
            }
        }
        if state.status == Status::Joined && !state.successors.is_empty() {
            acts.push(Action::Stabilize);
        }
    }

    fn on_action(
        &self,
        node: NodeId,
        state: &mut ChordState,
        action: &Action,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match action {
            Action::Join { target } if *target == state.me => {
                if state.status != Status::Init {
                    return;
                }
                // Bootstrap a one-node ring: everything points at self.
                state.status = Status::Joined;
                state.predecessor = Some(state.me);
                state.successors = vec![state.me];
            }
            Action::Join { target } => {
                if state.status != Status::Init {
                    return;
                }
                state.status = Status::Joining(*target);
                out.send(*target, Msg::FindPred { joiner: state.me });
            }
            Action::Stabilize => {
                if let Some(succ) = state.successor() {
                    if succ != state.me {
                        out.send(succ, Msg::GetPred);
                    }
                }
            }
        }
    }

    fn schedule(&self, action: &Action) -> Schedule {
        match action {
            Action::Join { .. } => Schedule::External,
            Action::Stabilize => Schedule::Periodic(self.stabilize_period),
        }
    }

    fn neighborhood(&self, _node: NodeId, state: &ChordState) -> Option<Vec<NodeId>> {
        // §3.1: "a distributed hash table node keeps track of O(log n)
        // other nodes" — here: predecessor + successor list.
        let mut n: Vec<NodeId> = state.successors.clone();
        if let Some(p) = state.predecessor {
            n.push(p);
        }
        n.retain(|x| *x != state.me);
        n.dedup();
        Some(n)
    }

    fn message_kind(msg: &Msg) -> &'static str {
        match msg {
            Msg::FindPred { .. } => "FindPred",
            Msg::FindPredReply { .. } => "FindPredReply",
            Msg::UpdatePred => "UpdatePred",
            Msg::GetPred => "GetPred",
            Msg::GetPredReply { .. } => "GetPredReply",
        }
    }

    fn action_kind(action: &Action) -> &'static str {
        match action {
            Action::Join { .. } => "Join",
            Action::Stabilize => "Stabilize",
        }
    }

    fn message_kinds(&self) -> &'static [&'static str] {
        &[
            "FindPred",
            "FindPredReply",
            "UpdatePred",
            "GetPred",
            "GetPredReply",
        ]
    }

    fn action_kinds(&self) -> &'static [&'static str] {
        &["Join", "Stabilize"]
    }
}

impl Chord {
    fn handle_find_pred(&self, state: &mut ChordState, joiner: NodeId, out: &mut Outbox<Msg>) {
        if state.status != Status::Joined || joiner == state.me {
            return;
        }
        let Some(succ) = state.successor() else {
            return;
        };
        if succ == state.me || between_right_closed(state.id(), chord_id(joiner), chord_id(succ)) {
            // The joiner slots in between us and our successor: we are its
            // predecessor. Reply with our successor list as-is — the ring
            // pointers only move when the joiner's UpdatePred arrives,
            // which is why two concurrent joiners get "exactly the same
            // information" (Fig. 11).
            out.send(
                joiner,
                Msg::FindPredReply {
                    succs: state.successors.clone(),
                },
            );
        } else {
            // Route the query onward around the ring.
            out.send(succ, Msg::FindPred { joiner });
        }
    }

    fn handle_find_pred_reply(
        &self,
        state: &mut ChordState,
        from: NodeId,
        succs: &[NodeId],
        out: &mut Outbox<Msg>,
    ) {
        if !matches!(state.status, Status::Joining(_)) {
            return;
        }
        // Fig. 10: "node C i) sets its predecessor to A; ii) stores the
        // successor list included in the message as its successor list; and
        // iii) sends an UpdatePred message to A's successor."
        state.status = Status::Joined;
        state.predecessor = Some(from);
        state.successors = succs.to_vec();
        if state.successors.is_empty() {
            state.successors.push(from);
        }
        state.trim_successors(self.succ_list_len);
        if !self.bugs.c2_merge_keeps_stale_pred {
            // Same correction as in the stabilize merge (§5.2.2): the
            // responder's successor list may name nodes between it and us
            // (stale entries from before our reset); any such node is a
            // better predecessor than the responder.
            for &s in &state.successors.clone() {
                if let Some(p) = state.predecessor {
                    if s != state.me && between_open(chord_id(p), chord_id(s), state.id()) {
                        state.predecessor = Some(s);
                    }
                }
            }
        }
        if let Some(succ) = state.successor() {
            if succ != state.me {
                out.send(succ, Msg::UpdatePred);
            } else if self.bugs.c1_self_update_pred {
                // The buggy code path sends the loopback UpdatePred; "this
                // appears to be a deliberate coding style in Mace Chord"
                // and the guard below is what is actually missing.
                out.send(succ, Msg::UpdatePred);
            }
        }
    }

    fn handle_update_pred(&self, state: &mut ChordState, from: NodeId) {
        if state.status != Status::Joined {
            return;
        }
        let adopt = match state.predecessor {
            None => {
                // Fig. 10: "C observes that the predecessor is unset and
                // then sets it to the sender." Under the correction, a
                // self-pointer is rejected while other successors exist.
                !(from == state.me
                    && !self.bugs.c1_self_update_pred
                    && state.successors.iter().any(|s| *s != state.me))
            }
            Some(p) => between_open(chord_id(p), chord_id(from), state.id()),
        };
        if adopt {
            state.predecessor = Some(from);
        }
        // A brand-new ring member may also become our successor (one-node
        // ring accepting its first peer).
        if (state.successors.is_empty() || state.successor() == Some(state.me)) && from != state.me
        {
            state.successors.insert(0, from);
            state.trim_successors(self.succ_list_len);
        }
    }

    fn handle_get_pred_reply(
        &self,
        state: &mut ChordState,
        from: NodeId,
        pred: Option<NodeId>,
        succs: &[NodeId],
        out: &mut Outbox<Msg>,
    ) {
        if state.status != Status::Joined {
            return;
        }
        // Standard stabilize: if our successor's predecessor sits between
        // us and the successor, it is our better successor.
        if let Some(p) = pred {
            if p != state.me
                && state.successor() == Some(from)
                && between_open(state.id(), chord_id(p), chord_id(from))
            {
                state.successors.insert(0, p);
                state.trim_successors(self.succ_list_len);
                if let Some(succ) = state.successor() {
                    if succ != state.me {
                        out.send(succ, Msg::UpdatePred);
                    }
                }
            }
        }
        // Merge the successor's list into ours (Fig. 11: "Ai−1 adds Ai−2 to
        // its successor list...").
        let mut merged = vec![];
        if let Some(s) = state.successor() {
            merged.push(s);
        }
        merged.extend(succs.iter().copied().filter(|s| *s != state.me));
        let old_tail: Vec<NodeId> = state.successors.iter().skip(1).copied().collect();
        merged.extend(old_tail);
        state.successors = merged;
        state.trim_successors(self.succ_list_len);
        if !self.bugs.c2_merge_keeps_stale_pred {
            // The §5.2.2 correction: "updating the predecessor after
            // updating the successor list" — any merged node that falls
            // between our predecessor and us is a better predecessor.
            for &s in &state.successors.clone() {
                if let Some(p) = state.predecessor {
                    if s != state.me && between_open(chord_id(p), chord_id(s), state.id()) {
                        state.predecessor = Some(s);
                    }
                }
            }
        }
    }
}

impl fmt::Display for ChordState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.me, self.view())
    }
}

/// The safety properties of §5.2.2.
pub mod properties {
    use super::*;
    use cb_model::node_property;

    /// "If a predecessor of a node A equals A, then its successor must also
    /// be A (because then A is the only node in the ring)."
    pub fn pred_self_implies_succ_self() -> impl cb_model::Property<Chord> {
        node_property("PredSelfImpliesSuccSelf", |_n, s: &ChordState| {
            if s.predecessor == Some(s.me) && s.successors.iter().any(|x| *x != s.me) {
                Err(format!(
                    "pred is self but successors are {:?}",
                    s.successors
                ))
            } else {
                Ok(())
            }
        })
    }

    /// "If a node A has a predecessor P and one of its successors is S,
    /// then the id of S should not be between the id of P and the id of A."
    pub fn node_ordering() -> impl cb_model::Property<Chord> {
        node_property("NodeOrdering", |_n, s: &ChordState| {
            if let Some(p) = s.predecessor {
                if p != s.me {
                    for &succ in &s.successors {
                        if succ != s.me
                            && succ != p
                            && between_open(chord_id(p), chord_id(succ), s.id())
                        {
                            return Err(format!(
                                "successor {succ} lies between predecessor {p} and self"
                            ));
                        }
                    }
                }
            }
            Ok(())
        })
    }

    /// A joined node must always have at least one successor (C3).
    pub fn successors_non_empty() -> impl cb_model::Property<Chord> {
        node_property("SuccessorsNonEmpty", |_n, s: &ChordState| {
            if s.status == Status::Joined && s.successors.is_empty() {
                Err("joined node with empty successor list".to_string())
            } else {
                Ok(())
            }
        })
    }

    /// Every Chord property, as installed in the paper's experiments.
    pub fn all() -> PropertySet<Chord> {
        PropertySet::new()
            .with(pred_self_implies_succ_self())
            .with(node_ordering())
            .with(successors_non_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{apply_event, Event, GlobalState};

    fn settle(cfg: &Chord, gs: &mut GlobalState<Chord>) {
        let mut steps = 0;
        while !gs.inflight.is_empty() {
            apply_event(cfg, gs, &Event::Deliver { index: 0 });
            steps += 1;
            assert!(steps < 1000, "did not settle");
        }
    }

    fn join(cfg: &Chord, gs: &mut GlobalState<Chord>, node: NodeId, target: NodeId) {
        apply_event(
            cfg,
            gs,
            &Event::Action {
                node,
                action: Action::Join { target },
            },
        );
        settle(cfg, gs);
    }

    fn stabilize(cfg: &Chord, gs: &mut GlobalState<Chord>, node: NodeId) {
        apply_event(
            cfg,
            gs,
            &Event::Action {
                node,
                action: Action::Stabilize,
            },
        );
        settle(cfg, gs);
    }

    #[test]
    fn self_join_builds_one_node_ring() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        let s = &gs.slot(NodeId(1)).unwrap().state;
        assert_eq!(s.predecessor, Some(NodeId(1)));
        assert_eq!(s.successors, vec![NodeId(1)]);
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn two_nodes_form_a_ring() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        join(&c, &mut gs, NodeId(5), NodeId(1));
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        let s5 = &gs.slot(NodeId(5)).unwrap().state;
        assert_eq!(s1.successor(), Some(NodeId(5)), "n1: {}", s1.view());
        assert_eq!(s5.predecessor, Some(NodeId(1)), "n5: {}", s5.view());
        assert_eq!(s5.successor(), Some(NodeId(1)));
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn three_nodes_stabilize_into_order() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5), NodeId(9)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        join(&c, &mut gs, NodeId(9), NodeId(1));
        join(&c, &mut gs, NodeId(5), NodeId(1));
        for _ in 0..4 {
            for n in [1u32, 5, 9] {
                stabilize(&c, &mut gs, NodeId(n));
            }
        }
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        let s5 = &gs.slot(NodeId(5)).unwrap().state;
        let s9 = &gs.slot(NodeId(9)).unwrap().state;
        assert_eq!(s1.successor(), Some(NodeId(5)), "n1: {}", s1.view());
        assert_eq!(s5.successor(), Some(NodeId(9)), "n5: {}", s5.view());
        assert_eq!(s9.successor(), Some(NodeId(1)), "n9: {}", s9.view());
        assert!(properties::all().check(&gs).is_none());
    }

    /// Delivers the first in-flight message matching `pred`; panics if none.
    fn deliver_where(
        cfg: &Chord,
        gs: &mut GlobalState<Chord>,
        pred: impl Fn(&cb_model::InFlight<Msg>) -> bool,
    ) {
        let index = gs
            .inflight
            .iter()
            .position(|m| pred(m))
            .expect("matching message in flight");
        apply_event(cfg, gs, &Event::Deliver { index });
    }

    fn is_kind(m: &cb_model::InFlight<Msg>, kind: &str) -> bool {
        matches!(&m.payload, cb_model::Payload::Msg(msg) if Chord::message_kind(msg) == kind)
    }

    /// Builds a stabilized 4-node ring 1→5→9→12 via joins + stabilize
    /// rounds.
    fn ring_of_four(c: &Chord) -> GlobalState<Chord> {
        let mut gs = GlobalState::init(c, [NodeId(1), NodeId(5), NodeId(9), NodeId(12)]);
        join(c, &mut gs, NodeId(1), NodeId(1));
        join(c, &mut gs, NodeId(5), NodeId(1));
        join(c, &mut gs, NodeId(9), NodeId(1));
        join(c, &mut gs, NodeId(12), NodeId(1));
        for _ in 0..6 {
            for n in [1u32, 5, 9, 12] {
                stabilize(c, &mut gs, NodeId(n));
            }
        }
        gs
    }

    /// The Fig. 10 scenario: B leaves (observed by A), C resets silently
    /// and rejoins via A; after a transport error clears C's predecessor,
    /// the loopback UpdatePred makes C its own predecessor while its
    /// successor list names other nodes.
    #[test]
    fn fig10_pred_self_violation_with_c1() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::only("C1"));
        // A=1, B=5, C=9 consecutive on the ring; 12 is the rest of it.
        let mut gs = ring_of_four(&c);
        assert!(properties::all().check(&gs).is_none());

        // B resets with RSTs; "node A removes B from its internal data
        // structures. As a consequence, Node A considers C as its immediate
        // successor."
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(5),
                notify: true,
            },
        );
        settle(&c, &mut gs);
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert_eq!(
            s1.successor(),
            Some(NodeId(9)),
            "A sees C as successor: {}",
            s1.view()
        );

        // C resets silently ("nodes A and C did not have an established TCP
        // connection, [so] A does not observe the reset of C") and rejoins
        // via A.
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(9),
                notify: false,
            },
        );
        apply_event(
            &c,
            &mut gs,
            &Event::Action {
                node: NodeId(9),
                action: Action::Join { target: NodeId(1) },
            },
        );
        deliver_where(&c, &mut gs, |m| is_kind(m, "FindPred"));
        // "Node A replies to C by a FindPredReply message that shows A's
        // successor to be C" — C sets pred=A, stores the successor list,
        // and (buggy) sends the loopback UpdatePred to itself.
        deliver_where(&c, &mut gs, |m| is_kind(m, "FindPredReply"));
        let s9 = &gs.slot(NodeId(9)).unwrap().state;
        assert_eq!(s9.predecessor, Some(NodeId(1)));
        assert_eq!(
            s9.successor(),
            Some(NodeId(9)),
            "A's reply named C itself: {}",
            s9.view()
        );
        // "After sending this message, C receives a transport error from A
        // and removes A from all of its internal structures including the
        // predecessor pointer."
        apply_event(
            &c,
            &mut gs,
            &Event::PeerError {
                node: NodeId(9),
                peer: NodeId(1),
            },
        );
        assert_eq!(gs.slot(NodeId(9)).unwrap().state.predecessor, None);
        // "Upon receiving the (loopback) message to itself, C observes that
        // the predecessor is unset and then sets it to the sender ... which
        // is C."
        deliver_where(&c, &mut gs, |m| {
            m.src == NodeId(9) && is_kind(m, "UpdatePred")
        });
        let s9 = &gs.slot(NodeId(9)).unwrap().state;
        assert_eq!(
            s9.predecessor,
            Some(NodeId(9)),
            "C's pred is itself: {}",
            s9.view()
        );
        let v = properties::all().check(&gs).expect("Fig. 10 violation");
        assert_eq!(v.property, "PredSelfImpliesSuccSelf");
        assert_eq!(v.node, Some(NodeId(9)));
    }

    #[test]
    fn fig10_scenario_clean_with_fix() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = ring_of_four(&c);
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(5),
                notify: true,
            },
        );
        settle(&c, &mut gs);
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(9),
                notify: false,
            },
        );
        apply_event(
            &c,
            &mut gs,
            &Event::Action {
                node: NodeId(9),
                action: Action::Join { target: NodeId(1) },
            },
        );
        deliver_where(&c, &mut gs, |m| is_kind(m, "FindPred"));
        deliver_where(&c, &mut gs, |m| is_kind(m, "FindPredReply"));
        // The corrected joiner never sends the loopback UpdatePred.
        assert!(
            !gs.inflight.iter().any(|m| is_kind(m, "UpdatePred")),
            "no loopback UpdatePred under the fix"
        );
        apply_event(
            &c,
            &mut gs,
            &Event::PeerError {
                node: NodeId(9),
                peer: NodeId(1),
            },
        );
        settle(&c, &mut gs);
        assert!(
            properties::all().check(&gs).is_none(),
            "fixed code avoids self-pred"
        );
    }

    /// The Fig. 11 scenario: two nodes join through the same node and get
    /// identical FindPredReply information; a later stabilize merges a
    /// successor that violates the ordering constraint under C2.
    #[test]
    fn fig11_ordering_violation_with_c2() {
        let c = Chord::new(vec![NodeId(9)], ChordBugs::only("C2"));
        // Ai = 9 (bootstraps the ring), Ai-1 = 5, Ai-2 = 3.
        let mut gs = GlobalState::init(&c, [NodeId(3), NodeId(5), NodeId(9)]);
        join(&c, &mut gs, NodeId(9), NodeId(9));
        // Both joiners issue FindPred to 9 concurrently; "Node Ai sends two
        // FindPredReply back to Ai−1 and Ai−2 with exactly the same
        // information."
        for n in [5u32, 3] {
            apply_event(
                &c,
                &mut gs,
                &Event::Action {
                    node: NodeId(n),
                    action: Action::Join { target: NodeId(9) },
                },
            );
        }
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(9) && is_kind(m, "FindPred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(9) && is_kind(m, "FindPred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(5) && is_kind(m, "FindPredReply")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(3) && is_kind(m, "FindPredReply")
        });
        // "Finally, Node Ai sets its predecessor to Ai−1 and successor to
        // Ai−2" — Ai-2's UpdatePred is processed first.
        deliver_where(&c, &mut gs, |m| {
            m.src == NodeId(3) && is_kind(m, "UpdatePred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.src == NodeId(5) && is_kind(m, "UpdatePred")
        });
        let s9 = &gs.slot(NodeId(9)).unwrap().state;
        assert_eq!(s9.predecessor, Some(NodeId(5)), "Ai: {}", s9.view());
        assert_eq!(s9.successor(), Some(NodeId(3)), "Ai: {}", s9.view());
        let s5 = &gs.slot(NodeId(5)).unwrap().state;
        assert_eq!(
            s5.predecessor,
            Some(NodeId(9)),
            "Ai-1's pred is Ai: {}",
            s5.view()
        );
        assert!(properties::all().check(&gs).is_none());
        // "Stabilizer timer of Ai−1 fires": the GetPredReply brings Ai-2
        // into Ai-1's successor list while its pred still points at Ai.
        stabilize(&c, &mut gs, NodeId(5));
        let v = properties::all().check(&gs).expect("Fig. 11 violation");
        assert_eq!(v.property, "NodeOrdering");
        assert_eq!(v.node, Some(NodeId(5)));
    }

    #[test]
    fn fig11_scenario_clean_with_fix() {
        let c = Chord::new(vec![NodeId(9)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(3), NodeId(5), NodeId(9)]);
        join(&c, &mut gs, NodeId(9), NodeId(9));
        for n in [5u32, 3] {
            apply_event(
                &c,
                &mut gs,
                &Event::Action {
                    node: NodeId(n),
                    action: Action::Join { target: NodeId(9) },
                },
            );
        }
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(9) && is_kind(m, "FindPred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(9) && is_kind(m, "FindPred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(5) && is_kind(m, "FindPredReply")
        });
        deliver_where(&c, &mut gs, |m| {
            m.dst == NodeId(3) && is_kind(m, "FindPredReply")
        });
        deliver_where(&c, &mut gs, |m| {
            m.src == NodeId(3) && is_kind(m, "UpdatePred")
        });
        deliver_where(&c, &mut gs, |m| {
            m.src == NodeId(5) && is_kind(m, "UpdatePred")
        });
        stabilize(&c, &mut gs, NodeId(5));
        assert!(
            properties::all().check(&gs).is_none(),
            "fix updates pred during merge"
        );
    }

    #[test]
    fn error_cleanup_violation_with_c3() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::only("C3"));
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        join(&c, &mut gs, NodeId(5), NodeId(1));
        assert!(properties::all().check(&gs).is_none());
        // n1 dies with RSTs; n5's successor list was exactly [n1] and the
        // buggy cleanup leaves it empty.
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(1),
                notify: true,
            },
        );
        settle(&c, &mut gs);
        let v = properties::all().check(&gs).expect("C3 violation");
        assert_eq!(v.property, "SuccessorsNonEmpty");
        assert_eq!(v.node, Some(NodeId(5)));
    }

    #[test]
    fn error_cleanup_clean_with_fix() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        join(&c, &mut gs, NodeId(5), NodeId(1));
        apply_event(
            &c,
            &mut gs,
            &Event::Reset {
                node: NodeId(1),
                notify: true,
            },
        );
        settle(&c, &mut gs);
        let s5 = &gs.slot(NodeId(5)).unwrap().state;
        assert_eq!(s5.successors, vec![NodeId(5)], "falls back to self-ring");
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn find_pred_routes_around_ring() {
        let c = Chord::new(vec![NodeId(1)], ChordBugs::none());
        let mut gs = GlobalState::init(&c, [NodeId(1), NodeId(5), NodeId(9), NodeId(7)]);
        join(&c, &mut gs, NodeId(1), NodeId(1));
        join(&c, &mut gs, NodeId(5), NodeId(1));
        join(&c, &mut gs, NodeId(9), NodeId(1));
        for _ in 0..4 {
            for n in [1u32, 5, 9] {
                stabilize(&c, &mut gs, NodeId(n));
            }
        }
        // n7 joins via n1; its place is between 5 and 9, so the query must
        // be routed to n5.
        join(&c, &mut gs, NodeId(7), NodeId(1));
        let s7 = &gs.slot(NodeId(7)).unwrap().state;
        assert_eq!(s7.predecessor, Some(NodeId(5)), "n7: {}", s7.view());
        assert_eq!(s7.successor(), Some(NodeId(9)));
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn state_and_message_codec_roundtrip() {
        let s = ChordState {
            me: NodeId(5),
            status: Status::Joining(NodeId(1)),
            predecessor: Some(NodeId(3)),
            successors: vec![NodeId(9), NodeId(1)],
        };
        assert_eq!(ChordState::from_bytes(&s.to_bytes()).unwrap(), s);
        for m in [
            Msg::FindPred { joiner: NodeId(7) },
            Msg::FindPredReply {
                succs: vec![NodeId(1), NodeId(2)],
            },
            Msg::UpdatePred,
            Msg::GetPred,
            Msg::GetPredReply {
                pred: None,
                succs: vec![],
            },
        ] {
            assert_eq!(Msg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn kinds_schedules_and_neighborhood() {
        let c = Chord::default();
        assert_eq!(c.name(), "chord");
        assert_eq!(Chord::message_kind(&Msg::UpdatePred), "UpdatePred");
        assert_eq!(Chord::action_kind(&Action::Stabilize), "Stabilize");
        assert!(matches!(
            c.schedule(&Action::Stabilize),
            Schedule::Periodic(_)
        ));
        assert_eq!(
            c.schedule(&Action::Join { target: NodeId(0) }),
            Schedule::External
        );
        let s = ChordState {
            me: NodeId(5),
            status: Status::Joined,
            predecessor: Some(NodeId(3)),
            successors: vec![NodeId(9), NodeId(5)],
        };
        let n = c.neighborhood(NodeId(5), &s).unwrap();
        assert_eq!(n, vec![NodeId(9), NodeId(3)]);
    }

    #[test]
    fn trim_successors_dedups_and_truncates() {
        let mut s = ChordState {
            me: NodeId(5),
            status: Status::Joined,
            predecessor: None,
            successors: vec![NodeId(9), NodeId(9), NodeId(1), NodeId(2), NodeId(3)],
        };
        s.trim_successors(3);
        assert_eq!(s.successors, vec![NodeId(9), NodeId(1), NodeId(2)]);
    }
}
