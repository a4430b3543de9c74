//! Paxos consensus (§5.4.2), with the two injected bugs used in the
//! execution-steering evaluation.
//!
//! Every node plays all three roles, as in the paper's experiments ("each
//! node plays all the roles"). The protocol follows the five steps of the
//! paper's footnote: Prepare → Promise → Accept → Learn → chosen-by-
//! majority. The safety property is "the original Paxos safety property:
//! at most one value can be chosen, across all nodes".
//!
//! The injected bugs:
//!
//! * **P1** (from WiDS-checker \[28\]): when assembling the Accept request,
//!   the leader "us\[es\] the submitted value from the last Promise message
//!   instead of the Promise message with highest round number".
//! * **P2** (inspired by Paxos Made Live \[4\]): an acceptor's promise is not
//!   written to disk, so it is forgotten across a crash/reboot.
//!
//! Crashes are modeled as a protocol-level [`Action::Crash`] rather than the
//! model's `Event::Reset`, because a Paxos reboot must *keep* its durable
//! state — exactly the distinction bug P2 is about. Model-level resets
//! should stay disabled when checking Paxos.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cb_model::{
    Decode, DecodeError, Encode, NodeId, Outbox, PropertySet, Protocol, Reader, Schedule,
};

/// The injected Paxos bugs. `true` = buggy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PaxosBugs {
    /// P1 — leader picks the value of the *last received* promise instead
    /// of the promise with the highest accepted round.
    pub p1_last_promise_value: bool,
    /// P2 — promises are not persisted; a crash forgets them.
    pub p2_promise_not_persisted: bool,
}

impl PaxosBugs {
    /// Both bugs present.
    pub fn as_shipped() -> Self {
        PaxosBugs {
            p1_last_promise_value: true,
            p2_promise_not_persisted: true,
        }
    }

    /// Correct implementation.
    pub fn none() -> Self {
        PaxosBugs {
            p1_last_promise_value: false,
            p2_promise_not_persisted: false,
        }
    }

    /// Only the named bug (`"P1"` or `"P2"`) enabled.
    pub fn only(name: &str) -> Self {
        let mut b = Self::none();
        match name {
            "P1" => b.p1_last_promise_value = true,
            "P2" => b.p2_promise_not_persisted = true,
            other => panic!("unknown Paxos bug {other}"),
        }
        b
    }

    /// All bug names.
    pub const NAMES: [&'static str; 2] = ["P1", "P2"];
}

/// Paxos configuration: the member set and bug flags.
#[derive(Clone, Debug)]
pub struct Paxos {
    /// All participants (proposers = acceptors = learners).
    pub members: Vec<NodeId>,
    /// Which bugs are injected.
    pub bugs: PaxosBugs,
    /// Whether the crash action is exposed to the model checker / runtime.
    pub crash_action: bool,
}

impl Paxos {
    /// Creates a configuration for `members`.
    pub fn new(members: Vec<NodeId>, bugs: PaxosBugs) -> Self {
        Paxos {
            members,
            bugs,
            crash_action: false,
        }
    }

    /// Enables the crash action (needed to expose P2).
    pub fn with_crashes(mut self) -> Self {
        self.crash_action = true;
        self
    }

    /// Majority quorum size.
    pub fn majority(&self) -> usize {
        self.members.len() / 2 + 1
    }

    /// The value node `n` proposes (its address, as a stand-in for a client
    /// request).
    pub fn proposal_value(&self, n: NodeId) -> u64 {
        u64::from(n.0)
    }

    fn round_for(&self, n: NodeId, attempt: u32) -> u64 {
        let idx = self.members.iter().position(|m| *m == n).unwrap_or(0) as u64;
        u64::from(attempt) * self.members.len() as u64 + idx
    }
}

/// Local state of one Paxos node (all three roles).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PaxosState {
    /// This node's address.
    pub me: NodeId,
    // --- proposer ---
    /// Proposal attempts made (gives unique rounds).
    pub attempt: u32,
    /// Round of the in-progress proposal, if any.
    pub current_round: Option<u64>,
    /// Promises received for `current_round`, in arrival order:
    /// `(acceptor, last accepted (round, value))`.
    pub promises: Vec<(NodeId, Option<(u64, u64)>)>,
    /// Whether the Accept round has been broadcast already.
    pub accept_sent: bool,
    // --- acceptor ---
    /// Highest round promised (volatile copy).
    pub promised: Option<u64>,
    /// Last accepted `(round, value)` (volatile copy).
    pub accepted: Option<(u64, u64)>,
    /// Durable copy of `promised` (survives crashes when written).
    pub disk_promised: Option<u64>,
    /// Durable copy of `accepted`.
    pub disk_accepted: Option<(u64, u64)>,
    // --- learner ---
    /// Learn messages seen: `(round, value)` → acceptors that reported it.
    pub learns: BTreeMap<(u64, u64), BTreeSet<NodeId>>,
    /// Values this node considers chosen.
    pub chosen: BTreeSet<u64>,
}

impl PaxosState {
    /// One-line rendering for reports.
    pub fn view(&self) -> String {
        format!(
            "promised={:?} accepted={:?} chosen={:?}",
            self.promised,
            self.accepted,
            self.chosen.iter().collect::<Vec<_>>()
        )
    }
}

impl Encode for PaxosState {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.me.encode(buf);
        self.attempt.encode(buf);
        self.current_round.encode(buf);
        (self.promises.len() as u64).encode(buf);
        for (n, last) in &self.promises {
            n.encode(buf);
            last.encode(buf);
        }
        self.accept_sent.encode(buf);
        self.promised.encode(buf);
        self.accepted.encode(buf);
        self.disk_promised.encode(buf);
        self.disk_accepted.encode(buf);
        self.learns.encode(buf);
        self.chosen.encode(buf);
    }
}

impl Decode for PaxosState {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let me = NodeId::decode(r)?;
        let attempt = u32::decode(r)?;
        let current_round = Option::decode(r)?;
        let n = r.length()?;
        let mut promises = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            promises.push((NodeId::decode(r)?, Option::decode(r)?));
        }
        Ok(PaxosState {
            me,
            attempt,
            current_round,
            promises,
            accept_sent: bool::decode(r)?,
            promised: Option::decode(r)?,
            accepted: Option::decode(r)?,
            disk_promised: Option::decode(r)?,
            disk_accepted: Option::decode(r)?,
            learns: BTreeMap::decode(r)?,
            chosen: BTreeSet::decode(r)?,
        })
    }
}

/// Paxos wire messages (the five steps of §5.4.2's footnote).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Msg {
    /// Step 1: leadership bid with a unique round number.
    Prepare {
        /// The proposer's round.
        round: u64,
    },
    /// Step 2: acceptor's promise, with its last accepted proposal.
    Promise {
        /// The round being promised.
        round: u64,
        /// The acceptor's last accepted `(round, value)`, if any.
        last: Option<(u64, u64)>,
    },
    /// Step 3: accept request.
    Accept {
        /// Proposal round.
        round: u64,
        /// Proposed value.
        value: u64,
    },
    /// Step 4: acceptor → learners broadcast of an accepted value.
    Learn {
        /// Accepted round.
        round: u64,
        /// Accepted value.
        value: u64,
    },
}

impl Encode for Msg {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Msg::Prepare { round } => {
                buf.push(0);
                round.encode(buf);
            }
            Msg::Promise { round, last } => {
                buf.push(1);
                round.encode(buf);
                last.encode(buf);
            }
            Msg::Accept { round, value } => {
                buf.push(2);
                round.encode(buf);
                value.encode(buf);
            }
            Msg::Learn { round, value } => {
                buf.push(3);
                round.encode(buf);
                value.encode(buf);
            }
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => Msg::Prepare {
                round: u64::decode(r)?,
            },
            1 => Msg::Promise {
                round: u64::decode(r)?,
                last: Option::decode(r)?,
            },
            2 => Msg::Accept {
                round: u64::decode(r)?,
                value: u64::decode(r)?,
            },
            3 => Msg::Learn {
                round: u64::decode(r)?,
                value: u64::decode(r)?,
            },
            t => return Err(DecodeError::BadTag(t)),
        })
    }
}

/// Internal actions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Action {
    /// Start a new proposal round (application call).
    Propose,
    /// Retransmit the current round's Accept request (leaders re-send
    /// until they hear a majority of Learns; this is the retransmission
    /// that meets a promise-forgetting acceptor in the bug2 scenario).
    ResendAccept,
    /// Crash and reboot: volatile state is lost, durable state restored.
    Crash,
}

impl Protocol for Paxos {
    type State = PaxosState;
    type Message = Msg;
    type Action = Action;

    fn name(&self) -> &'static str {
        "paxos"
    }

    fn init(&self, node: NodeId) -> PaxosState {
        PaxosState {
            me: node,
            attempt: 0,
            current_round: None,
            promises: Vec::new(),
            accept_sent: false,
            promised: None,
            accepted: None,
            disk_promised: None,
            disk_accepted: None,
            learns: BTreeMap::new(),
            chosen: BTreeSet::new(),
        }
    }

    fn on_message(
        &self,
        node: NodeId,
        state: &mut PaxosState,
        from: NodeId,
        msg: &Msg,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match msg {
            Msg::Prepare { round } => {
                // Step 2: promise iff the round is the highest seen.
                if state.promised.is_none_or(|p| *round > p) {
                    state.promised = Some(*round);
                    if !self.bugs.p2_promise_not_persisted {
                        state.disk_promised = Some(*round);
                    }
                    out.send(
                        from,
                        Msg::Promise {
                            round: *round,
                            last: state.accepted,
                        },
                    );
                }
            }
            Msg::Promise { round, last } => self.handle_promise(state, from, *round, *last, out),
            Msg::Accept { round, value } => {
                // Step 4: accept unless promised to a higher round.
                if state.promised.is_none_or(|p| *round >= p) {
                    state.promised = Some(*round);
                    state.accepted = Some((*round, *value));
                    if !self.bugs.p2_promise_not_persisted {
                        // The durable write the buggy acceptor skips: under
                        // P2 a crash loses both the promise and the accepted
                        // proposal ("it is often difficult to implement this
                        // aspect correctly", §5.4.2).
                        state.disk_promised = Some(*round);
                        state.disk_accepted = state.accepted;
                    }
                    for &m in &self.members {
                        out.send(
                            m,
                            Msg::Learn {
                                round: *round,
                                value: *value,
                            },
                        );
                    }
                }
            }
            Msg::Learn { round, value } => {
                // Step 5: a value reported accepted by a majority is chosen.
                let set = state.learns.entry((*round, *value)).or_default();
                set.insert(from);
                if set.len() >= self.majority() {
                    state.chosen.insert(*value);
                }
            }
        }
    }

    fn on_error(
        &self,
        _node: NodeId,
        _state: &mut PaxosState,
        _peer: NodeId,
        _out: &mut Outbox<Msg>,
    ) {
        // Paxos tolerates lost peers by design: a proposer that cannot
        // gather a majority simply never completes the round.
    }

    fn enabled_actions(&self, _node: NodeId, _state: &PaxosState, acts: &mut Vec<Action>) {
        acts.push(Action::Propose);
        // ResendAccept is deliberately NOT enumerated: a retransmission
        // reaches the same states new proposals reach, and exposing it to
        // the checker only multiplies the branching. Scenario scripts can
        // still inject it.
        if self.crash_action {
            acts.push(Action::Crash);
        }
    }

    fn on_action(
        &self,
        node: NodeId,
        state: &mut PaxosState,
        action: &Action,
        out: &mut Outbox<Msg>,
    ) {
        debug_assert_eq!(node, state.me);
        match action {
            Action::Propose => {
                state.attempt += 1;
                let round = self.round_for(state.me, state.attempt);
                state.current_round = Some(round);
                state.promises.clear();
                state.accept_sent = false;
                for &m in &self.members {
                    out.send(m, Msg::Prepare { round });
                }
            }
            Action::ResendAccept => {
                if let (Some(round), true) = (state.current_round, state.accept_sent) {
                    // Replay the value selection deterministically from the
                    // recorded promises (same code path as the first send).
                    let value = if self.bugs.p1_last_promise_value {
                        state
                            .promises
                            .last()
                            .and_then(|(_, l)| *l)
                            .map(|(_, v)| v)
                            .unwrap_or_else(|| self.proposal_value(state.me))
                    } else {
                        state
                            .promises
                            .iter()
                            .filter_map(|(_, l)| *l)
                            .max_by_key(|(r, _)| *r)
                            .map(|(_, v)| v)
                            .unwrap_or_else(|| self.proposal_value(state.me))
                    };
                    for &m in &self.members {
                        out.send(m, Msg::Accept { round, value });
                    }
                }
            }
            Action::Crash => {
                // Volatile state is lost; durable state comes back from
                // "disk". Under P2 the promise was never written.
                let me = state.me;
                let disk_promised = state.disk_promised;
                let disk_accepted = state.disk_accepted;
                *state = self.init(me);
                state.promised = disk_promised;
                state.accepted = disk_accepted;
                state.disk_promised = disk_promised;
                state.disk_accepted = disk_accepted;
            }
        }
    }

    fn schedule(&self, action: &Action) -> Schedule {
        match action {
            Action::Propose | Action::Crash => Schedule::External,
            Action::ResendAccept => Schedule::External,
        }
    }

    fn neighborhood(&self, node: NodeId, _state: &PaxosState) -> Option<Vec<NodeId>> {
        Some(
            self.members
                .iter()
                .copied()
                .filter(|m| *m != node)
                .collect(),
        )
    }

    fn message_kind(msg: &Msg) -> &'static str {
        match msg {
            Msg::Prepare { .. } => "Prepare",
            Msg::Promise { .. } => "Promise",
            Msg::Accept { .. } => "Accept",
            Msg::Learn { .. } => "Learn",
        }
    }

    fn action_kind(action: &Action) -> &'static str {
        match action {
            Action::Propose => "Propose",
            Action::ResendAccept => "ResendAccept",
            Action::Crash => "Crash",
        }
    }

    fn message_kinds(&self) -> &'static [&'static str] {
        &["Prepare", "Promise", "Accept", "Learn"]
    }

    fn action_kinds(&self) -> &'static [&'static str] {
        &["Propose", "ResendAccept", "Crash"]
    }
}

impl Paxos {
    fn handle_promise(
        &self,
        state: &mut PaxosState,
        from: NodeId,
        round: u64,
        last: Option<(u64, u64)>,
        out: &mut Outbox<Msg>,
    ) {
        if state.current_round != Some(round) || state.accept_sent {
            return;
        }
        if !state.promises.iter().any(|(n, _)| *n == from) {
            state.promises.push((from, last));
        }
        if state.promises.len() >= self.majority() {
            // Step 3: choose the value to propose.
            let value = if self.bugs.p1_last_promise_value {
                // P1: "using the submitted value from the last Promise
                // message instead of the Promise message with highest
                // round number" — and if that last promise carried no
                // accepted value, the buggy leader falls back to its own.
                state
                    .promises
                    .last()
                    .and_then(|(_, l)| *l)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| self.proposal_value(state.me))
            } else {
                state
                    .promises
                    .iter()
                    .filter_map(|(_, l)| *l)
                    .max_by_key(|(r, _)| *r)
                    .map(|(_, v)| v)
                    .unwrap_or_else(|| self.proposal_value(state.me))
            };
            state.accept_sent = true;
            for &m in &self.members {
                out.send(m, Msg::Accept { round, value });
            }
        }
    }
}

impl fmt::Display for PaxosState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.me, self.view())
    }
}

/// The Paxos safety property of §5.4.2.
pub mod properties {
    use super::*;
    use cb_model::{global_property, GlobalState, Violation};

    /// "At most one value can be chosen, across all nodes."
    pub fn at_most_one_chosen() -> impl cb_model::Property<Paxos> {
        global_property("AtMostOneChosen", |gs: &GlobalState<Paxos>| {
            let mut values = BTreeSet::new();
            for slot in gs.nodes.values() {
                values.extend(slot.state.chosen.iter().copied());
            }
            if values.len() > 1 {
                Err(Violation {
                    property: "AtMostOneChosen".into(),
                    node: None,
                    message: format!("multiple values chosen: {values:?}"),
                })
            } else {
                Ok(())
            }
        })
    }

    /// Every Paxos property.
    pub fn all() -> PropertySet<Paxos> {
        PropertySet::new().with(at_most_one_chosen())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::{apply_event, Event, GlobalState, Payload};

    fn members() -> Vec<NodeId> {
        vec![NodeId(0), NodeId(1), NodeId(2)]
    }

    fn settle(cfg: &Paxos, gs: &mut GlobalState<Paxos>) {
        let mut steps = 0;
        while !gs.inflight.is_empty() {
            apply_event(cfg, gs, &Event::Deliver { index: 0 });
            steps += 1;
            assert!(steps < 2000, "did not settle");
        }
    }

    fn propose(cfg: &Paxos, gs: &mut GlobalState<Paxos>, node: NodeId) {
        apply_event(
            cfg,
            gs,
            &Event::Action {
                node,
                action: Action::Propose,
            },
        );
    }

    /// Drops every in-flight message whose src or dst is `node` (a network
    /// partition of that node).
    fn drop_all_touching(cfg: &Paxos, gs: &mut GlobalState<Paxos>, node: NodeId) {
        loop {
            let idx = gs
                .inflight
                .iter()
                .position(|m| m.src == node || m.dst == node);
            match idx {
                Some(index) => {
                    apply_event(cfg, gs, &Event::Drop { index });
                }
                None => break,
            }
        }
    }

    /// Delivers all messages except those touching `partitioned`.
    fn settle_partitioned(cfg: &Paxos, gs: &mut GlobalState<Paxos>, partitioned: NodeId) {
        let mut steps = 0;
        loop {
            drop_all_touching(cfg, gs, partitioned);
            if gs.inflight.is_empty() {
                break;
            }
            apply_event(cfg, gs, &Event::Deliver { index: 0 });
            steps += 1;
            assert!(steps < 2000, "did not settle");
        }
    }

    #[test]
    fn simple_round_chooses_one_value() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let mut gs = GlobalState::init(&cfg, members());
        propose(&cfg, &mut gs, NodeId(0));
        settle(&cfg, &mut gs);
        let s0 = &gs.slot(NodeId(0)).unwrap().state;
        assert_eq!(s0.chosen.iter().copied().collect::<Vec<_>>(), vec![0]);
        assert!(properties::all().check(&gs).is_none());
    }

    #[test]
    fn competing_rounds_stay_safe_when_fixed() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let mut gs = GlobalState::init(&cfg, members());
        // Round 1: node 0 proposes while node 2 is partitioned.
        propose(&cfg, &mut gs, NodeId(0));
        settle_partitioned(&cfg, &mut gs, NodeId(2));
        assert!(gs.slot(NodeId(0)).unwrap().state.chosen.contains(&0));
        // Round 2: node 2 comes back, node 1 proposes while node 0 is cut.
        propose(&cfg, &mut gs, NodeId(1));
        settle_partitioned(&cfg, &mut gs, NodeId(0));
        // The fixed leader re-proposes the previously accepted value 0.
        assert!(properties::all().check(&gs).is_none());
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert!(s1.chosen.contains(&0), "value 0 re-chosen: {}", s1.view());
        assert!(!s1.chosen.contains(&1));
    }

    /// The Fig. 13 scenario for bug P1: the second-round leader gathers
    /// promises where only an earlier-arriving one carries the accepted
    /// value; the buggy leader takes the last promise's (empty) value and
    /// proposes its own.
    #[test]
    fn fig13_two_values_chosen_with_p1() {
        let cfg = Paxos::new(members(), PaxosBugs::only("P1"));
        let mut gs = GlobalState::init(&cfg, members());
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        // Round 1: C is disconnected; A's proposal completes on {A, B}.
        propose(&cfg, &mut gs, a);
        settle_partitioned(&cfg, &mut gs, c);
        assert!(
            gs.slot(a).unwrap().state.chosen.contains(&0),
            "0 chosen in round 1"
        );
        // Round 2: A is disconnected; B proposes to {B, C}.
        propose(&cfg, &mut gs, b);
        // Deliver B's Prepare to C first, then to B, so that B's own
        // promise (which carries accepted (r,0)) arrives *before* C's empty
        // promise: the buggy leader then uses C's.
        // Drop everything touching A as we go.
        drop_all_touching(&cfg, &mut gs, a);
        // Deliver Prepare→C.
        let idx = gs
            .inflight
            .iter()
            .position(|m| m.dst == c && matches!(m.payload, Payload::Msg(Msg::Prepare { .. })))
            .unwrap();
        apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        // Deliver Prepare→B (self), producing B's promise.
        let idx = gs
            .inflight
            .iter()
            .position(|m| m.dst == b && matches!(m.payload, Payload::Msg(Msg::Prepare { .. })))
            .unwrap();
        apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        // Deliver B's own Promise first, then C's.
        let idx = gs
            .inflight
            .iter()
            .position(|m| m.src == b && matches!(m.payload, Payload::Msg(Msg::Promise { .. })))
            .unwrap();
        apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        let idx = gs
            .inflight
            .iter()
            .position(|m| m.src == c && matches!(m.payload, Payload::Msg(Msg::Promise { .. })))
            .unwrap();
        apply_event(&cfg, &mut gs, &Event::Deliver { index: idx });
        settle_partitioned(&cfg, &mut gs, a);
        let v = properties::all()
            .check(&gs)
            .expect("P1 violation: two values chosen");
        assert_eq!(v.property, "AtMostOneChosen");
    }

    /// Delivers the first in-flight message matching `pred`; panics if none.
    fn deliver_where(
        cfg: &Paxos,
        gs: &mut GlobalState<Paxos>,
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
        matches!(&m.payload, Payload::Msg(msg) if Paxos::message_kind(msg) == kind)
    }

    /// Bug P2: an acceptor forgets its promise across a crash and lets a
    /// stale lower-round Accept through, completing an old round.
    #[test]
    fn forgotten_promise_chooses_two_values_with_p2() {
        let cfg = Paxos::new(members(), PaxosBugs::only("P2")).with_crashes();
        let mut gs = GlobalState::init(&cfg, members());
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        // A starts round r_a = 3; everyone promises; A broadcasts
        // Accept(3, 0). Deliver only A's own copy: the Accepts to B and C
        // stay in flight (network asynchrony).
        propose(&cfg, &mut gs, a);
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| is_kind(m, "Prepare"));
        }
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| is_kind(m, "Promise"));
        }
        assert!(gs.slot(a).unwrap().state.accept_sent);
        deliver_where(&cfg, &mut gs, |m| m.dst == a && is_kind(m, "Accept"));
        // A's Learn(3,0) to itself: one report, no majority yet.
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| m.src == a && is_kind(m, "Learn"));
        }
        assert!(gs.slot(a).unwrap().state.chosen.is_empty());
        // C starts a higher round r_c = 5; B and C promise (their stale
        // Accept(3,0) copies still undelivered) and r_c completes on {B,C}.
        propose(&cfg, &mut gs, c);
        for n in [b, c] {
            deliver_where(&cfg, &mut gs, |m| m.dst == n && is_kind(m, "Prepare"));
        }
        for _ in 0..2 {
            deliver_where(&cfg, &mut gs, |m| m.dst == c && is_kind(m, "Promise"));
        }
        for n in [b, c] {
            deliver_where(&cfg, &mut gs, |m| {
                m.dst == n && m.src == c && is_kind(m, "Accept")
            });
        }
        for _ in 0..4 {
            deliver_where(&cfg, &mut gs, |m| {
                (m.src == b || m.src == c) && (m.dst == b || m.dst == c) && is_kind(m, "Learn")
            });
        }
        assert!(
            gs.slot(c).unwrap().state.chosen.contains(&2),
            "round r_c chose C's value"
        );
        assert!(properties::all().check(&gs).is_none(), "still safe");
        // B crashes and reboots: under P2 the promise to r_c is forgotten.
        apply_event(
            &cfg,
            &mut gs,
            &Event::Action {
                node: b,
                action: Action::Crash,
            },
        );
        assert_eq!(gs.slot(b).unwrap().state.promised, None, "promise lost");
        // The stale Accept(3, 0) finally arrives at B, which — having
        // forgotten its promise — accepts and broadcasts Learn(3, 0).
        deliver_where(&cfg, &mut gs, |m| {
            m.dst == b && m.src == a && is_kind(m, "Accept")
        });
        // A collects Learn(3,0) from B; with its own earlier report the old
        // round reaches a majority at A. (B also still has a Learn(5,2) to
        // A in flight — match on the round to pick the right one.)
        deliver_where(&cfg, &mut gs, |m| {
            m.src == b
                && m.dst == a
                && matches!(&m.payload, Payload::Msg(Msg::Learn { round: 3, .. }))
        });
        let v = properties::all()
            .check(&gs)
            .expect("P2 violation: two values chosen");
        assert_eq!(v.property, "AtMostOneChosen");
    }

    /// With durable promises, the same schedule is safe: B refuses the
    /// stale Accept after rebooting.
    #[test]
    fn same_schedule_safe_without_p2() {
        let cfg = Paxos::new(members(), PaxosBugs::none()).with_crashes();
        let mut gs = GlobalState::init(&cfg, members());
        let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
        propose(&cfg, &mut gs, a);
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| is_kind(m, "Prepare"));
        }
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| is_kind(m, "Promise"));
        }
        deliver_where(&cfg, &mut gs, |m| m.dst == a && is_kind(m, "Accept"));
        for _ in 0..3 {
            deliver_where(&cfg, &mut gs, |m| m.src == a && is_kind(m, "Learn"));
        }
        propose(&cfg, &mut gs, c);
        for n in [b, c] {
            deliver_where(&cfg, &mut gs, |m| m.dst == n && is_kind(m, "Prepare"));
        }
        for _ in 0..2 {
            deliver_where(&cfg, &mut gs, |m| m.dst == c && is_kind(m, "Promise"));
        }
        for n in [b, c] {
            deliver_where(&cfg, &mut gs, |m| {
                m.dst == n && m.src == c && is_kind(m, "Accept")
            });
        }
        for _ in 0..4 {
            deliver_where(&cfg, &mut gs, |m| {
                (m.src == b || m.src == c) && (m.dst == b || m.dst == c) && is_kind(m, "Learn")
            });
        }
        apply_event(
            &cfg,
            &mut gs,
            &Event::Action {
                node: b,
                action: Action::Crash,
            },
        );
        assert!(
            gs.slot(b).unwrap().state.promised.is_some(),
            "promise survives reboot"
        );
        deliver_where(&cfg, &mut gs, |m| {
            m.dst == b && m.src == a && is_kind(m, "Accept")
        });
        settle(&cfg, &mut gs);
        assert!(
            properties::all().check(&gs).is_none(),
            "fixed Paxos stays safe"
        );
    }

    #[test]
    fn crash_preserves_durable_state_when_fixed() {
        let cfg = Paxos::new(members(), PaxosBugs::none()).with_crashes();
        let mut gs = GlobalState::init(&cfg, members());
        propose(&cfg, &mut gs, NodeId(0));
        // Deliver Prepares + Promises so acceptors have promised.
        for _ in 0..6 {
            apply_event(&cfg, &mut gs, &Event::Deliver { index: 0 });
        }
        let before = gs.slot(NodeId(1)).unwrap().state.promised;
        assert!(before.is_some());
        apply_event(
            &cfg,
            &mut gs,
            &Event::Action {
                node: NodeId(1),
                action: Action::Crash,
            },
        );
        let s1 = &gs.slot(NodeId(1)).unwrap().state;
        assert_eq!(s1.promised, before, "promise restored from disk");
        assert_eq!(s1.attempt, 0, "volatile proposer state wiped");
    }

    #[test]
    fn duplicate_promises_do_not_double_count() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let mut st = cfg.init(NodeId(0));
        st.current_round = Some(3);
        let mut out = Outbox::new();
        cfg.handle_promise(&mut st, NodeId(1), 3, None, &mut out);
        cfg.handle_promise(&mut st, NodeId(1), 3, None, &mut out);
        assert_eq!(st.promises.len(), 1);
        assert!(
            !st.accept_sent,
            "one distinct promise is not a majority of 3"
        );
        cfg.handle_promise(&mut st, NodeId(2), 3, None, &mut out);
        assert!(st.accept_sent);
    }

    #[test]
    fn stale_promises_ignored() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let mut st = cfg.init(NodeId(0));
        st.current_round = Some(7);
        let mut out = Outbox::new();
        cfg.handle_promise(&mut st, NodeId(1), 3, None, &mut out);
        assert!(st.promises.is_empty(), "promise for an old round ignored");
    }

    #[test]
    fn rounds_are_unique_per_node() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let r0 = cfg.round_for(NodeId(0), 1);
        let r1 = cfg.round_for(NodeId(1), 1);
        let r0b = cfg.round_for(NodeId(0), 2);
        assert!(r0 != r1 && r0 != r0b && r1 != r0b);
    }

    #[test]
    fn codec_roundtrip() {
        let cfg = Paxos::new(members(), PaxosBugs::none());
        let mut st = cfg.init(NodeId(1));
        st.promised = Some(9);
        st.accepted = Some((9, 42));
        st.promises.push((NodeId(2), Some((3, 7))));
        st.learns
            .insert((9, 42), BTreeSet::from([NodeId(0), NodeId(2)]));
        st.chosen.insert(42);
        assert_eq!(PaxosState::from_bytes(&st.to_bytes()).unwrap(), st);
        for m in [
            Msg::Prepare { round: 1 },
            Msg::Promise {
                round: 1,
                last: Some((0, 5)),
            },
            Msg::Accept { round: 1, value: 5 },
            Msg::Learn { round: 1, value: 5 },
        ] {
            assert_eq!(Msg::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn kinds_and_config() {
        let cfg = Paxos::new(members(), PaxosBugs::as_shipped()).with_crashes();
        assert_eq!(cfg.name(), "paxos");
        assert_eq!(cfg.majority(), 2);
        assert_eq!(Paxos::message_kind(&Msg::Prepare { round: 0 }), "Prepare");
        assert_eq!(Paxos::action_kind(&Action::Crash), "Crash");
        let mut acts = Vec::new();
        cfg.enabled_actions(NodeId(0), &cfg.init(NodeId(0)), &mut acts);
        assert_eq!(acts, vec![Action::Propose, Action::Crash]);
        let mut st = cfg.init(NodeId(0));
        st.accept_sent = true;
        st.current_round = Some(3);
        let mut acts = Vec::new();
        cfg.enabled_actions(NodeId(0), &st, &mut acts);
        assert!(
            !acts.contains(&Action::ResendAccept),
            "retransmission is scenario-injected, not explored"
        );
        let n = cfg.neighborhood(NodeId(0), &cfg.init(NodeId(0))).unwrap();
        assert_eq!(n, vec![NodeId(1), NodeId(2)]);
    }
}
