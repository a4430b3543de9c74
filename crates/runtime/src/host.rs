//! The node host: the runtime half of one CrystalBall node, once for the
//! simulator and for `cb-live`.
//!
//! A [`NodeHost`] keeps everything node-local except sockets and the
//! network model: the timer table, the [`CheckpointManager`] with its
//! checkpoint and gather schedule (§3.1), and the step sequence every
//! input goes through. It does no IO and owns no clock: a [`HostDriver`]
//! lends it the protocol, the global state the node's slot lives in (the
//! simulator's whole system, or a live node's one-node state), the clock,
//! the jitter draw and the filter decisions. Every handler runs inside
//! [`cb_model::apply_event`], so the simulator, a live node and the model
//! checker execute the same transitions. What a step leaves in the state
//! (new in-flight items, or items parked for nodes the state does not
//! hold) is the driver's to route.

use std::collections::HashMap;

use cb_model::{
    apply_event, Encode, Event, GlobalState, InFlight, NodeId, Protocol, Schedule, SimDuration,
    SimTime, TraceStep,
};
use cb_snapshot::{CheckpointManager, SnapMsg, Snapshot, SnapshotConfig};

use crate::hook::Decision;

/// Checkpointing schedule for CrystalBall-enabled runs.
#[derive(Clone, Debug)]
pub struct SnapshotRuntime {
    /// Checkpoint-manager tuning (quota, compression, diffs, bandwidth).
    pub config: SnapshotConfig,
    /// Period of spontaneous local checkpoints ("the checkpointing
    /// interval was 10 seconds", §5.5).
    pub checkpoint_interval: SimDuration,
    /// Period of neighborhood snapshot gathers.
    pub gather_interval: SimDuration,
}

impl Default for SnapshotRuntime {
    fn default() -> Self {
        SnapshotRuntime {
            config: SnapshotConfig::default(),
            checkpoint_interval: SimDuration::from_secs(10),
            gather_interval: SimDuration::from_secs(10),
        }
    }
}

/// What a host borrows from the driver running it.
pub trait HostDriver<P: Protocol> {
    /// The protocol, and the global state holding the node's slot.
    fn parts(&mut self) -> (&P, &mut GlobalState<P>);
    /// The driver's clock.
    fn now(&self) -> SimTime;
    /// A protocol timer period on the driver's clock (by default, the
    /// period itself).
    fn period(&self, period: SimDuration) -> SimDuration {
        period
    }
    /// A uniform draw from `[0, max]`: one timer's jitter.
    fn jitter(&mut self, max: SimDuration) -> SimDuration;
    /// `action`'s timer was armed for `at`, to be handed back to
    /// [`NodeHost::fire`] with `token` then (a driver that polls
    /// [`NodeHost::due`] need not keep it).
    fn armed(&mut self, _at: SimTime, _action: &P::Action, _token: u64) {}
    /// The filter check of a delivery, asked before its handler (§3.3).
    fn filter_delivery(&mut self, item: &InFlight<P::Message>) -> Decision;
    /// The filter check of a due timer's action.
    fn filter_action(&mut self, action: &P::Action) -> Decision;
    /// Whether a gather asks `node` (by default, every neighbor).
    fn gather_target(&self, _node: NodeId) -> bool {
        true
    }
}

/// What one host input did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The input ran through `apply_event`.
    Applied(TraceStep),
    /// A filter blocked it: a blocked timer was re-armed, and a delivery
    /// blocked with a reset applied [`Event::PeerError`], whose step this
    /// carries.
    Blocked(Option<TraceStep>),
    /// A timer fired for an action no longer enabled; the timers were
    /// reconciled.
    Lapsed,
    /// A stale timer token, or a node absent from the state.
    Ignored,
}

/// What a snapshot-side input produced.
#[derive(Debug, Default)]
pub struct SnapOut {
    /// Snapshot-protocol messages to send, in order.
    pub send: Vec<(NodeId, SnapMsg)>,
    /// A gather started.
    pub started: bool,
    /// A gather hit its deadline.
    pub timed_out: bool,
    /// A gather completed.
    pub done: Option<Snapshot>,
}

/// One node's timers, checkpoint manager and step sequence.
#[derive(Debug)]
pub struct NodeHost<P: Protocol> {
    me: NodeId,
    snapshots: Option<SnapshotRuntime>,
    gather_timeout: Option<SimDuration>,
    timer_jitter: f64,
    /// Armed timers: `(token, due)` per action.
    timers: HashMap<P::Action, (u64, SimTime)>,
    tokens: u64,
    manager: Option<CheckpointManager>,
    next_checkpoint: SimTime,
    next_gather: SimTime,
    gather_deadline: Option<SimTime>,
    /// Scratch for `enabled_actions`.
    enabled: Vec<P::Action>,
}

impl<P: Protocol> NodeHost<P> {
    /// A host for node `me` with no timer armed, checkpointing and
    /// gathering on `snapshots`' schedule from `start` on. A gather still
    /// open `gather_timeout` after it started is timed out (`None`: it
    /// waits until every neighbor answers or fails); timers are jittered
    /// by up to `timer_jitter` × their period.
    pub fn new(
        me: NodeId,
        snapshots: Option<SnapshotRuntime>,
        gather_timeout: Option<SimDuration>,
        timer_jitter: f64,
        start: SimTime,
    ) -> Self {
        let s = snapshots.as_ref();
        NodeHost {
            me,
            timers: HashMap::new(),
            tokens: 0,
            manager: s.map(|s| CheckpointManager::new(me, s.config.clone())),
            next_checkpoint: start + s.map_or(SimDuration::ZERO, |s| s.checkpoint_interval),
            next_gather: start + s.map_or(SimDuration::ZERO, |s| s.gather_interval),
            gather_deadline: None,
            enabled: Vec::new(),
            snapshots,
            gather_timeout,
            timer_jitter,
        }
    }

    /// The checkpoint manager, if snapshots are on.
    pub fn manager(&self) -> Option<&CheckpointManager> {
        self.manager.as_ref()
    }

    /// The checkpoint number an outgoing message piggybacks.
    pub fn stamp_out(&self) -> u64 {
        self.manager
            .as_ref()
            .map_or(0, CheckpointManager::stamp_out)
    }

    /// When `action`'s timer fires, if one is armed.
    pub fn timer_due(&self, action: &P::Action) -> Option<SimTime> {
        self.timers.get(action).map(|t| t.1)
    }

    /// When the next periodic checkpoint falls due.
    pub fn next_checkpoint(&self) -> SimTime {
        self.next_checkpoint
    }

    /// When the next gather falls due.
    pub fn next_gather(&self) -> SimTime {
        self.next_gather
    }

    /// The earliest instant a timer, the snapshot schedule or the gather
    /// deadline falls due.
    pub fn next_wake(&self) -> Option<SimTime> {
        let schedule = self
            .manager
            .as_ref()
            .map(|_| self.next_checkpoint.min(self.next_gather));
        let timers = self.timers.values().map(|t| t.1);
        timers.chain(schedule).chain(self.gather_deadline).min()
    }

    /// The timers due at `now` with their tokens, earliest first (ties in
    /// arming order).
    pub fn due(&self, now: SimTime) -> Vec<(P::Action, u64)> {
        let mut due: Vec<_> = self.timers.iter().filter(|(_, t)| t.1 <= now).collect();
        due.sort_unstable_by_key(|(_, t)| (t.1, t.0));
        due.into_iter().map(|(a, t)| (a.clone(), t.0)).collect()
    }

    /// Arms `action` at period + jitter, if the runtime schedules it.
    fn arm(&mut self, d: &mut impl HostDriver<P>, action: P::Action) {
        let (Schedule::Periodic(p) | Schedule::After(p)) = d.parts().0.schedule(&action) else {
            return;
        };
        let period = d.period(p);
        let due = d.now() + period + d.jitter(period.mul_f64(self.timer_jitter));
        self.tokens += 1;
        d.armed(due, &action, self.tokens);
        self.timers.insert(action, (self.tokens, due));
    }

    /// Fills the scratch list with the node's enabled actions; false if
    /// the node is absent.
    fn list_enabled(&mut self, d: &mut impl HostDriver<P>) -> bool {
        let (protocol, gs) = d.parts();
        let Some(slot) = gs.slot(self.me) else {
            return false;
        };
        self.enabled.clear();
        protocol.enabled_actions(self.me, &slot.state, &mut self.enabled);
        true
    }

    /// Arms every enabled scheduled action of the node that has no timer.
    pub fn reconcile(&mut self, d: &mut impl HostDriver<P>) {
        if !self.list_enabled(d) {
            return;
        }
        let mut enabled = std::mem::take(&mut self.enabled);
        for action in enabled.drain(..) {
            if !self.timers.contains_key(&action) {
                self.arm(d, action);
            }
        }
        self.enabled = enabled;
    }

    /// The node restarted: the checkpoint manager's volatile state and
    /// every timer are lost, and the enabled actions are armed afresh.
    pub fn restart(&mut self, d: &mut impl HostDriver<P>) {
        if let Some(s) = &self.snapshots {
            self.manager = Some(CheckpointManager::new(self.me, s.config.clone()));
        }
        self.gather_deadline = None;
        self.timers.clear();
        self.reconcile(d);
    }

    /// Applies an event at this node, then reconciles its timers if the
    /// node's state may have changed.
    pub fn apply(&mut self, d: &mut impl HostDriver<P>, event: &Event<P>) -> TraceStep {
        let (protocol, gs) = d.parts();
        let step = apply_event(protocol, gs, event);
        if !matches!(
            step,
            TraceStep::Bounced { .. } | TraceStep::Stale | TraceStep::Lost { .. }
        ) {
            self.reconcile(d);
        }
        step
    }

    /// Delivers `item`, which carries its sender's checkpoint number
    /// `m_cn`: `Block` drops it, `BlockAndReset` applies
    /// [`Event::PeerError`] instead, and `Allow` takes the §2.3 forced
    /// checkpoint (encoding the slot only when `m_cn` exceeds the node's
    /// `cn`), then the delivery.
    pub fn deliver(
        &mut self,
        d: &mut impl HostDriver<P>,
        item: InFlight<P::Message>,
        m_cn: u64,
    ) -> Outcome {
        if d.parts().1.slot(self.me).is_none() {
            return Outcome::Ignored;
        }
        match d.filter_delivery(&item) {
            Decision::Allow => {}
            Decision::Block => return Outcome::Blocked(None),
            Decision::BlockAndReset => {
                let reset = Event::PeerError {
                    node: self.me,
                    peer: item.src,
                };
                return Outcome::Blocked(Some(self.apply(d, &reset)));
            }
        }
        let gs = d.parts().1;
        if let (Some(mgr), Some(slot)) = (self.manager.as_mut(), gs.slot(self.me)) {
            if m_cn > mgr.cn() {
                mgr.note_incoming(m_cn, &slot.to_bytes());
            }
        }
        gs.route_item(item);
        let index = gs.inflight.len() - 1;
        Outcome::Applied(self.apply(d, &Event::Deliver { index }))
    }

    /// Fires `action`'s timer armed under `token`: a stale token is
    /// ignored, an action no longer enabled lapses, a blocked one is
    /// re-armed ("the timer events are rescheduled", §4), and an allowed
    /// one is applied.
    pub fn fire(&mut self, d: &mut impl HostDriver<P>, action: P::Action, token: u64) -> Outcome {
        if self.timers.get(&action).map(|t| t.0) != Some(token) {
            return Outcome::Ignored;
        }
        self.timers.remove(&action);
        if !self.list_enabled(d) {
            return Outcome::Ignored;
        }
        if !self.enabled.contains(&action) {
            self.reconcile(d);
            return Outcome::Lapsed;
        }
        if d.filter_action(&action) != Decision::Allow {
            self.arm(d, action);
            return Outcome::Blocked(None);
        }
        Outcome::Applied(self.apply(
            d,
            &Event::Action {
                node: self.me,
                action,
            },
        ))
    }

    /// Takes the periodic checkpoint, if due.
    pub fn checkpoint(&mut self, d: &mut impl HostDriver<P>) {
        let (Some(s), now) = (&self.snapshots, d.now()) else {
            return;
        };
        if now < self.next_checkpoint {
            return;
        }
        self.next_checkpoint = now + s.checkpoint_interval;
        if let (Some(mgr), Some(slot)) = (self.manager.as_mut(), d.parts().1.slot(self.me)) {
            mgr.local_checkpoint(&slot.to_bytes());
        }
    }

    /// Starts a gather if one is due and none is open; otherwise times
    /// out an open gather past its deadline. A gather asks the protocol's
    /// snapshot neighborhood or, without one, the open connections (§3.1),
    /// less what the driver rejects.
    pub fn gather(&mut self, d: &mut impl HostDriver<P>) -> SnapOut {
        let mut out = SnapOut::default();
        let (Some(s), now) = (&self.snapshots, d.now()) else {
            return out;
        };
        let due = now >= self.next_gather;
        if due {
            self.next_gather = now + s.gather_interval;
        }
        let (protocol, gs) = d.parts();
        let (Some(mgr), Some(slot)) = (self.manager.as_mut(), gs.slot(self.me)) else {
            return out;
        };
        if due && !mgr.gathering() {
            let neighbors = protocol
                .neighborhood(self.me, &slot.state)
                .unwrap_or_else(|| slot.conns.keys().copied().collect());
            let bytes = slot.to_bytes();
            let neighbors: Vec<NodeId> = neighbors
                .into_iter()
                .filter(|n| d.gather_target(*n))
                .collect();
            out.send = mgr.start_gather(&neighbors, &bytes);
            out.started = true;
            self.gather_deadline = self.gather_timeout.map(|t| now + t);
        } else if mgr.gathering() && self.gather_deadline.is_some_and(|t| now >= t) {
            out.timed_out = true;
            out.send = mgr.timeout_gather(&slot.to_bytes());
            // One retry round on a fresh deadline; the next gives up.
            let timeout = self.gather_timeout.filter(|_| !out.send.is_empty());
            self.gather_deadline = timeout.map(|t| now + t);
        }
        out.done = self.poll();
        out
    }

    /// Snapshot-message intake: a request, a checkpoint or a nack.
    pub fn snap(&mut self, d: &mut impl HostDriver<P>, from: NodeId, msg: &SnapMsg) -> SnapOut {
        let mut out = SnapOut::default();
        let now = d.now();
        if let (Some(mgr), Some(slot)) = (self.manager.as_mut(), d.parts().1.slot(self.me)) {
            out.send = mgr.handle(now, from, msg, &slot.to_bytes());
            out.done = self.poll();
        }
        out
    }

    /// Communication with `peer` failed: an open gather proceeds without
    /// it (§3.1). Returns the gather if that completed it.
    pub fn peer_failed(&mut self, peer: NodeId) -> Option<Snapshot> {
        self.manager.as_mut()?.peer_failed(peer);
        self.poll()
    }

    fn poll(&mut self) -> Option<Snapshot> {
        let snap = self.manager.as_mut()?.poll_snapshot()?;
        self.gather_deadline = None;
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use cb_model::testproto::{Ping, PingAction, PingMsg};
    use cb_model::{Outbox, Payload};

    use super::*;

    /// A driver over its own state whose every jitter draw is the largest
    /// allowed, recording what it was asked and what it armed.
    struct Fixed<P: Protocol> {
        protocol: P,
        gs: GlobalState<P>,
        now: SimTime,
        decision: Decision,
        known_only: bool,
        asked: Vec<SimDuration>,
        armed: Vec<(SimTime, u64)>,
    }

    impl<P: Protocol> HostDriver<P> for Fixed<P> {
        fn parts(&mut self) -> (&P, &mut GlobalState<P>) {
            (&self.protocol, &mut self.gs)
        }
        fn now(&self) -> SimTime {
            self.now
        }
        fn jitter(&mut self, max: SimDuration) -> SimDuration {
            self.asked.push(max);
            max
        }
        fn armed(&mut self, at: SimTime, _action: &P::Action, token: u64) {
            self.armed.push((at, token));
        }
        fn filter_delivery(&mut self, _item: &InFlight<P::Message>) -> Decision {
            self.decision
        }
        fn filter_action(&mut self, _action: &P::Action) -> Decision {
            self.decision
        }
        fn gather_target(&self, node: NodeId) -> bool {
            !self.known_only || self.gs.nodes.contains_key(&node)
        }
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    fn driver<P: Protocol>(protocol: P, nodes: &[u32]) -> Fixed<P> {
        Fixed {
            gs: GlobalState::init(&protocol, nodes.iter().copied().map(NodeId)),
            protocol,
            now: SimTime::ZERO,
            decision: Decision::Allow,
            known_only: false,
            asked: Vec::new(),
            armed: Vec::new(),
        }
    }

    fn host(snapshots: bool, timeout: Option<SimDuration>, start: u64) -> NodeHost<Ping> {
        let snapshots = snapshots.then(SnapshotRuntime::default);
        NodeHost::new(NodeId(1), snapshots, timeout, 0.1, secs(start))
    }

    /// Node 1 of three `Ping` nodes (it kicks node 0 every second), with
    /// its Kick armed at t = 0.
    fn kicker(snapshots: bool) -> (Fixed<Ping>, NodeHost<Ping>) {
        let ping = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let mut d = driver(ping, &[0, 1, 2]);
        let mut host = host(snapshots, None, 0);
        host.reconcile(&mut d);
        d.armed.clear();
        (d, host)
    }

    fn kick_token(host: &NodeHost<Ping>) -> u64 {
        host.timers[&PingAction::Kick].0
    }

    /// Difference (i): the host arms at period + jitter and asks its
    /// driver for a draw of at most `timer_jitter` × period.
    #[test]
    fn a_timer_is_armed_at_period_plus_the_drivers_draw() {
        let (mut d, mut host) = kicker(false);
        let due = secs(1) + SimDuration::from_millis(100);
        assert_eq!(d.asked, [SimDuration::from_millis(100)]);
        assert_eq!(host.timer_due(&PingAction::Kick), Some(due));
        assert_eq!(host.next_wake(), Some(due));
        assert_eq!(host.due(due), [(PingAction::Kick, 1)]);
        assert!(host.due(secs(1)).is_empty());
        host.reconcile(&mut d);
        assert!(d.armed.is_empty(), "an armed timer is not armed again");
    }

    #[test]
    fn a_stale_token_is_ignored() {
        let (mut d, mut host) = kicker(false);
        let stale = kick_token(&host) + 1;
        assert_eq!(host.fire(&mut d, PingAction::Kick, stale), Outcome::Ignored);
        assert!(host.timer_due(&PingAction::Kick).is_some());
    }

    /// An allowed timer runs its handler and is re-armed by the reconcile
    /// that follows the step.
    #[test]
    fn an_allowed_timer_runs_and_rearms() {
        let (mut d, mut host) = kicker(false);
        d.now = secs(1);
        let outcome = host.fire(&mut d, PingAction::Kick, kick_token(&host));
        let step = TraceStep::ActionRun {
            node: NodeId(1),
            kind: "Kick",
        };
        assert_eq!(outcome, Outcome::Applied(step));
        assert_eq!(d.gs.inflight.len(), 1, "the Ping is left for the driver");
        assert_eq!(d.armed, [(secs(2) + SimDuration::from_millis(100), 2)]);
    }

    /// Difference (ii): a blocked timer is re-armed at period + jitter.
    #[test]
    fn a_blocked_timer_is_rearmed_at_period_plus_jitter() {
        let (mut d, mut host) = kicker(false);
        (d.now, d.decision) = (secs(1), Decision::Block);
        let outcome = host.fire(&mut d, PingAction::Kick, kick_token(&host));
        assert_eq!(outcome, Outcome::Blocked(None));
        assert!(d.gs.inflight.is_empty(), "the handler did not run");
        let due = secs(2) + SimDuration::from_millis(100);
        assert_eq!(d.armed, [(due, 2)]);
        assert_eq!(host.timer_due(&PingAction::Kick), Some(due));
    }

    /// Two timers, one enabled at a time: `Tick` while the state is 0,
    /// `Tock` otherwise.
    #[derive(Clone, Debug)]
    struct Toggle;

    #[derive(Clone, Debug, PartialEq, Eq, Hash)]
    enum Phase {
        Tick,
        Tock,
    }

    impl Protocol for Toggle {
        type State = u8;
        type Message = u8;
        type Action = Phase;
        fn name(&self) -> &'static str {
            "toggle"
        }
        fn init(&self, _node: NodeId) -> u8 {
            0
        }
        fn on_message(&self, _: NodeId, _: &mut u8, _: NodeId, _: &u8, _: &mut Outbox<u8>) {}
        fn on_error(&self, _: NodeId, _: &mut u8, _: NodeId, _: &mut Outbox<u8>) {}
        fn enabled_actions(&self, _: NodeId, state: &u8, acts: &mut Vec<Phase>) {
            acts.push(if *state == 0 {
                Phase::Tick
            } else {
                Phase::Tock
            });
        }
        fn on_action(&self, _: NodeId, state: &mut u8, _: &Phase, _: &mut Outbox<u8>) {
            *state ^= 1;
        }
        fn schedule(&self, _: &Phase) -> Schedule {
            Schedule::Periodic(SimDuration::from_secs(1))
        }
        fn message_kind(_: &u8) -> &'static str {
            "Byte"
        }
        fn action_kind(action: &Phase) -> &'static str {
            match action {
                Phase::Tick => "Tick",
                Phase::Tock => "Tock",
            }
        }
    }

    /// Difference (iii): a timer whose action is no longer enabled lapses,
    /// and the host reconciles — arming what the state enables now (a live
    /// node used to drop the timer and arm nothing).
    #[test]
    fn a_lapsed_timer_reconciles() {
        let mut d = driver(Toggle, &[0]);
        let mut host = NodeHost::new(NodeId(0), None, None, 0.1, SimTime::ZERO);
        host.reconcile(&mut d);
        let tick = host.timers[&Phase::Tick].0;
        // The state moves on outside a step, as a snapshot restore would.
        d.gs.slot_mut(NodeId(0)).unwrap().state = 1;
        d.decision = Decision::Block;
        d.now = secs(1);
        assert_eq!(host.fire(&mut d, Phase::Tick, tick), Outcome::Lapsed);
        assert_eq!(host.timer_due(&Phase::Tick), None);
        let tock = secs(2) + SimDuration::from_millis(100);
        assert_eq!(host.timer_due(&Phase::Tock), Some(tock));
    }

    /// Delivers a `Ping` from node 0 carrying checkpoint number `m_cn`.
    fn ping_from_0(host: &mut NodeHost<Ping>, d: &mut Fixed<Ping>, m_cn: u64) -> Outcome {
        let item = InFlight {
            src: NodeId(0),
            dst: NodeId(1),
            src_inc: 0,
            dst_inc: d.gs.slot(NodeId(1)).unwrap().incarnation,
            payload: Payload::Msg(PingMsg::Ping),
        };
        host.deliver(d, item, m_cn)
    }

    /// Difference (v): the forced checkpoint of §2.3 is taken (and the
    /// slot encoded) only for a message whose `cn` exceeds the node's.
    #[test]
    fn a_forced_checkpoint_is_taken_only_for_a_higher_cn() {
        let (mut d, mut host) = kicker(true);
        let outcome = ping_from_0(&mut host, &mut d, 0);
        assert!(matches!(
            outcome,
            Outcome::Applied(TraceStep::Delivered { .. })
        ));
        let stats = &host.manager().unwrap().stats;
        assert_eq!((stats.checkpoints_taken, stats.forced_checkpoints), (0, 0));
        ping_from_0(&mut host, &mut d, 5);
        assert_eq!(host.manager().unwrap().stats.forced_checkpoints, 1);
        assert_eq!(host.stamp_out(), 5);
    }

    /// Difference (iv), host side: a delivery blocked with a reset runs
    /// the receiver's error handler through `Event::PeerError`.
    #[test]
    fn a_reset_block_applies_peer_error() {
        let (mut d, mut host) = kicker(false);
        ping_from_0(&mut host, &mut d, 0);
        d.gs.inflight.clear();
        d.decision = Decision::BlockAndReset;
        let outcome = ping_from_0(&mut host, &mut d, 0);
        let step = TraceStep::ConnectionBroke {
            node: NodeId(1),
            peer: NodeId(0),
        };
        assert_eq!(outcome, Outcome::Blocked(Some(step)));
        let state = &d.gs.slot(NodeId(1)).unwrap().state;
        assert_eq!((state.pings_seen, state.errors_seen), (1, 1));
        assert!(d.gs.inflight[0].payload.is_error(), "node 0 learns of it");
        d.decision = Decision::Block;
        assert_eq!(ping_from_0(&mut host, &mut d, 0), Outcome::Blocked(None));
    }

    /// Difference (vi): the driver decides which neighbors a gather asks —
    /// the simulator only those its global state holds, a live node all.
    #[test]
    fn the_driver_filters_gather_targets() {
        let (mut d, _) = kicker(true);
        d.gs.nodes.remove(&NodeId(2));
        let conns = &mut d.gs.slot_mut(NodeId(1)).unwrap().conns;
        conns.insert(NodeId(0), 0);
        conns.insert(NodeId(2), 0);
        d.now = secs(10);
        let mut targets = |known_only| {
            d.known_only = known_only;
            let mut host = host(true, None, 0);
            let out = host.gather(&mut d);
            assert!(out.started && out.done.is_none());
            out.send.into_iter().map(|(n, _)| n).collect::<Vec<_>>()
        };
        assert_eq!(targets(true), [NodeId(0)]);
        assert_eq!(targets(false), [NodeId(0), NodeId(2)]);
    }

    /// The snapshot schedule: a checkpoint and a gather fall due one
    /// interval after the start, then one interval after they ran; a
    /// gather deadline times a stalled gather out.
    #[test]
    fn the_schedule_and_the_gather_deadline() {
        let (mut d, _) = kicker(true);
        d.gs.slot_mut(NodeId(1)).unwrap().conns.insert(NodeId(0), 0);
        let mut host = host(true, Some(SimDuration::from_secs(1)), 5);
        assert_eq!(host.next_wake(), Some(secs(15)));
        let checkpoints = |host: &NodeHost<Ping>| host.manager().unwrap().stats.checkpoints_taken;
        d.now = secs(14);
        host.checkpoint(&mut d);
        assert_eq!(checkpoints(&host), 0, "not due");
        d.now = secs(16);
        host.checkpoint(&mut d);
        assert_eq!((checkpoints(&host), host.next_checkpoint()), (1, secs(26)));
        d.now = secs(15);
        let out = host.gather(&mut d);
        assert!(out.started && !out.timed_out);
        assert_eq!(host.next_gather(), secs(25));
        assert_eq!(host.next_wake(), Some(secs(16)), "the deadline");
        d.now = secs(16);
        let out = host.gather(&mut d);
        assert!(!out.started && out.timed_out);
        let snap = out.done.expect("the timeout completed the gather");
        assert_eq!(snap.missing, [NodeId(0)]);
        assert_eq!(host.next_wake(), Some(secs(25)));
    }

    /// A reset loses the checkpoint manager's volatile state and every
    /// timer; the enabled actions are armed afresh.
    #[test]
    fn a_restart_drops_timers_and_the_manager() {
        let (mut d, mut host) = kicker(true);
        let before = kick_token(&host);
        d.now = secs(10);
        host.checkpoint(&mut d);
        assert_eq!(host.manager().unwrap().stats.checkpoints_taken, 1);
        d.now = secs(3);
        host.restart(&mut d);
        assert_eq!(host.manager().unwrap().stats.checkpoints_taken, 0);
        assert!(kick_token(&host) > before);
        let due = secs(4) + SimDuration::from_millis(100);
        assert_eq!(host.timer_due(&PingAction::Kick), Some(due));
    }
}
