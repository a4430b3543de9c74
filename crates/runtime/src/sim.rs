//! The discrete-event simulation driver.
//!
//! Every state transition goes through `cb_model::apply_event`, so the
//! simulator executes exactly the handler code the model checker explores.
//! The simulator adds what the model deliberately abstracts away: *when*
//! things happen (network latency and bandwidth from `cb-net`, timer
//! periods with deterministic jitter, scripted environment events) and the
//! bookkeeping CrystalBall needs (per-node checkpoint managers whose
//! snapshot traffic shares the simulated access links).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use cb_model::{
    apply_event, Encode, Event, GlobalState, InFlight, NodeId, Payload, PropertySet, Protocol,
    Schedule, SimDuration, SimTime, TraceStep,
};
use cb_net::{NetworkModel, Topology, TopologyConfig, Transport};
use cb_snapshot::{CheckpointManager, SnapMsg, SnapshotConfig};

use crate::hook::{Decision, Hook};
use crate::scenario::{Scenario, ScriptEvent};
use crate::stats::SimStats;

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

/// Simulation-wide configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Seed for the network model, jitter, and scenario randomness.
    pub seed: u64,
    /// Topology generation parameters (participant count must cover the
    /// node ids used by the protocol instance).
    pub topology: TopologyConfig,
    /// Enable per-node checkpoint managers and periodic gathers.
    pub snapshots: Option<SnapshotRuntime>,
    /// Check the property set after every step and count violating states
    /// (§5.4.1's "states that contain inconsistencies").
    pub track_violations: bool,
    /// Timer jitter as a fraction of the period (desynchronizes nodes).
    pub timer_jitter: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 1,
            topology: TopologyConfig::default(),
            snapshots: None,
            track_violations: true,
            timer_jitter: 0.1,
        }
    }
}

enum Pending<P: Protocol> {
    Deliver {
        item: InFlight<P::Message>,
        m_cn: u64,
    },
    Timer {
        node: NodeId,
        action: P::Action,
        token: u64,
    },
    Snap {
        from: NodeId,
        to: NodeId,
        msg: SnapMsg,
    },
    Script {
        ev: ScriptEvent<P>,
    },
    CheckpointTick {
        node: NodeId,
    },
    GatherTick {
        node: NodeId,
    },
}

struct Entry<P: Protocol> {
    at: SimTime,
    seq: u64,
    what: Pending<P>,
}

impl<P: Protocol> PartialEq for Entry<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P: Protocol> Eq for Entry<P> {}
impl<P: Protocol> PartialOrd for Entry<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Protocol> Ord for Entry<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic whole-system simulation of one protocol instance.
pub struct Simulation<P: Protocol, H: Hook<P>> {
    /// The protocol configuration (handlers run against it).
    pub protocol: P,
    /// Current global state. `inflight` is empty between dispatches — the
    /// simulator drains it into the timed queue after every handler.
    pub gs: GlobalState<P>,
    /// The interposition hook (CrystalBall's controller, or [`crate::NoHook`]).
    pub hook: H,
    /// Safety properties checked when `track_violations` is on.
    pub props: PropertySet<P>,
    /// Run counters.
    pub stats: SimStats,
    net: NetworkModel,
    now: SimTime,
    queue: BinaryHeap<Reverse<Entry<P>>>,
    seq: u64,
    timers: HashMap<(NodeId, P::Action), u64>,
    managers: HashMap<NodeId, CheckpointManager>,
    snap_cfg: Option<SnapshotRuntime>,
    track_violations: bool,
    jitter_frac: f64,
}

impl<P: Protocol, H: Hook<P>> Simulation<P, H> {
    /// Builds a simulation of `nodes` in their protocol-initial states.
    pub fn new(
        protocol: P,
        nodes: &[NodeId],
        props: PropertySet<P>,
        hook: H,
        mut config: SimConfig,
    ) -> Self {
        let max_id = nodes.iter().map(|n| n.0).max().unwrap_or(0) as usize;
        if config.topology.participants <= max_id {
            config.topology.participants = max_id + 1;
        }
        let topo = Topology::generate(config.topology.clone(), config.seed);
        let net = NetworkModel::new(topo, config.seed);
        let gs = GlobalState::init(&protocol, nodes.iter().copied());
        let mut sim = Simulation {
            protocol,
            gs,
            hook,
            props,
            stats: SimStats::default(),
            net,
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            seq: 0,
            timers: HashMap::new(),
            managers: HashMap::new(),
            snap_cfg: config.snapshots.clone(),
            track_violations: config.track_violations,
            jitter_frac: config.timer_jitter,
        };
        if let Some(sr) = &sim.snap_cfg.clone() {
            for (i, &n) in nodes.iter().enumerate() {
                sim.managers
                    .insert(n, CheckpointManager::new(n, sr.config.clone()));
                // Stagger the periodic ticks so nodes don't synchronize.
                let offset = SimDuration::from_millis(137 * i as u64);
                sim.push_at(
                    sim.now + sr.checkpoint_interval + offset,
                    Pending::CheckpointTick { node: n },
                );
                sim.push_at(
                    sim.now + sr.gather_interval + offset,
                    Pending::GatherTick { node: n },
                );
            }
        }
        for &n in nodes {
            sim.reconcile_timers(n);
        }
        sim
    }

    /// Builds a simulation that starts from a pre-existing global state —
    /// the paper's "system that has been running for a significant amount
    /// of time" (§1.3) — instead of protocol-initial states. Pre-existing
    /// in-flight messages are routed through the simulated network, and
    /// timers are reconciled against the supplied local states, so e.g. a
    /// stabilized Chord ring built by a scenario helper can be dropped
    /// straight under a live `Controller`.
    pub fn from_state(
        protocol: P,
        start: GlobalState<P>,
        props: PropertySet<P>,
        hook: H,
        config: SimConfig,
    ) -> Self {
        let nodes: Vec<NodeId> = start.nodes.keys().copied().collect();
        let mut sim = Self::new(protocol, &nodes, props, hook, config);
        sim.gs = start;
        for item in std::mem::take(&mut sim.gs.inflight) {
            sim.transmit(item.into_item());
        }
        for &n in &nodes {
            sim.reconcile_timers(n);
        }
        sim
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Bandwidth counters of the underlying network.
    pub fn net_stats(&self) -> &cb_net::LinkStats {
        self.net.stats()
    }

    /// A node's protocol state, if the node exists.
    pub fn state(&self, node: NodeId) -> Option<&P::State> {
        self.gs.slot(node).map(|s| &s.state)
    }

    /// A node's checkpoint manager (snapshot runs only).
    pub fn manager(&self, node: NodeId) -> Option<&CheckpointManager> {
        self.managers.get(&node)
    }

    /// Loads a scenario script into the event queue.
    pub fn load_scenario(&mut self, scenario: Scenario<P>) {
        for (t, ev) in scenario.into_sorted() {
            self.push_at(t, Pending::Script { ev });
        }
    }

    /// Applies one scripted event immediately (test/example convenience).
    pub fn inject(&mut self, ev: ScriptEvent<P>) {
        self.do_script(ev);
    }

    /// Runs until the queue empties or `end` is reached; time advances to
    /// `end`.
    pub fn run_until(&mut self, end: SimTime) {
        while self
            .queue
            .peek()
            .is_some_and(|Reverse(head)| head.at <= end)
        {
            self.step_next();
        }
        self.now = end.max(self.now);
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let end = self.now + d;
        self.run_until(end);
    }

    /// When the next queued event will dispatch, if any — the peek an
    /// external scheduler (the fleet harness) uses to interleave several
    /// co-deployed simulations in one global time order.
    pub fn next_event_at(&self) -> Option<SimTime> {
        self.queue.peek().map(|Reverse(head)| head.at.max(self.now))
    }

    /// Dispatches exactly one queued event, advancing time to it; returns
    /// the dispatch time, or `None` when the queue is empty. Together with
    /// [`Simulation::next_event_at`] this is the single-step driving
    /// surface for external schedulers; `run_until` is a loop over it.
    pub fn step_next(&mut self) -> Option<SimTime> {
        let Reverse(entry) = self.queue.pop()?;
        self.now = entry.at.max(self.now);
        let at = self.now;
        self.dispatch(entry.what);
        Some(at)
    }

    /// Advances simulated time without dispatching anything (an external
    /// scheduler closing a run out to its horizon). Time never moves
    /// backwards.
    pub fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }

    fn push_at(&mut self, at: SimTime, what: Pending<P>) {
        self.seq += 1;
        self.queue.push(Reverse(Entry {
            at: at.max(self.now),
            seq: self.seq,
            what,
        }));
    }

    fn dispatch(&mut self, what: Pending<P>) {
        match what {
            Pending::Deliver { item, m_cn } => self.do_deliver(item, m_cn),
            Pending::Timer {
                node,
                action,
                token,
            } => self.do_timer(node, action, token),
            Pending::Snap { from, to, msg } => self.do_snap(from, to, msg),
            Pending::Script { ev } => self.do_script(ev),
            Pending::CheckpointTick { node } => self.do_checkpoint_tick(node),
            Pending::GatherTick { node } => self.do_gather_tick(node),
        }
    }

    fn do_deliver(&mut self, item: InFlight<P::Message>, m_cn: u64) {
        if !self.gs.nodes.contains_key(&item.dst) {
            return;
        }
        // CrystalBall interposition: event filters + immediate safety check
        // run before the handler is invoked (§3.3/§4).
        match self.hook.filter_delivery(self.now, &self.gs, &item) {
            Decision::Allow => {}
            Decision::Block => {
                self.stats.deliveries_blocked += 1;
                return;
            }
            Decision::BlockAndReset => {
                self.stats.deliveries_blocked += 1;
                let ev = Event::PeerError {
                    node: item.dst,
                    peer: item.src,
                };
                self.apply_and_follow(ev);
                return;
            }
        }
        // Snapshot bookkeeping: forced checkpoint *before* processing (§2.3).
        if self.managers.contains_key(&item.dst) {
            let bytes = self.state_bytes(item.dst);
            if let Some(mgr) = self.managers.get_mut(&item.dst) {
                mgr.note_incoming(m_cn, &bytes);
            }
        }
        self.gs.route_item(item);
        let index = self.gs.inflight.len() - 1;
        self.apply_and_follow(Event::Deliver { index });
    }

    fn do_timer(&mut self, node: NodeId, action: P::Action, token: u64) {
        // Stale timer entries (rescheduled, reset, superseded) are ignored.
        if self.timers.get(&(node, action.clone())) != Some(&token) {
            return;
        }
        self.timers.remove(&(node, action.clone()));
        let Some(slot) = self.gs.nodes.get(&node) else {
            return;
        };
        let mut enabled = Vec::new();
        self.protocol
            .enabled_actions(node, &slot.state, &mut enabled);
        if !enabled.contains(&action) {
            self.stats.timers_lapsed += 1;
            self.reconcile_timers(node);
            return;
        }
        match self.hook.filter_action(self.now, &self.gs, node, &action) {
            Decision::Allow => {}
            Decision::Block | Decision::BlockAndReset => {
                // "The timer events are rescheduled" (§4).
                self.stats.actions_blocked += 1;
                if let Schedule::Periodic(d) | Schedule::After(d) = self.protocol.schedule(&action)
                {
                    self.schedule_timer(node, action, d);
                }
                return;
            }
        }
        self.apply_and_follow(Event::Action { node, action });
    }

    fn do_script(&mut self, ev: ScriptEvent<P>) {
        match ev {
            ScriptEvent::Action { node, action } => {
                if self.gs.nodes.contains_key(&node) {
                    match self.hook.filter_action(self.now, &self.gs, node, &action) {
                        Decision::Allow => {
                            self.apply_and_follow(Event::Action { node, action });
                        }
                        _ => self.stats.actions_blocked += 1,
                    }
                }
            }
            ScriptEvent::Reset { node, notify } => {
                self.stats.resets_applied += 1;
                self.apply_and_follow(Event::Reset { node, notify });
                // A reboot loses the checkpoint manager's volatile state.
                if let Some(sr) = &self.snap_cfg {
                    self.managers
                        .insert(node, CheckpointManager::new(node, sr.config.clone()));
                }
                self.timers.retain(|(n, _), _| *n != node);
                self.reconcile_timers(node);
            }
            ScriptEvent::PeerError { node, peer } => {
                self.apply_and_follow(Event::PeerError { node, peer });
            }
            ScriptEvent::Connectivity { a, b, up } => {
                self.net.set_partitioned(a, b, !up);
            }
            ScriptEvent::LinkQuality { a, b, fault } => {
                self.net.set_link_fault(a, b, fault);
            }
        }
    }

    fn do_checkpoint_tick(&mut self, node: NodeId) {
        if self.gs.nodes.contains_key(&node) && self.managers.contains_key(&node) {
            let bytes = self.state_bytes(node);
            if let Some(mgr) = self.managers.get_mut(&node) {
                mgr.local_checkpoint(&bytes);
            }
        }
        if let Some(sr) = &self.snap_cfg {
            let interval = sr.checkpoint_interval;
            self.push_at(self.now + interval, Pending::CheckpointTick { node });
        }
    }

    fn do_gather_tick(&mut self, node: NodeId) {
        if let Some(slot) = self.gs.nodes.get(&node) {
            // Developer-provided snapshot neighborhood, falling back to the
            // open-connection heuristic (§3.1).
            let neighbors: Vec<NodeId> = self
                .protocol
                .neighborhood(node, &slot.state)
                .unwrap_or_else(|| slot.conns.keys().copied().collect())
                .into_iter()
                .filter(|n| self.gs.nodes.contains_key(n))
                .collect();
            if self.managers.get(&node).is_some_and(|m| !m.gathering()) {
                let bytes = self.state_bytes(node);
                let reqs = self
                    .managers
                    .get_mut(&node)
                    .map(|m| m.start_gather(&neighbors, &bytes))
                    .unwrap_or_default();
                for (dst, msg) in reqs {
                    self.send_snap(node, dst, msg);
                }
                self.poll_snapshot(node);
            }
        }
        if let Some(sr) = &self.snap_cfg {
            let interval = sr.gather_interval;
            self.push_at(self.now + interval, Pending::GatherTick { node });
        }
    }

    fn do_snap(&mut self, from: NodeId, to: NodeId, msg: SnapMsg) {
        if !self.gs.nodes.contains_key(&to) || !self.managers.contains_key(&to) {
            return;
        }
        let bytes = self.state_bytes(to);
        let replies = self
            .managers
            .get_mut(&to)
            .map(|m| m.handle(self.now, from, &msg, &bytes))
            .unwrap_or_default();
        for (dst, m) in replies {
            self.send_snap(to, dst, m);
        }
        self.poll_snapshot(to);
    }

    fn poll_snapshot(&mut self, node: NodeId) {
        if let Some(snap) = self.managers.get_mut(&node).and_then(|m| m.poll_snapshot()) {
            self.stats.snapshots_completed += 1;
            self.hook.on_snapshot(self.now, node, &snap);
        }
    }

    fn send_snap(&mut self, src: NodeId, dst: NodeId, msg: SnapMsg) {
        let bytes = msg.encoded_len() + 8;
        self.stats.snapshot_bytes_sent += bytes as u64;
        match self.net.schedule(self.now, src, dst, bytes, Transport::Tcp) {
            Some(at) => self.push_at(
                at,
                Pending::Snap {
                    from: src,
                    to: dst,
                    msg,
                },
            ),
            None => {
                // The network swallowed it (partition): the gather treats
                // the peer as failed rather than waiting forever.
                self.stats.messages_lost += 1;
                if let Some(mgr) = self.managers.get_mut(&src) {
                    mgr.peer_failed(dst);
                }
                self.poll_snapshot(src);
            }
        }
    }

    /// Applies a model event, transmits the handler's output through the
    /// simulated network, reconciles timers, and updates statistics.
    fn apply_and_follow(&mut self, event: Event<P>) {
        let step = apply_event(&self.protocol, &mut self.gs, &event);
        match &step {
            TraceStep::Delivered { dst, .. } => {
                self.stats.messages_delivered += 1;
                self.stats.actions_executed += 1;
                let dst = *dst;
                self.after_state_change(dst);
            }
            TraceStep::ErrorObserved { node, .. } | TraceStep::ConnectionBroke { node, .. } => {
                self.stats.errors_observed += 1;
                self.stats.actions_executed += 1;
                let node = *node;
                self.after_state_change(node);
            }
            TraceStep::Bounced { .. } => self.stats.stale_bounced += 1,
            TraceStep::Stale => {}
            TraceStep::Lost { .. } => self.stats.messages_lost += 1,
            TraceStep::ActionRun { node, .. } => {
                self.stats.actions_executed += 1;
                let node = *node;
                self.after_state_change(node);
            }
            TraceStep::ResetDone { node, .. } => {
                let node = *node;
                self.after_state_change(node);
            }
        }
        // New sends (and RSTs) leave through the simulated network.
        for item in std::mem::take(&mut self.gs.inflight) {
            self.transmit(item.into_item());
        }
        if self.track_violations {
            if let Some(v) = self.props.check(&self.gs) {
                self.stats.record_violation(self.now, v);
            }
        }
        self.hook.after_step(self.now, &self.gs, &step);
    }

    fn transmit(&mut self, item: InFlight<P::Message>) {
        let bytes = match &item.payload {
            Payload::Msg(m) => self.protocol.wire_size(m) + 8,
            Payload::Error => 40, // a RST/FIN exchange
        };
        let m_cn = self
            .managers
            .get(&item.src)
            .map(|m| m.stamp_out())
            .unwrap_or(0);
        match self
            .net
            .schedule(self.now, item.src, item.dst, bytes, Transport::Tcp)
        {
            Some(at) => self.push_at(at, Pending::Deliver { item, m_cn }),
            // Partitioned (or, for UDP traffic, dropped): the network
            // layer accounted the lost bytes.
            None => self.stats.messages_lost += 1,
        }
    }

    fn after_state_change(&mut self, node: NodeId) {
        self.reconcile_timers(node);
    }

    /// Ensures every enabled, runtime-scheduled action of `node` has a
    /// pending timer entry.
    fn reconcile_timers(&mut self, node: NodeId) {
        let Some(slot) = self.gs.nodes.get(&node) else {
            return;
        };
        let mut enabled = Vec::new();
        self.protocol
            .enabled_actions(node, &slot.state, &mut enabled);
        for action in enabled {
            let delay = match self.protocol.schedule(&action) {
                Schedule::Periodic(d) | Schedule::After(d) => d,
                Schedule::External => continue,
            };
            if !self.timers.contains_key(&(node, action.clone())) {
                self.schedule_timer(node, action, delay);
            }
        }
    }

    fn schedule_timer(&mut self, node: NodeId, action: P::Action, period: SimDuration) {
        let jitter = self.net.jitter(period.mul_f64(self.jitter_frac));
        self.seq += 1;
        let token = self.seq;
        self.timers.insert((node, action.clone()), token);
        let at = self.now + period + jitter;
        self.push_at(
            at,
            Pending::Timer {
                node,
                action,
                token,
            },
        );
    }

    /// Checkpoint payload for `node`: the full slot (protocol state plus
    /// incarnation and connection table), so a checker fed with the
    /// snapshot sees the same connection-level environment the live node
    /// had.
    fn state_bytes(&self, node: NodeId) -> Vec<u8> {
        self.gs.slot(node).map(|s| s.to_bytes()).unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NoHook;
    use cb_model::testproto::{max_pings_property, Ping, PingAction};
    use cb_protocols::randtree::{self, Action as RtAction, RandTree, RandTreeBugs};

    fn ping_sim(seed: u64) -> Simulation<Ping, NoHook> {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        Simulation::new(
            cfg,
            &nodes,
            PropertySet::new().with(max_pings_property(u32::MAX)),
            NoHook,
            SimConfig {
                seed,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn periodic_timers_drive_traffic() {
        let mut sim = ping_sim(1);
        sim.run_for(SimDuration::from_secs(10));
        // Kick fires roughly every second on two nodes for 10s.
        let s0 = sim.state(NodeId(0)).unwrap();
        assert!(
            (10..=24).contains(&s0.pings_seen),
            "expected ~18 pings, got {}",
            s0.pings_seen
        );
        assert!(sim.stats.messages_delivered > 20, "pings and pongs flowed");
        assert_eq!(sim.stats.violating_states, 0);
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sim = ping_sim(seed);
            sim.run_for(SimDuration::from_secs(20));
            (
                sim.stats.messages_delivered,
                sim.stats.actions_executed,
                sim.state(NodeId(0)).unwrap().pings_seen,
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn partition_blocks_and_restores() {
        let mut sim = ping_sim(3);
        sim.inject(ScriptEvent::Connectivity {
            a: NodeId(1),
            b: NodeId(0),
            up: false,
        });
        sim.inject(ScriptEvent::Connectivity {
            a: NodeId(2),
            b: NodeId(0),
            up: false,
        });
        sim.run_for(SimDuration::from_secs(5));
        assert_eq!(
            sim.state(NodeId(0)).unwrap().pings_seen,
            0,
            "fully partitioned"
        );
        assert!(sim.stats.messages_lost > 0);
        assert!(
            sim.net_stats().total_lost() > 0,
            "partition drops are accounted at the network layer"
        );
        sim.inject(ScriptEvent::Connectivity {
            a: NodeId(1),
            b: NodeId(0),
            up: true,
        });
        sim.run_for(SimDuration::from_secs(5));
        assert!(
            sim.state(NodeId(0)).unwrap().pings_seen > 0,
            "healed partition"
        );
    }

    #[test]
    fn link_quality_fault_slows_traffic_and_heals() {
        let run = |fault: Option<cb_net::LinkFault>| {
            let mut sim = ping_sim(9);
            sim.inject(ScriptEvent::LinkQuality {
                a: NodeId(1),
                b: NodeId(0),
                fault,
            });
            sim.inject(ScriptEvent::LinkQuality {
                a: NodeId(2),
                b: NodeId(0),
                fault,
            });
            sim.run_for(SimDuration::from_secs(10));
            sim.state(NodeId(0)).unwrap().pings_seen
        };
        let clean = run(None);
        let degraded = run(Some(cb_net::LinkFault {
            extra_loss: 0.0,
            extra_delay: SimDuration::from_secs(4),
        }));
        assert!(
            degraded < clean,
            "4s extra one-way delay defers pings past the horizon ({degraded} vs {clean})"
        );
        assert!(degraded > 0, "degraded, not partitioned");
    }

    #[test]
    fn external_scheduler_single_stepping_matches_run_until() {
        let mut a = ping_sim(12);
        let mut b = ping_sim(12);
        a.run_for(SimDuration::from_secs(10));
        // Drive b one event at a time, as the fleet scheduler does.
        let end = SimTime::ZERO + SimDuration::from_secs(10);
        while b.next_event_at().is_some_and(|t| t <= end) {
            let before = b.next_event_at().unwrap();
            let at = b.step_next().expect("queued event");
            assert_eq!(at, before, "peek agrees with dispatch time");
        }
        b.advance_to(end);
        assert_eq!(b.now(), a.now());
        assert_eq!(
            a.state(NodeId(0)).unwrap().pings_seen,
            b.state(NodeId(0)).unwrap().pings_seen
        );
        assert_eq!(a.stats.messages_delivered, b.stats.messages_delivered);
        assert_eq!(a.stats.actions_executed, b.stats.actions_executed);
        assert_eq!(a.gs.state_hash(), b.gs.state_hash());
    }

    #[test]
    fn scripted_reset_wipes_state_and_timers_recover() {
        let mut sim = ping_sim(4);
        sim.run_for(SimDuration::from_secs(5));
        let before = sim.state(NodeId(0)).unwrap().pings_seen;
        assert!(before > 0);
        sim.inject(ScriptEvent::Reset {
            node: NodeId(0),
            notify: false,
        });
        assert_eq!(sim.state(NodeId(0)).unwrap().pings_seen, 0, "state wiped");
        assert_eq!(sim.stats.resets_applied, 1);
        sim.run_for(SimDuration::from_secs(5));
        assert!(sim.state(NodeId(0)).unwrap().pings_seen > 0, "life goes on");
    }

    #[test]
    fn randtree_churn_scenario_builds_a_tree() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let proto = RandTree::new(3, vec![NodeId(0)], RandTreeBugs::none());
        let mut sim = Simulation::new(
            proto,
            &nodes,
            randtree::properties::all(),
            NoHook,
            SimConfig {
                seed: 11,
                ..SimConfig::default()
            },
        );
        let scenario = Scenario::churn(
            &nodes,
            |_| RtAction::Join { target: NodeId(0) },
            SimDuration::from_secs(120),
            SimDuration::from_secs(60),
            11,
        );
        sim.load_scenario(scenario);
        sim.run_for(SimDuration::from_secs(90));
        let joined = nodes
            .iter()
            .filter(|n| {
                sim.state(**n)
                    .is_some_and(|s| s.status == randtree::Status::Joined)
            })
            .count();
        assert!(joined >= 6, "most nodes joined the overlay ({joined}/8)");
        assert_eq!(
            sim.stats.violating_states, 0,
            "fixed RandTree stays consistent: {:?}",
            sim.stats.violations_by_property
        );
        assert!(sim.stats.actions_executed > 50);
    }

    #[test]
    fn buggy_randtree_under_churn_hits_violations() {
        let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
        let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
        let mut sim = Simulation::new(
            proto,
            &nodes,
            randtree::properties::all(),
            NoHook,
            SimConfig {
                seed: 13,
                ..SimConfig::default()
            },
        );
        let scenario = Scenario::churn(
            &nodes,
            |_| RtAction::Join { target: NodeId(0) },
            SimDuration::from_secs(30),
            SimDuration::from_secs(300),
            13,
        );
        sim.load_scenario(scenario);
        sim.run_for(SimDuration::from_secs(320));
        assert!(
            sim.stats.violating_states > 0,
            "as-shipped bugs manifest under churn (resets + rejoins)"
        );
    }

    #[test]
    fn from_state_resumes_a_lived_in_system() {
        // Build a state with history (node 0 has seen pings and has an
        // in-flight message), then resume a simulation from it.
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let mut gs = GlobalState::init(&cfg, (0..3).map(NodeId));
        gs.slot_mut(NodeId(0)).unwrap().state.pings_seen = 7;
        gs.push_payload(
            NodeId(1),
            NodeId(0),
            Payload::Msg(cb_model::testproto::PingMsg::Ping),
        );
        let mut sim = Simulation::from_state(
            cfg,
            gs,
            PropertySet::new().with(max_pings_property(u32::MAX)),
            NoHook,
            SimConfig {
                seed: 21,
                ..SimConfig::default()
            },
        );
        assert_eq!(sim.state(NodeId(0)).unwrap().pings_seen, 7, "state kept");
        sim.run_for(SimDuration::from_secs(5));
        // The pre-existing in-flight ping was delivered and timers drive
        // fresh traffic on top of the resumed state.
        assert!(sim.state(NodeId(0)).unwrap().pings_seen > 8);
        assert!(sim.stats.messages_delivered > 1);
    }

    /// A hook that records snapshots it receives.
    struct SnapCollector {
        snaps: usize,
        nodes_seen: usize,
    }
    impl Hook<Ping> for SnapCollector {
        fn on_snapshot(&mut self, _now: SimTime, _node: NodeId, snap: &cb_snapshot::Snapshot) {
            self.snaps += 1;
            self.nodes_seen = self.nodes_seen.max(snap.states.len());
        }
    }

    #[test]
    fn snapshot_gathers_reach_the_hook() {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut sim = Simulation::new(
            cfg,
            &nodes,
            PropertySet::new(),
            SnapCollector {
                snaps: 0,
                nodes_seen: 0,
            },
            SimConfig {
                seed: 5,
                snapshots: Some(SnapshotRuntime {
                    checkpoint_interval: SimDuration::from_secs(2),
                    gather_interval: SimDuration::from_secs(3),
                    ..SnapshotRuntime::default()
                }),
                ..SimConfig::default()
            },
        );
        sim.run_for(SimDuration::from_secs(30));
        assert!(
            sim.hook.snaps >= 3,
            "gathers completed ({})",
            sim.hook.snaps
        );
        // Ping nodes hold connections to the kick target, so snapshots
        // cover more than the gatherer itself.
        assert!(
            sim.hook.nodes_seen >= 2,
            "neighborhood included ({} nodes)",
            sim.hook.nodes_seen
        );
        assert!(sim.stats.snapshot_bytes_sent > 0);
        assert!(sim.manager(NodeId(0)).unwrap().stats.checkpoints_taken > 0);
    }

    /// A hook that blocks every Ping delivery to node 0.
    struct BlockPings;
    impl Hook<Ping> for BlockPings {
        fn filter_delivery(
            &mut self,
            _now: SimTime,
            gs: &GlobalState<Ping>,
            item: &InFlight<<Ping as Protocol>::Message>,
        ) -> Decision {
            let _ = gs;
            if item.dst == NodeId(0)
                && matches!(
                    item.payload,
                    Payload::Msg(cb_model::testproto::PingMsg::Ping)
                )
            {
                Decision::Block
            } else {
                Decision::Allow
            }
        }
    }

    #[test]
    fn hook_blocks_deliveries() {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let nodes: Vec<NodeId> = (0..3).map(NodeId).collect();
        let mut sim = Simulation::new(
            cfg,
            &nodes,
            PropertySet::new(),
            BlockPings,
            SimConfig {
                seed: 6,
                ..SimConfig::default()
            },
        );
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(
            sim.state(NodeId(0)).unwrap().pings_seen,
            0,
            "all pings blocked"
        );
        assert!(sim.stats.deliveries_blocked > 5);
    }

    /// A hook that blocks the Kick timer at node 1 (it must be rescheduled,
    /// not dropped).
    struct BlockKicks;
    impl Hook<Ping> for BlockKicks {
        fn filter_action(
            &mut self,
            _now: SimTime,
            _gs: &GlobalState<Ping>,
            node: NodeId,
            _action: &PingAction,
        ) -> Decision {
            if node == NodeId(1) {
                Decision::Block
            } else {
                Decision::Allow
            }
        }
    }

    #[test]
    fn blocked_timers_are_rescheduled() {
        let cfg = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let nodes: Vec<NodeId> = (0..2).map(NodeId).collect();
        let mut sim = Simulation::new(
            cfg,
            &nodes,
            PropertySet::new(),
            BlockKicks,
            SimConfig {
                seed: 8,
                ..SimConfig::default()
            },
        );
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(sim.state(NodeId(0)).unwrap().pings_seen, 0);
        assert!(
            sim.stats.actions_blocked >= 5,
            "the blocked timer keeps re-firing ({} blocks)",
            sim.stats.actions_blocked
        );
    }
}
