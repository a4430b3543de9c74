//! The object-safe member interface the fleet scheduler drives, and its
//! one implementation over `cb_runtime::Simulation`.
//!
//! A [`Deployment`] erases the protocol type: the scheduler interleaves
//! members by simulated time through `next_event_at`/`step` (the
//! single-step surface `Simulation` grew for exactly this), applies
//! fault-plan events, places the deterministic checker drain points, and
//! reads back a [`MemberStats`] roll-up — all without knowing whether the
//! member runs Paxos or a RandTree overlay.
//!
//! [`SimDeployment`] wraps a `Simulation<P, H>` for any hook that
//! implements [`FleetHook`] — the CrystalBall [`Controller`] (steering or
//! deep-online-debugging members) or [`NoHook`] (uninstrumented baseline
//! members for avoided-vs-suffered comparisons).

use std::time::Duration;

use cb_model::{NodeId, Protocol, SimTime};
use cb_runtime::{Hook, NoHook, ScriptEvent, Simulation};
use cb_snapshot::DeltaStats;
use crystalball::{Controller, ControllerStats, PredictionReport};

use crate::faults::FaultEvent;
use crate::stats::MemberStats;

/// What the fleet needs from a member's hook beyond `cb_runtime::Hook`:
/// deterministic checker drains and steering counters. Everything
/// defaults to the uninstrumented no-op, so `NoHook` baselines slot in.
pub trait FleetHook<P: Protocol>: Hook<P> {
    /// Blocks until every submitted background round completed and
    /// applies the batch in submission order; returns rounds applied.
    fn drain(&mut self, now: SimTime, timeout: Duration) -> usize {
        let _ = (now, timeout);
        0
    }

    /// Rounds submitted but not yet applied.
    fn pending(&self) -> u64 {
        0
    }

    /// The controller counters, if this hook is a controller.
    fn controller_stats(&self) -> Option<&ControllerStats> {
        None
    }

    /// The prediction log, if this hook is a controller.
    fn reports(&self) -> &[PredictionReport] {
        &[]
    }

    /// Diff-shipping wire counters, if a background checker is attached.
    fn wire_stats(&self) -> Option<DeltaStats> {
        None
    }

    /// Prediction-cache counters, if this hook is a
    /// controller with a memoizing checker.
    fn cache_stats(&self) -> crystalball::CacheStats {
        crystalball::CacheStats::default()
    }
}

impl<P: Protocol> FleetHook<P> for NoHook {}

impl<P: Protocol> FleetHook<P> for Controller<P> {
    fn drain(&mut self, now: SimTime, timeout: Duration) -> usize {
        self.drain_predictions(now, timeout)
    }

    fn pending(&self) -> u64 {
        self.pending_predictions()
    }

    fn controller_stats(&self) -> Option<&ControllerStats> {
        Some(&self.stats)
    }

    fn reports(&self) -> &[PredictionReport] {
        &self.reports
    }

    fn wire_stats(&self) -> Option<DeltaStats> {
        self.checker_wire_stats()
    }

    fn cache_stats(&self) -> crystalball::CacheStats {
        self.checker_cache_stats()
    }
}

/// One co-deployed member, protocol-erased for the scheduler.
pub trait Deployment {
    /// Deployment name (unique within the fleet).
    fn name(&self) -> &str;
    /// Protocol name (`Protocol::name`).
    fn protocol(&self) -> &'static str;
    /// When this member's next event dispatches, if any.
    fn next_event_at(&self) -> Option<SimTime>;
    /// Dispatches exactly one event; returns its time.
    fn step(&mut self) -> Option<SimTime>;
    /// Advances the member's clock without dispatching (horizon close-out).
    fn advance_to(&mut self, t: SimTime);
    /// Applies one fault-plan event, mapping abstract node indices onto
    /// this member's node set; returns whether anything was applied.
    fn apply_fault(&mut self, ev: &FaultEvent) -> bool;
    /// Drains the member's background checker at a deterministic point.
    fn drain_checker(&mut self, now: SimTime, timeout: Duration) -> usize;
    /// Background rounds still outstanding.
    fn pending_checker(&self) -> u64;
    /// The member's current roll-up (cheap; called at drain boundaries).
    fn stats(&self) -> MemberStats;
}

/// A `Simulation` + hook pair as a fleet member.
pub struct SimDeployment<P: Protocol, H: FleetHook<P>> {
    name: String,
    sim: Simulation<P, H>,
    nodes: Vec<NodeId>,
    /// Protocol-specific bootstrap re-issued after a churn fault
    /// (`None`: the protocol recovers on its own timers).
    rejoin: Option<Box<dyn Fn(NodeId) -> P::Action>>,
    steps: u64,
    faults_applied: u64,
}

impl<P: Protocol, H: FleetHook<P>> SimDeployment<P, H> {
    /// Wraps a fully built simulation (scenario already loaded) as a
    /// fleet member over `nodes`.
    pub fn new(
        name: impl Into<String>,
        sim: Simulation<P, H>,
        nodes: Vec<NodeId>,
        rejoin: Option<Box<dyn Fn(NodeId) -> P::Action>>,
    ) -> Self {
        SimDeployment {
            name: name.into(),
            sim,
            nodes,
            rejoin,
            steps: 0,
            faults_applied: 0,
        }
    }

    /// The wrapped simulation (post-run inspection in tests/benches).
    pub fn sim(&self) -> &Simulation<P, H> {
        &self.sim
    }

    fn map_node(&self, index: usize) -> NodeId {
        self.nodes[index % self.nodes.len()]
    }
}

impl<P: Protocol, H: FleetHook<P>> Deployment for SimDeployment<P, H> {
    fn name(&self) -> &str {
        &self.name
    }

    fn protocol(&self) -> &'static str {
        self.sim.protocol.name()
    }

    fn next_event_at(&self) -> Option<SimTime> {
        self.sim.next_event_at()
    }

    fn step(&mut self) -> Option<SimTime> {
        let at = self.sim.step_next();
        if at.is_some() {
            self.steps += 1;
        }
        at
    }

    fn advance_to(&mut self, t: SimTime) {
        self.sim.advance_to(t);
    }

    fn apply_fault(&mut self, ev: &FaultEvent) -> bool {
        let applied = match *ev {
            FaultEvent::Partition { a, b, up } => {
                let (a, b) = (self.map_node(a), self.map_node(b));
                if a == b {
                    return false; // folded onto one node: nothing to cut
                }
                self.sim.inject(ScriptEvent::Connectivity { a, b, up });
                true
            }
            FaultEvent::Degrade { a, b, fault } => {
                let (a, b) = (self.map_node(a), self.map_node(b));
                if a == b {
                    return false;
                }
                self.sim.inject(ScriptEvent::LinkQuality { a, b, fault });
                true
            }
            FaultEvent::Churn { node, notify } => {
                let node = self.map_node(node);
                self.sim.inject(ScriptEvent::Reset { node, notify });
                true
            }
            FaultEvent::Rejoin { node } => match &self.rejoin {
                Some(make) => {
                    let node = self.map_node(node);
                    let action = make(node);
                    self.sim.inject(ScriptEvent::Action { node, action });
                    true
                }
                None => false,
            },
        };
        if applied {
            self.faults_applied += 1;
        }
        applied
    }

    fn drain_checker(&mut self, now: SimTime, timeout: Duration) -> usize {
        self.sim.hook.drain(now, timeout)
    }

    fn pending_checker(&self) -> u64 {
        self.sim.hook.pending()
    }

    fn stats(&self) -> MemberStats {
        let s = &self.sim.stats;
        let mut m = MemberStats {
            name: self.name.clone(),
            protocol: self.protocol().to_string(),
            steps: self.steps,
            faults_applied: self.faults_applied,
            actions_executed: s.actions_executed,
            messages_delivered: s.messages_delivered,
            messages_lost: s.messages_lost,
            deliveries_blocked: s.deliveries_blocked,
            actions_blocked: s.actions_blocked,
            resets_applied: s.resets_applied,
            snapshots_completed: s.snapshots_completed,
            violating_states: s.violating_states,
            violations_by_property: s.violations_by_property.clone(),
            first_violation_at: s.first_violation.as_ref().map(|(t, _)| *t),
            state_hash: self.sim.gs.state_hash(),
            ..MemberStats::default()
        };
        if let Some(cs) = self.sim.hook.controller_stats() {
            m.mc_runs = cs.mc_runs;
            m.predictions = cs.predictions;
            m.filters_installed = cs.filters_installed;
            m.steering_unhelpful = cs.steering_unhelpful;
            m.filter_hits = cs.filter_hits;
            m.isc_vetoes = cs.isc_vetoes;
            m.uncaught_violations = cs.uncaught_violations;
            m.avg_mc_latency_ms = cs
                .avg_mc_latency()
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(0.0);
        }
        m.first_prediction_at = self.sim.hook.reports().first().map(|r| r.at);
        if let Some(w) = self.sim.hook.wire_stats() {
            m.wire_raw_bytes = w.raw_bytes;
            m.wire_shipped_bytes = w.shipped_bytes;
        }
        m.cache = self.sim.hook.cache_stats();
        m
    }
}
