//! The deterministic fleet scheduler.
//!
//! One global simulated clock drives every co-deployed simulation: the
//! scheduler repeatedly dispatches the earliest pending event across
//! (a) every member's internal event queue, (b) the fault plan, and
//! (c) the periodic checker drain boundary, with a fixed tie-break
//! (drain < fault < member, then member index). Each member remains a
//! self-contained deterministic `Simulation`; what the fleet adds is a
//! reproducible *interleaving* plus fleet-level services — the shared
//! `WorkerPool` and `CheckerHost` every member's controller multiplexes
//! over, the fault engine, and the [`FleetStats`] roll-up.
//!
//! # Determinism contract
//!
//! For a fixed fleet construction (members added in a fixed order, same
//! member configs, same fault plan) and a fixed seed, [`Fleet::run`]
//! produces a byte-identical [`Fleet::trace`] and
//! [`FleetStats::deterministic_json`] regardless of
//!
//! * the parallel-engine worker count of any member's searches,
//! * the number of checker lanes/shards, and
//! * host speed or scheduling.
//!
//! The three legs that carry the contract: members only interact with
//! wall-clock through their background checkers; controllers run with
//! `poll_in_hooks = false`, so completed rounds apply **only** at the
//! scheduler's drain boundaries (fixed simulated times); and a drained
//! batch is applied in submission order (`RoundResult::seq`), not
//! completion order.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

use cb_mc::WorkerPool;
use cb_model::{SimDuration, SimTime};
use crystalball::CheckerHost;

use crate::deployment::Deployment;
use crate::faults::{FaultEvent, FaultPlan};
use crate::stats::FleetStats;

static M_DRAINS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_fleet_drains_total",
    "fleet checker drain boundaries executed",
);

/// Fleet-wide configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Seed for fault plans and member derivation (members mix it with
    /// their name).
    pub seed: u64,
    /// Simulated horizon the fleet runs to.
    pub duration: SimDuration,
    /// Gap between checker drain boundaries — the only points where
    /// background prediction results fold into the live runs.
    pub drain_interval: SimDuration,
    /// Shared checker lanes serving every member's background shards.
    pub checker_lanes: usize,
    /// Shared search worker threads (scope owners participate too, so
    /// `engine workers - 1` is the natural sizing).
    pub pool_threads: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            seed: 1,
            duration: SimDuration::from_secs(120),
            drain_interval: SimDuration::from_secs(5),
            checker_lanes: 2,
            pool_threads: 1,
        }
    }
}

/// The shared checking resources members are built against.
#[derive(Clone)]
pub struct FleetRuntime {
    /// One worker pool for every member's searches.
    pub pool: WorkerPool,
    /// One checker host for every member's background shards.
    pub host: Arc<CheckerHost>,
}

/// A mixed-protocol deployment under one deterministic scheduler.
pub struct Fleet {
    config: FleetConfig,
    runtime: FleetRuntime,
    members: Vec<Box<dyn Deployment>>,
    faults: VecDeque<(SimTime, FaultEvent)>,
    trace: String,
    fleet_steps: u64,
    faults_applied: u64,
    drains: u64,
}

impl Fleet {
    /// Creates an empty fleet with its shared checking resources.
    pub fn new(config: FleetConfig) -> Self {
        let runtime = FleetRuntime {
            pool: WorkerPool::new(config.pool_threads),
            host: Arc::new(CheckerHost::new(config.checker_lanes)),
        };
        Fleet {
            config,
            runtime,
            members: Vec::new(),
            faults: VecDeque::new(),
            trace: String::new(),
            fleet_steps: 0,
            faults_applied: 0,
            drains: 0,
        }
    }

    /// The fleet configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The shared resources, for member constructors.
    pub fn runtime(&self) -> &FleetRuntime {
        &self.runtime
    }

    /// Adds a member. Order matters: it is the tie-break rank and the
    /// `FleetStats` member order.
    pub fn add_member(&mut self, member: Box<dyn Deployment>) {
        self.members.push(member);
    }

    /// The members (post-run inspection).
    pub fn members(&self) -> &[Box<dyn Deployment>] {
        &self.members
    }

    /// Loads a fault plan (replacing any previous one).
    pub fn load_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = plan.events.into();
    }

    /// The deterministic fleet trace: one line per fault application and
    /// per drain boundary (with per-member counter/state-hash snapshots).
    /// Byte-identical across worker counts for the same construction —
    /// the artifact the determinism tests diff.
    pub fn trace(&self) -> &str {
        &self.trace
    }

    /// Runs the fleet to its horizon and returns the roll-up.
    pub fn run(&mut self) -> FleetStats {
        let end = SimTime::ZERO + self.config.duration;
        let mut next_drain = SimTime::ZERO + self.config.drain_interval;
        let mut last_drain = None;
        loop {
            // The earliest pending event across all sources; tie-break by
            // (kind: drain < fault < member, then member index).
            let mut best: Option<(SimTime, u8, usize)> = None;
            let mut consider = |t: SimTime, kind: u8, ix: usize| {
                if t <= end && best.is_none_or(|b| (t, kind, ix) < b) {
                    best = Some((t, kind, ix));
                }
            };
            if next_drain <= end {
                consider(next_drain, 0, 0);
            }
            if let Some((t, _)) = self.faults.front() {
                consider(*t, 1, 0);
            }
            for (i, m) in self.members.iter().enumerate() {
                if let Some(t) = m.next_event_at() {
                    consider(t, 2, i);
                }
            }
            let Some((t, kind, ix)) = best else { break };
            match kind {
                0 => {
                    self.drain_at(t);
                    last_drain = Some(t);
                    next_drain = t + self.config.drain_interval;
                }
                1 => {
                    let (_, ev) = self.faults.pop_front().expect("peeked fault");
                    self.apply_fault(t, &ev);
                }
                _ => {
                    self.members[ix].step();
                    self.fleet_steps += 1;
                }
            }
        }
        // Close out: advance clocks to the horizon and fold in whatever
        // the checkers still owe (unless the loop's last drain boundary
        // already sat exactly on the horizon).
        for m in &mut self.members {
            m.advance_to(end);
        }
        if last_drain != Some(end) {
            self.drain_at(end);
        }
        let _ = writeln!(self.trace, "end t={}", end.0);
        self.build_stats(end)
    }

    /// Applies one fault event to every member (uniform injection) and
    /// records it in the trace. Members first advance to the fault's
    /// scheduled time — the global-min pick guarantees they have no
    /// unprocessed events before `t`, but an idle member's clock may
    /// still be behind, and injecting against a stale clock would
    /// timestamp the fault's side-effects (RSTs, rejoin timers) in the
    /// past.
    fn apply_fault(&mut self, t: SimTime, ev: &FaultEvent) {
        let applied: Vec<bool> = self
            .members
            .iter_mut()
            .map(|m| {
                m.advance_to(t);
                m.apply_fault(ev)
            })
            .collect();
        self.faults_applied += 1;
        let _ = writeln!(self.trace, "fault t={} {:?} applied={:?}", t.0, ev, applied);
    }

    /// A drain boundary: every member's background checker empties and
    /// its results apply at simulated time `t`; the trace records a
    /// deterministic per-member snapshot.
    fn drain_at(&mut self, t: SimTime) {
        let _span = cb_obs::span_id("fleet.drain", "fleet", self.drains + 1);
        M_DRAINS.inc();
        self.drains += 1;
        let _ = writeln!(self.trace, "drain t={}", t.0);
        for (i, m) in self.members.iter_mut().enumerate() {
            let applied = m.drain_checker(t, Duration::from_secs(600));
            debug_assert_eq!(m.pending_checker(), 0, "drain left rounds behind");
            let s = m.stats();
            let _ = writeln!(
                self.trace,
                "  m{i} {} applied={applied} steps={} actions={} delivered={} lost={} \
                 blocked={} viol={} mc={} preds={} installed={} hits={} isc={} \
                 hash={:016x}",
                s.name,
                s.steps,
                s.actions_executed,
                s.messages_delivered,
                s.messages_lost,
                s.deliveries_blocked + s.actions_blocked,
                s.violating_states,
                s.mc_runs,
                s.predictions,
                s.filters_installed,
                s.filter_hits,
                s.isc_vetoes,
                s.state_hash,
            );
        }
    }

    fn build_stats(&self, end: SimTime) -> FleetStats {
        FleetStats {
            seed: self.config.seed,
            sim_seconds: end.as_secs_f64(),
            fleet_steps: self.fleet_steps,
            faults_applied: self.faults_applied,
            drains: self.drains,
            // Observability metadata, full-JSON-only (never part of the
            // deterministic surface): how much trace the run lost.
            trace_ring_dropped: cb_obs::dropped_events(),
            members: self.members.iter().map(|m| m.stats()).collect(),
        }
    }
}
