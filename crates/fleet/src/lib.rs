//! # cb-fleet — the deterministic mixed-protocol deployment harness
//!
//! CrystalBall's claim is about *deployed* systems: many nodes,
//! heterogeneous services, live faults. The per-protocol tests and
//! benches each exercise one service in isolation; this crate runs
//! **several of them side by side** — a Paxos group, a RandTree overlay,
//! a Bullet' dissemination mesh — as one deployment:
//!
//! * [`Fleet`] — the scheduler: one global simulated clock interleaving
//!   every member's events, every fault, and the checker drain
//!   boundaries in a reproducible order;
//! * [`Deployment`] / [`SimDeployment`] — the protocol-erased member
//!   interface over `cb_runtime::Simulation`'s single-step surface;
//! * [`FaultPlan`] — seeded schedules of partitions, link degradation
//!   (`cb_net::LinkFault`), and node churn, applied **uniformly** to
//!   every co-deployed simulation;
//! * [`members`] — per-protocol member constructors with deterministic
//!   workload generators (churned overlays, repeated Fig. 13 Paxos
//!   rounds, block floods);
//! * [`FleetStats`] — the fleet-wide steering roll-up (predictions vs.
//!   installed filters vs. interventions, measured mc latency), emitted
//!   as JSON.
//!
//! Every member's controller multiplexes over one shared
//! [`cb_mc::WorkerPool`] and one shared [`crystalball::CheckerHost`], so
//! idle members donate checking capacity to busy ones.
//!
//! **Determinism is the headline contract**: the same fleet construction
//! and seed produce a byte-identical [`Fleet::trace`] and
//! [`FleetStats::deterministic_json`] regardless of search worker count,
//! checker lanes, or host speed (see `scheduler` module docs for the
//! three legs that carry this).

pub mod deployment;
pub mod faults;
pub mod members;
pub mod scheduler;
pub mod stats;

pub use deployment::{Deployment, FleetHook, SimDeployment};
pub use faults::{FaultConfig, FaultEvent, FaultPlan};
pub use members::{bullet_member, chord_member, paxos_member, randtree_member, MemberCommon};
pub use scheduler::{Fleet, FleetConfig, FleetRuntime};
pub use stats::{FleetStats, MemberStats};

#[cfg(test)]
mod tests {
    use super::*;
    use cb_model::SimDuration;
    use cb_protocols::randtree::RandTreeBugs;

    /// A tiny single-member fleet sanity pass: the scheduler drives the
    /// simulation to the horizon, faults apply, stats roll up.
    #[test]
    fn single_member_fleet_runs_to_horizon() {
        let config = FleetConfig {
            seed: 5,
            duration: SimDuration::from_secs(40),
            drain_interval: SimDuration::from_secs(5),
            ..FleetConfig::default()
        };
        let mut fleet = Fleet::new(config);
        let rt = fleet.runtime().clone();
        fleet.add_member(randtree_member(
            &rt,
            MemberCommon::baseline("rt", 5),
            6,
            RandTreeBugs::none(),
            SimDuration::from_secs(30),
            SimDuration::from_secs(40),
        ));
        fleet.load_fault_plan(FaultPlan::generate(
            &FaultConfig {
                nodes: 6,
                duration: SimDuration::from_secs(40),
                start_after: SimDuration::from_secs(10),
                ..FaultConfig::default()
            },
            5,
        ));
        let stats = fleet.run();
        assert_eq!(stats.members.len(), 1);
        let m = &stats.members[0];
        assert_eq!(m.protocol, "randtree");
        assert!(m.steps > 50, "events dispatched: {}", m.steps);
        assert!(m.actions_executed > 20);
        assert!(stats.faults_applied > 0, "faults consumed from the plan");
        assert!(m.faults_applied > 0, "faults reached the member");
        assert!(stats.drains >= 8, "periodic drains ran: {}", stats.drains);
        assert!(fleet.trace().contains("fault t="));
        assert!(fleet.trace().ends_with(&format!("end t={}\n", 40_000_000)));
        let json = stats.to_json();
        assert!(json.contains("\"protocol\":\"randtree\""));
    }

    /// The same construction twice must produce byte-identical traces
    /// and deterministic JSON (the in-crate smoke version of the full
    /// mixed-protocol determinism test).
    #[test]
    fn identical_constructions_trace_identically() {
        let run = |seed: u64| {
            let config = FleetConfig {
                seed,
                duration: SimDuration::from_secs(30),
                drain_interval: SimDuration::from_secs(5),
                ..FleetConfig::default()
            };
            let mut fleet = Fleet::new(config);
            let rt = fleet.runtime().clone();
            fleet.add_member(randtree_member(
                &rt,
                MemberCommon::baseline("rt", seed),
                6,
                RandTreeBugs::as_shipped(),
                SimDuration::from_secs(20),
                SimDuration::from_secs(30),
            ));
            fleet.load_fault_plan(FaultPlan::generate(
                &FaultConfig {
                    nodes: 6,
                    duration: SimDuration::from_secs(30),
                    start_after: SimDuration::from_secs(8),
                    ..FaultConfig::default()
                },
                seed,
            ));
            let stats = fleet.run();
            (fleet.trace().to_string(), stats.deterministic_json())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds trace differently");
    }
}
