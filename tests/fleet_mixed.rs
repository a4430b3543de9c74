//! The mixed-protocol deployment end to end: a RandTree overlay, a Paxos
//! group, and a Bullet' dissemination mesh co-deployed under ONE fleet
//! scheduler, one fault schedule, one shared `WorkerPool`, and one shared
//! `CheckerHost` — the ROADMAP's "mixed-protocol deployment harness"
//! scenario.
//!
//! What must hold (the PR's acceptance bar):
//!
//! * ≥ 3 distinct protocols run side by side under one seeded fault plan
//!   (partitions + churn + link degradation, applied uniformly);
//! * at least one future violation is predicted **from a clean snapshot**
//!   (the prediction lands before the member's live state ever violates)
//!   and steering turns predictions into installed filters — on both the
//!   synchronous and the sharded background checker backends;
//! * the whole run is **byte-identical** across parallel-engine worker
//!   counts for a fixed seed: same fleet trace, same deterministic
//!   `FleetStats` JSON (`CB_EQ_WORKERS` drives the matrix legs, as for
//!   the other determinism suites).

use crystalball_suite::core::{CheckerMode, ControllerConfig, Mode};
use crystalball_suite::fleet::{
    bullet_member, paxos_member, randtree_member, FaultConfig, FaultPlan, Fleet, FleetConfig,
    FleetStats, MemberCommon,
};
use crystalball_suite::mc::{Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{ExploreOptions, SimDuration};
use crystalball_suite::protocols::bullet::BulletBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::RandTreeBugs;

const HORIZON_SECS: u64 = 80;

fn engine(workers: usize) -> Engine {
    if workers <= 1 {
        Engine::Sequential
    } else {
        Engine::Parallel(ParallelConfig {
            workers,
            ..ParallelConfig::default()
        })
    }
}

fn controller(
    checker: CheckerMode,
    workers: usize,
    max_states: usize,
    depth: usize,
    minimal: bool,
) -> ControllerConfig {
    ControllerConfig {
        mode: Mode::ExecutionSteering,
        checker,
        engine: engine(workers),
        mc_latency: SimDuration::from_millis(500),
        search: SearchConfig {
            max_states: Some(max_states),
            max_depth: Some(depth),
            explore: if minimal {
                ExploreOptions::minimal()
            } else {
                ExploreOptions::default()
            },
            ..SearchConfig::default()
        },
        // Both legs of the CI matrix's CB_PRED_CACHE toggle must trace
        // identically.
        prediction_cache: cb_bench::matrix::prediction_cache(),
        ..ControllerConfig::default()
    }
}

/// Builds and runs the three-protocol fleet; returns the trace bytes, the
/// deterministic JSON, and the stats.
fn run_fleet(checker: CheckerMode, workers: usize, seed: u64) -> (String, String, FleetStats) {
    let horizon = SimDuration::from_secs(HORIZON_SECS);
    let mut fleet = Fleet::new(FleetConfig {
        seed,
        duration: horizon,
        drain_interval: SimDuration::from_secs(5),
        checker_lanes: 2,
        pool_threads: workers.max(2) - 1,
    });
    let rt = fleet.runtime().clone();
    fleet.add_member(randtree_member(
        &rt,
        MemberCommon::steering(
            "randtree-overlay",
            seed ^ 0xa1,
            controller(checker, workers, 8_000, 6, false),
        ),
        6,
        RandTreeBugs::only("R1"),
        SimDuration::from_secs(25),
        horizon,
    ));
    fleet.add_member(paxos_member(
        &rt,
        MemberCommon::steering(
            "paxos-group",
            seed ^ 0xb2,
            controller(checker, workers, 12_000, 12, true),
        ),
        PaxosBugs::only("P2"),
        2,
        SimDuration::from_secs(25),
    ));
    fleet.add_member(bullet_member(
        &rt,
        MemberCommon::steering(
            "bullet-mesh",
            seed ^ 0xc3,
            controller(checker, workers, 8_000, 6, true),
        ),
        5,
        30,
        BulletBugs::only("B1"),
    ));
    // One fault schedule for the whole deployment. Partitions are left to
    // the Paxos member's own Fig. 13 script (a fleet-wide heal could
    // splice its rounds); churn and link degradation hit every member
    // uniformly.
    fleet.load_fault_plan(FaultPlan::generate(
        &FaultConfig {
            nodes: 6,
            duration: horizon,
            start_after: SimDuration::from_secs(35),
            partition_mean_gap: None,
            churn_mean_gap: Some(SimDuration::from_secs(40)),
            degrade_mean_gap: Some(SimDuration::from_secs(35)),
            ..FaultConfig::default()
        },
        seed,
    ));
    let stats = fleet.run();
    (fleet.trace().to_string(), stats.deterministic_json(), stats)
}

/// The shared assertions both checker backends must clear.
fn assert_fleet_outcome(stats: &FleetStats, backend: &str) {
    let protos: std::collections::BTreeSet<&str> =
        stats.members.iter().map(|m| m.protocol.as_str()).collect();
    assert_eq!(
        protos.len(),
        3,
        "{backend}: three distinct protocols co-deployed: {protos:?}"
    );
    assert!(
        stats.faults_applied > 0,
        "{backend}: the fault schedule actually fired"
    );
    for m in &stats.members {
        assert!(m.steps > 0, "{backend}: member {} was scheduled", m.name);
        assert!(
            m.mc_runs > 0,
            "{backend}: member {} ran prediction rounds: {m:?}",
            m.name
        );
    }
    assert!(
        stats.predictions() > 0,
        "{backend}: future inconsistencies predicted fleet-wide"
    );
    assert!(
        stats.filters_installed() > 0,
        "{backend}: steering installed corrective filters (avoidance)"
    );
    // "Predicted from clean snapshots": some member's first prediction
    // precedes any live violation it ever suffers.
    let clean = stats.members.iter().any(|m| {
        m.first_prediction_at.is_some()
            && m.first_violation_at
                .is_none_or(|v| m.first_prediction_at.unwrap() < v)
    });
    assert!(
        clean,
        "{backend}: a member predicted before (or without) ever violating: {:?}",
        stats
            .members
            .iter()
            .map(|m| (m.name.clone(), m.first_prediction_at, m.first_violation_at))
            .collect::<Vec<_>>()
    );
}

#[test]
fn mixed_fleet_predicts_and_steers_on_synchronous_backend() {
    let workers = *cb_bench::matrix::workers().first().unwrap_or(&1);
    let (_, _, stats) = run_fleet(CheckerMode::Synchronous, workers, 42);
    assert_fleet_outcome(&stats, "synchronous");
}

#[test]
fn mixed_fleet_predicts_and_steers_on_sharded_backend() {
    let workers = *cb_bench::matrix::workers().first().unwrap_or(&1);
    let (_, _, stats) = run_fleet(CheckerMode::Sharded { shards: 2 }, workers, 42);
    assert_fleet_outcome(&stats, "sharded");
}

/// The determinism contract: same `(construction, seed)` ⇒ byte-identical
/// fleet trace and deterministic stats, across every worker count of the
/// CI matrix leg (`CB_EQ_WORKERS`), on both checker backends.
#[test]
fn fleet_trace_byte_identical_across_worker_counts() {
    for (backend, checker) in [
        ("synchronous", CheckerMode::Synchronous),
        ("sharded", CheckerMode::Sharded { shards: 2 }),
    ] {
        let (ref_trace, ref_json, ref_stats) = run_fleet(checker, 1, 42);
        assert!(!ref_trace.is_empty());
        for workers in cb_bench::matrix::workers() {
            if workers == 1 {
                continue;
            }
            let (trace, json, stats) = run_fleet(checker, workers, 42);
            assert_eq!(
                ref_trace, trace,
                "{backend}: fleet trace diverged at {workers} workers"
            );
            assert_eq!(
                ref_json, json,
                "{backend}: deterministic stats diverged at {workers} workers"
            );
            assert_eq!(
                ref_stats.fleet_steps, stats.fleet_steps,
                "{backend}: step counts diverged at {workers} workers"
            );
        }
    }
}
