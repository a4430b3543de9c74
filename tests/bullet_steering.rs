//! End-to-end Bullet' scenario: a mesh dissemination deployment dropped
//! under a live `Simulation` + `Controller` — the §5.2.3 system wired
//! through the whole stack (checkpoint managers → neighborhood snapshots
//! → prediction rounds → reports), not just a standalone search. Closes
//! the ROADMAP scenario-diversity item for Bullet'.
//!
//! The deployment carries the paper's original MACEDON bug (B1): once
//! the per-receiver transport window fills, the sender's next diff timer
//! clears the shadow file map and blocks are lost forever
//! (`DiffCoverage`). From clean live snapshots, consequence prediction
//! sees that future before the deployment reaches it.

use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::SearchConfig;
use crystalball_suite::model::{ExploreOptions, GlobalState, NodeId, SimDuration, SimTime};
use crystalball_suite::protocols::bullet::{self, Bullet, BulletBugs};
use crystalball_suite::runtime::{SimConfig, Simulation, SnapshotRuntime};

/// A 6-node mesh (source + 5 receivers, fan-in 2) distributing a file
/// slowly enough that the dissemination is still in flight across many
/// snapshot gathers — the regime where prediction has a future to see.
fn mesh(bugs: BulletBugs) -> (Bullet, GlobalState<Bullet>) {
    let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
    let mut proto = Bullet::with_mesh(&nodes, 2, 40, bugs);
    proto.diff_period = SimDuration::from_secs(2);
    proto.request_period = SimDuration::from_secs(1);
    let gs = GlobalState::init(&proto, nodes.clone());
    (proto, gs)
}

fn run(checker: CheckerMode, seed: u64) -> Simulation<Bullet, Controller<Bullet>> {
    let (proto, gs) = mesh(BulletBugs::only("B1"));
    let controller = Controller::new(
        proto.clone(),
        bullet::properties::all(),
        ControllerConfig {
            mode: Mode::DeepOnlineDebugging,
            checker,
            search: SearchConfig {
                max_states: Some(12_000),
                max_depth: Some(6),
                explore: ExploreOptions::minimal(),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let mut sim = Simulation::from_state(
        proto,
        gs,
        bullet::properties::all(),
        controller,
        SimConfig {
            seed,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(3),
                gather_interval: SimDuration::from_secs(3),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    // No scripted scenario: Bullet' drives itself — the periodic diff and
    // request timers are the whole workload, and they are exactly what
    // trips the B1/B2 window-refusal path.
    sim.run_for(SimDuration::from_secs(60));
    sim
}

#[test]
fn bullet_mesh_deep_online_debugging_end_to_end() {
    let sim = run(CheckerMode::Synchronous, 17);
    // The whole pipeline carried weight: periodic gathers produced
    // consistent snapshots, snapshots fed prediction rounds, and the
    // checker reported the shadow-map loss ahead of time.
    assert!(
        sim.stats.snapshots_completed > 5,
        "gathers completed: {}",
        sim.stats.snapshots_completed
    );
    assert!(sim.stats.snapshot_bytes_sent > 0);
    assert!(
        sim.hook.stats.mc_runs > 5,
        "prediction rounds ran: {}",
        sim.hook.stats.mc_runs
    );
    assert!(
        sim.hook.stats.predictions > 0,
        "future inconsistencies predicted: {:?}",
        sim.hook.stats
    );
    let report = &sim.hook.reports[0];
    assert_eq!(
        report.violation.property, "DiffCoverage",
        "the B1 shadow-clearing loss is what prediction surfaces"
    );
    assert!(report.depth > 0, "prediction looked into the future");
    assert!(
        !report.scenario.is_empty(),
        "report carries the event-path walk-through"
    );
    // Debugging mode never interferes with the live run.
    assert_eq!(sim.hook.installed_filters(), 0);
    // Nothing left dangling on the (synchronous) checker.
    assert_eq!(sim.hook.pending_predictions(), 0);
}

/// The same deployment on the sharded background pool: rounds check off
/// the simulation thread and still find the loss.
#[test]
fn bullet_mesh_predicts_on_sharded_pool_too() {
    let mut sim = run(CheckerMode::Sharded { shards: 2 }, 17);
    sim.hook.drain_predictions(
        SimTime::ZERO + SimDuration::from_secs(60),
        std::time::Duration::from_secs(120),
    );
    assert_eq!(sim.hook.pending_predictions(), 0, "pool drained");
    assert!(
        sim.hook.stats.mc_runs > 5,
        "rounds completed in the background: {:?}",
        sim.hook.stats
    );
    assert!(
        sim.hook.stats.predictions > 0,
        "sharded pool also predicts: {:?}",
        sim.hook.stats
    );
}

/// Control: with the corrected protocol the same deployment predicts no
/// violations — the predictions above are the bugs, not noise.
#[test]
fn bullet_mesh_fixed_protocol_predicts_nothing() {
    let (proto, gs) = mesh(BulletBugs::none());
    let controller = Controller::new(
        proto.clone(),
        bullet::properties::all(),
        ControllerConfig {
            mode: Mode::DeepOnlineDebugging,
            checker: CheckerMode::Synchronous,
            search: SearchConfig {
                max_states: Some(12_000),
                max_depth: Some(6),
                explore: ExploreOptions::minimal(),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let mut sim = Simulation::from_state(
        proto,
        gs,
        bullet::properties::all(),
        controller,
        SimConfig {
            seed: 17,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(3),
                gather_interval: SimDuration::from_secs(3),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.run_for(SimDuration::from_secs(60));
    assert!(sim.hook.stats.mc_runs > 5, "rounds still ran");
    assert_eq!(
        sim.hook.stats.predictions, 0,
        "fixed protocol is clean: {:?}",
        sim.hook.stats
    );
    assert_eq!(sim.stats.violating_states, 0);
}
