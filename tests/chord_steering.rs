//! End-to-end Chord scenario: the stabilized ring from
//! `cb_bench::scenarios::chord_ring` dropped under a live `Simulation` +
//! `Controller`, then churned — the §5.2.2 deployment wired through the
//! whole stack (checkpoint managers → neighborhood snapshots → prediction
//! rounds → reports), not just a standalone search.

use cb_bench::scenarios::chord_ring;
use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::SearchConfig;
use crystalball_suite::model::{ExploreOptions, NodeId, SimDuration, SimTime};
use crystalball_suite::protocols::chord::{self, Action, Chord, ChordBugs};
use crystalball_suite::runtime::{Scenario, ScriptEvent, SimConfig, Simulation, SnapshotRuntime};

const RING: [u32; 6] = [0, 5, 11, 17, 26, 34];

/// Every other ring member resets and rejoins — the churn that makes the
/// as-shipped Chord bugs (C1–C3) predictable from live snapshots.
fn churn() -> Scenario<Chord> {
    let mut sc = Scenario::new();
    for (i, &n) in RING.iter().enumerate() {
        if i % 2 == 1 {
            sc = sc.at(
                SimTime::ZERO + SimDuration::from_secs(20 + 11 * i as u64),
                ScriptEvent::Reset {
                    node: NodeId(n),
                    notify: true,
                },
            );
            sc = sc.at(
                SimTime::ZERO + SimDuration::from_secs(25 + 11 * i as u64),
                ScriptEvent::Action {
                    node: NodeId(n),
                    action: Action::Join { target: NodeId(0) },
                },
            );
        }
    }
    sc
}

fn run(checker: CheckerMode, seed: u64) -> Simulation<Chord, Controller<Chord>> {
    let (proto, ring) = chord_ring(&RING, ChordBugs::as_shipped());
    let controller = Controller::new(
        proto.clone(),
        chord::properties::all(),
        ControllerConfig {
            mode: Mode::DeepOnlineDebugging,
            checker,
            search: SearchConfig {
                max_states: Some(15_000),
                max_depth: Some(6),
                // The Fig. 10 scenario needs resets and spontaneous
                // connection errors in the search space.
                explore: ExploreOptions {
                    resets: true,
                    peer_errors: true,
                    drops: false,
                },
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let mut sim = Simulation::from_state(
        proto,
        ring,
        chord::properties::all(),
        controller,
        SimConfig {
            seed,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(5),
                gather_interval: SimDuration::from_secs(5),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(churn());
    sim.run_for(SimDuration::from_secs(120));
    sim
}

#[test]
fn chord_ring_deep_online_debugging_end_to_end() {
    let sim = run(CheckerMode::Synchronous, 23);
    // The whole pipeline carried weight: periodic gathers produced
    // consistent snapshots, snapshots fed prediction rounds, and the
    // checker reported future inconsistencies of the as-shipped bugs.
    assert!(
        sim.stats.snapshots_completed > 20,
        "gathers completed: {}",
        sim.stats.snapshots_completed
    );
    assert!(sim.stats.snapshot_bytes_sent > 0);
    assert!(
        sim.hook.stats.mc_runs > 10,
        "prediction rounds ran: {}",
        sim.hook.stats.mc_runs
    );
    assert!(
        sim.hook.stats.predictions > 0,
        "future inconsistencies predicted: {:?}",
        sim.hook.stats
    );
    let report = &sim.hook.reports[0];
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
/// the simulation thread and still find the inconsistencies.
#[test]
fn chord_ring_predicts_on_sharded_pool_too() {
    let mut sim = run(CheckerMode::Sharded { shards: 2 }, 23);
    sim.hook.drain_predictions(
        SimTime::ZERO + SimDuration::from_secs(120),
        std::time::Duration::from_secs(120),
    );
    assert_eq!(sim.hook.pending_predictions(), 0, "pool drained");
    assert!(
        sim.hook.stats.mc_runs > 10,
        "rounds completed in the background: {:?}",
        sim.hook.stats
    );
    assert!(
        sim.hook.stats.predictions > 0,
        "sharded pool also predicts: {:?}",
        sim.hook.stats
    );
}
