//! Integration test: execution steering end to end, across all crates —
//! buggy protocols under churn with and without CrystalBall, matching the
//! structure of §5.4.

use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode, NodeAgent};
use crystalball_suite::mc::{Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{NodeId, PropertySet, SimDuration};
use crystalball_suite::protocols::randtree::{self, RandTree, RandTreeBugs};
use crystalball_suite::runtime::{
    Hook, NoHook, Scenario, SimConfig, SimStats, Simulation, SnapshotRuntime,
};

fn churn_scenario(nodes: &[NodeId], seed: u64) -> Scenario<RandTree> {
    Scenario::churn(
        nodes,
        |_| randtree::Action::Join { target: NodeId(0) },
        SimDuration::from_secs(25),
        SimDuration::from_secs(200),
        seed,
    )
}

fn run_randtree<H: Hook<RandTree>>(hook: H, seed: u64, with_snapshots: bool) -> (SimStats, H) {
    let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
    let mut sim = Simulation::new(
        proto,
        &nodes,
        randtree::properties::all(),
        hook,
        SimConfig {
            seed,
            snapshots: with_snapshots.then(|| SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(5),
                gather_interval: SimDuration::from_secs(5),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(churn_scenario(&nodes, seed));
    sim.run_for(SimDuration::from_secs(220));
    (sim.stats.clone(), sim.hook)
}

fn steering_controller() -> Controller<RandTree> {
    Controller::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped()),
        randtree::properties::all(),
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            mc_latency: SimDuration::from_secs(2),
            search: SearchConfig {
                max_states: Some(8_000),
                max_depth: Some(6),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    )
}

#[test]
fn steering_avoids_most_inconsistencies() {
    let (baseline, _) = run_randtree(NoHook, 4242, false);
    assert!(
        baseline.violating_states > 0,
        "the as-shipped bugs must manifest in the baseline run"
    );

    let (steered, ctl) = run_randtree(steering_controller(), 4242, true);
    assert!(
        steered.violating_states < baseline.violating_states,
        "steering reduces inconsistent states ({} -> {})",
        baseline.violating_states,
        steered.violating_states
    );
    assert!(ctl.stats.mc_runs > 0, "the checker actually ran");
    assert!(
        ctl.stats.filter_hits + ctl.stats.isc_vetoes > 0,
        "CrystalBall intervened at least once: {:?}",
        ctl.stats
    );
}

/// The async checker path end to end: the background `CheckerPool`
/// runs prediction on its own thread while the simulated system keeps
/// executing, results are drained from the hook entry points, and the
/// checker latency is *measured* (wall clock) rather than modeled.
#[test]
fn async_checker_service_steers_without_blocking_the_system() {
    let (baseline, _) = run_randtree(NoHook, 4242, false);
    assert!(
        baseline.violating_states > 0,
        "bugs manifest in the baseline"
    );

    let ctl = Controller::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped()),
        randtree::properties::all(),
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker: CheckerMode::Sharded { shards: 1 },
            engine: Engine::Parallel(ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            }),
            search: SearchConfig {
                max_states: Some(8_000),
                max_depth: Some(6),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let (steered, mut ctl) = run_randtree(ctl, 4242, true);

    // Flush rounds still in flight when the simulation ended.
    ctl.drain_predictions(
        cb_model::SimTime::ZERO + SimDuration::from_secs(220),
        std::time::Duration::from_secs(120),
    );
    assert_eq!(ctl.pending_predictions(), 0, "service drained");
    assert!(
        ctl.stats.mc_runs > 0,
        "checking rounds completed: {:?}",
        ctl.stats
    );
    let avg = ctl.stats.avg_mc_latency().expect("measured latency");
    assert!(avg > std::time::Duration::ZERO);
    // The live system was never blocked by prediction, yet CrystalBall
    // still intervened (via whichever of filters/ISC the timing allowed).
    assert!(
        ctl.stats.filter_hits + ctl.stats.isc_vetoes > 0,
        "CrystalBall intervened: {:?}",
        ctl.stats
    );
    // No trajectory comparison here: in background mode filter
    // activation times depend on wall-clock checker completion, so the
    // steered run's violation count is machine/load-dependent. The
    // deterministic synchronous tests own the "steering reduces
    // violations" claim; this test owns the async mechanism. Use the
    // baseline only as evidence the workload is violation-prone.
    let _ = steered;
}

#[test]
fn isc_only_configuration_also_helps() {
    // §5.4.1's middle row: "only the immediate safety check but not the
    // consequence prediction is active".
    let (baseline, _) = run_randtree(NoHook, 777, false);
    let isc_only = Controller::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped()),
        randtree::properties::all(),
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            immediate_safety_check: true,
            // Cripple the checker so only the ISC can act.
            search: SearchConfig {
                max_states: Some(1),
                max_depth: Some(0),
                ..SearchConfig::default()
            },
            replay_known_paths: false,
            ..ControllerConfig::default()
        },
    );
    let (guarded, ctl) = run_randtree(isc_only, 777, true);
    assert!(
        ctl.stats.filters_installed == 0,
        "no filters without a working checker"
    );
    if baseline.violating_states > 0 {
        assert!(
            guarded.violating_states <= baseline.violating_states,
            "ISC alone never makes things worse"
        );
    }
}

#[test]
fn fixed_protocol_run_is_clean_and_uninterfered() {
    let nodes: Vec<NodeId> = (0..6).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none());
    let ctl = Controller::new(
        proto.clone(),
        randtree::properties::all(),
        ControllerConfig {
            mc_latency: SimDuration::from_secs(2),
            search: SearchConfig {
                max_states: Some(6_000),
                max_depth: Some(5),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );
    let mut sim = Simulation::new(
        proto,
        &nodes,
        randtree::properties::all(),
        ctl,
        SimConfig {
            seed: 5,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(5),
                gather_interval: SimDuration::from_secs(5),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(churn_scenario(&nodes, 5));
    sim.run_for(SimDuration::from_secs(150));
    assert_eq!(sim.stats.violating_states, 0, "fixed protocol stays clean");
    assert_eq!(
        sim.hook.stats.isc_vetoes, 0,
        "the ISC never fires on a correct protocol"
    );
}

/// The snapshot pipeline feeds the checker states equal to the live ones:
/// decode(encode(slot)) over the full gather path.
#[test]
fn snapshots_decode_to_live_states() {
    struct Verify {
        checked: usize,
    }
    impl Hook<RandTree> for Verify {
        fn on_snapshot(
            &mut self,
            _now: cb_model::SimTime,
            _node: NodeId,
            snap: &cb_snapshot::Snapshot,
        ) {
            let gs = NodeAgent::<RandTree>::decode(snap);
            // Decoded snapshot states must be internally consistent enough
            // to hash and re-encode identically.
            for (n, slot) in &gs.nodes {
                let bytes = cb_model::Encode::to_bytes(&**slot);
                assert_eq!(&bytes, snap.states.get(n).unwrap());
            }
            self.checked += 1;
        }
    }
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none());
    let mut sim = Simulation::new(
        proto,
        &nodes,
        PropertySet::new(),
        Verify { checked: 0 },
        SimConfig {
            seed: 9,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(3),
                gather_interval: SimDuration::from_secs(3),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    for (i, &n) in nodes.iter().enumerate() {
        sim.load_scenario(Scenario::new().at(
            cb_model::SimTime(i as u64 * 500_000),
            cb_runtime::ScriptEvent::Action {
                node: n,
                action: randtree::Action::Join { target: NodeId(0) },
            },
        ));
    }
    sim.run_for(SimDuration::from_secs(60));
    assert!(sim.hook.checked > 0, "snapshots were gathered and verified");
}

/// Determinism across the whole stack: identical seeds give identical
/// stats, different seeds diverge.
#[test]
fn whole_stack_determinism() {
    let fingerprint = |seed: u64| {
        let (stats, _) = run_randtree(NoHook, seed, true);
        (
            stats.actions_executed,
            stats.messages_delivered,
            stats.violating_states,
            stats.snapshots_completed,
            stats.snapshot_bytes_sent,
        )
    };
    assert_eq!(fingerprint(31), fingerprint(31));
    assert_ne!(fingerprint(31), fingerprint(32));
}

/// The same protocol type drives live execution and the checker: a state
/// reached live can be fed to the checker unchanged.
#[test]
fn live_state_feeds_checker_directly() {
    let nodes: Vec<NodeId> = (0..5).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());
    let mut sim = Simulation::new(
        proto.clone(),
        &nodes,
        randtree::properties::all(),
        NoHook,
        SimConfig {
            seed: 77,
            track_violations: false,
            ..SimConfig::default()
        },
    );
    sim.load_scenario(churn_scenario(&nodes, 77));
    sim.run_for(SimDuration::from_secs(40));
    // Feed the *entire* live global state to consequence prediction.
    let out = crystalball_suite::mc::find_consequences(
        &proto,
        &randtree::properties::all(),
        &sim.gs,
        SearchConfig {
            max_states: Some(30_000),
            max_depth: Some(6),
            ..SearchConfig::default()
        },
    );
    // With all seven bugs armed and churn underway, some prediction should
    // exist — but the real assertion is that the pipeline composes.
    let _ = out.first();
    assert!(out.stats.states_visited > 0);
}
