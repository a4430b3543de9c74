//! The checker on a real background thread, as deployed in the paper.
//!
//! "We run the model checker as a separate thread that communicates future
//! inconsistencies to the runtime. ... On a multi-core machine this
//! CPU-intensive process will likely be scheduled on a separate core" (§4).
//!
//! This arrangement is built into the controller: constructing it with
//! `CheckerMode::Sharded { shards: 1 }` spawns a 1-shard `CheckerPool`,
//! snapshots ship to it over a channel, and completed prediction rounds are drained
//! from the controller's hook entry points while the live simulation keeps
//! stepping. The prediction itself runs on the parallel level-synchronous
//! engine, so the "separate thread" is really a worker pool. The checker
//! latency the paper models as `mc_latency` is *measured* here.
//!
//! Run with: `cargo run --release --example live_thread`

use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::{Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{NodeId, SimDuration, SimTime};
use crystalball_suite::protocols::randtree::{self, Action, RandTree, RandTreeBugs};
use crystalball_suite::runtime::{Scenario, SimConfig, Simulation, SnapshotRuntime};

fn main() {
    let nodes: Vec<NodeId> = (0..10).map(NodeId).collect();
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::as_shipped());

    let controller = Controller::new(
        proto.clone(),
        randtree::properties::all(),
        ControllerConfig {
            mode: Mode::DeepOnlineDebugging,
            checker: CheckerMode::Sharded { shards: 1 },
            engine: Engine::Parallel(ParallelConfig::default()),
            search: SearchConfig {
                max_states: Some(15_000),
                max_depth: Some(7),
                ..SearchConfig::default()
            },
            ..ControllerConfig::default()
        },
    );

    // The live system on the main thread; the checker service works in the
    // background as snapshots complete.
    let mut sim = Simulation::new(
        proto,
        &nodes,
        randtree::properties::all(),
        controller,
        SimConfig {
            seed: 99,
            snapshots: Some(SnapshotRuntime {
                checkpoint_interval: SimDuration::from_secs(5),
                gather_interval: SimDuration::from_secs(5),
                ..SnapshotRuntime::default()
            }),
            ..SimConfig::default()
        },
    );
    sim.load_scenario(Scenario::churn(
        &nodes,
        |_| Action::Join { target: NodeId(0) },
        SimDuration::from_secs(30),
        SimDuration::from_secs(180),
        99,
    ));

    println!("live thread: running 10-node RandTree under churn for 200 simulated seconds");
    sim.run_for(SimDuration::from_secs(200));

    // Flush rounds still in flight when the simulation ended.
    let snapshots = sim.stats.snapshots_completed;
    let ctl = &mut sim.hook;
    ctl.drain_predictions(
        SimTime::ZERO + SimDuration::from_secs(200),
        std::time::Duration::from_secs(60),
    );

    println!(
        "checker service: {} consequence-prediction runs over {} snapshots",
        ctl.stats.mc_runs, snapshots
    );
    println!(
        "checker service: {} future inconsistencies predicted",
        ctl.stats.predictions
    );
    if let Some(avg) = ctl.stats.avg_mc_latency() {
        println!(
            "checker service: measured mc latency avg {avg:.2?} over {} rounds\n",
            ctl.stats.mc_runs
        );
    }

    for report in ctl.reports.iter().take(2) {
        println!(
            "prediction from {}'s snapshot at {}:",
            report.node, report.at
        );
        println!("{}", report.scenario);
    }
    if ctl.reports.len() > 2 {
        println!("(+{} further predictions)", ctl.reports.len() - 2);
    }
    if ctl.reports.is_empty() {
        println!("no prediction this run — try another seed");
    }
}
