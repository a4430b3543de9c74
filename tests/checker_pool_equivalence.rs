//! Equivalence of the checker modes: the sharded background
//! `CheckerPool` (shared-state submissions, per-node shard affinity,
//! shared worker pool) must produce exactly the same predicted violations
//! and installed filters as the same pool run inline (synchronous mode) —
//! on RandTree and on Paxos, at 2 and 4 shards.
//!
//! This is the bar the sharded pool has to clear: where a round runs is a
//! scheduling choice, not a semantic one.
//!
//! The CI determinism matrix drives this through an env loop:
//! `CB_EQ_WORKERS` (comma list, default `1,4`) selects the worker counts
//! the parallel-engine leg runs at, and `CB_EQ_SEED` (default `1213`)
//! varies the second-submission state drift each scenario exercises.

use std::collections::BTreeSet;
use std::time::Duration;

use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::{Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{
    apply_event, Event, ExploreOptions, GlobalState, NodeId, Protocol, SimDuration, SimTime,
};
use crystalball_suite::protocols::paxos::{self, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

use cb_bench::scenarios::{paxos_near_violation, randtree_fig2};

/// Everything the two backends must agree on after a submission sequence:
/// the predicted violations and the final installed filter set.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    violations: BTreeSet<(u32, String, String, usize)>,
    filters: BTreeSet<(u32, String)>,
    predictions: u64,
    filters_installed: u64,
}

fn outcome_of<P: Protocol>(ctl: &Controller<P>) -> Outcome {
    Outcome {
        violations: ctl
            .reports
            .iter()
            .map(|r| {
                (
                    r.node.0,
                    r.violation.property.to_string(),
                    r.scenario.clone(),
                    r.depth,
                )
            })
            .collect(),
        filters: ctl
            .active_filters()
            .into_iter()
            .map(|(owner, f)| (owner.0, f.to_string()))
            .collect(),
        predictions: ctl.stats.predictions,
        filters_installed: ctl.stats.filters_installed,
    }
}

/// Runs the same per-node round submissions against one backend and
/// returns the comparable outcome. Rounds are submitted for every node of
/// the snapshot (so ≥2 shards actually split the work), then a mutated
/// state is submitted again per node.
fn drive<P, F>(
    proto: &P,
    props: crystalball_suite::model::PropertySet<P>,
    search: &SearchConfig,
    start: &GlobalState<P>,
    mutate: &F,
    checker: CheckerMode,
    engine: Engine,
) -> Outcome
where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let mut ctl = Controller::new(
        proto.clone(),
        props,
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker,
            engine,
            mc_latency: SimDuration::from_millis(500),
            search: search.clone(),
            ..ControllerConfig::default()
        },
    );
    let nodes: Vec<NodeId> = start.nodes.keys().copied().collect();
    for (i, &node) in nodes.iter().enumerate() {
        ctl.run_round(SimTime(i as u64), node, start);
    }
    let mut changed = start.clone();
    mutate(&mut changed);
    for (i, &node) in nodes.iter().enumerate() {
        ctl.run_round(SimTime(100 + i as u64), node, &changed);
    }
    // Background/sharded backends finish asynchronously; synchronous is a
    // no-op here.
    ctl.drain_predictions(SimTime(1_000), Duration::from_secs(300));
    assert_eq!(ctl.pending_predictions(), 0, "all rounds drained");
    outcome_of(&ctl)
}

fn assert_backends_agree<P, F>(
    proto: P,
    props: fn() -> crystalball_suite::model::PropertySet<P>,
    search: SearchConfig,
    start: GlobalState<P>,
    mutate: F,
) -> Outcome
where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let sync = drive(
        &proto,
        props(),
        &search,
        &start,
        &mutate,
        CheckerMode::Synchronous,
        Engine::Sequential,
    );
    assert!(
        sync.predictions > 0,
        "scenario must actually predict something: {sync:?}"
    );
    for shards in [2usize, 4] {
        let sharded = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            CheckerMode::Sharded { shards },
            Engine::Sequential,
        );
        assert_eq!(
            sync, sharded,
            "sharded pool ({shards} shards) diverged from the synchronous backend"
        );
    }
    // The heaviest concurrency shape — multiple shard threads each
    // opening replay scopes plus the streamed engine's per-job tasks and
    // merge coordinators, all multiplexed on one shared WorkerPool —
    // must still reproduce the sequential-synchronous outcome bit for
    // bit, at every worker count of the matrix.
    for workers in cb_bench::matrix::workers() {
        let sharded_parallel = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            CheckerMode::Sharded { shards: 2 },
            Engine::Parallel(ParallelConfig {
                workers,
                ..ParallelConfig::default()
            }),
        );
        assert_eq!(
            sync, sharded_parallel,
            "sharded pool + parallel engine ({workers} workers) diverged \
             from the synchronous backend"
        );
    }
    sync
}

#[test]
fn sharded_pool_matches_synchronous_on_randtree() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    // The seed picks which member's recovery timer became schedulable —
    // a small, realistic state drift that differs per matrix leg.
    let drifted = [NodeId(9), NodeId(13), NodeId(21)][cb_bench::matrix::seed() as usize % 3];
    let sync = assert_backends_agree(proto, randtree::properties::all, search, gs, move |gs| {
        let s = &mut gs.slot_mut(drifted).unwrap().state;
        s.recovery_scheduled = false;
    });
    assert!(
        !sync.filters.is_empty(),
        "steering installs filters in the Fig. 2 scenario"
    );
}

#[test]
fn sharded_pool_matches_synchronous_on_paxos() {
    let (proto, gs) = paxos_near_violation(PaxosBugs::only("P1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::minimal(),
        ..SearchConfig::default()
    };
    let mutator_proto = proto.clone();
    // The seed decides how many more round-2 messages the later snapshot
    // has seen delivered, so each matrix leg drifts differently.
    let extra_deliveries = 1 + cb_bench::matrix::seed() as usize % 2;
    let sync = assert_backends_agree(proto, paxos::properties::all, search, gs, move |gs| {
        for _ in 0..extra_deliveries {
            if !gs.inflight.is_empty() {
                apply_event(&mutator_proto, gs, &Event::Deliver { index: 0 });
            }
        }
    });
    assert!(
        sync.violations
            .iter()
            .any(|(_, prop, _, _)| prop == "AtMostOneChosen"),
        "the Fig. 14 double choice was predicted: {sync:?}"
    );
}

/// A round takes its state as a shared clone: a submitter that writes to
/// the very `GlobalState` it just submitted — slot writes and a delivery —
/// before the rounds are drained changes nothing the rounds see, and
/// still sees its own writes.
#[test]
fn a_submitter_cannot_reach_a_submitted_round() {
    let (proto, gs) = paxos_near_violation(PaxosBugs::only("P1"));
    assert!(
        !gs.inflight.is_empty(),
        "the scenario has a delivery to make"
    );
    let controller = |checker| {
        Controller::new(
            proto.clone(),
            paxos::properties::all(),
            ControllerConfig {
                mode: Mode::ExecutionSteering,
                checker,
                mc_latency: SimDuration::from_millis(500),
                search: SearchConfig {
                    max_states: Some(30_000),
                    max_depth: Some(7),
                    explore: ExploreOptions::minimal(),
                    ..SearchConfig::default()
                },
                ..ControllerConfig::default()
            },
        )
    };
    let nodes: Vec<NodeId> = gs.nodes.keys().copied().collect();
    let untouched = gs.clone();
    let mut sync = controller(CheckerMode::Synchronous);
    for (i, &node) in nodes.iter().enumerate() {
        sync.run_round(SimTime(i as u64), node, &untouched);
    }

    let mut submitted = gs;
    let mut sharded = controller(CheckerMode::Sharded { shards: 2 });
    for (i, &node) in nodes.iter().enumerate() {
        sharded.run_round(SimTime(i as u64), node, &submitted);
    }
    for &node in &nodes {
        submitted.slot_mut(node).expect("member").state.attempt += 7;
    }
    apply_event(&proto, &mut submitted, &Event::Deliver { index: 0 });
    sharded.drain_predictions(SimTime(1_000), Duration::from_secs(300));
    assert_eq!(sharded.pending_predictions(), 0, "all rounds drained");

    let sync = outcome_of(&sync);
    assert!(sync.predictions > 0, "the scenario predicts: {sync:?}");
    assert_eq!(
        sync,
        outcome_of(&sharded),
        "a write to the submitted state reached a round"
    );
    for &node in &nodes {
        assert_eq!(
            submitted.slot(node).expect("member").state.attempt,
            untouched.slot(node).expect("member").state.attempt + 7,
            "the submitter sees its own slot writes"
        );
    }
    assert_ne!(
        submitted.inflight, untouched.inflight,
        "the submitter sees its own delivery"
    );
}
