//! Fleet throughput: what the mixed-protocol harness costs to drive.
//!
//! One three-protocol fleet (RandTree + Paxos + Bullet', all steering on
//! the sharded background checker over one shared `CheckerHost`) runs to
//! a fixed simulated horizon under a seeded fault plan; we report
//!
//! * **fleet steps/sec** — scheduler dispatch throughput (wall clock),
//! * **predictions/sec** — checking rounds and predictions per wall
//!   second across all members,
//! * **fleet steps** — deterministic for the fixed scenario: in fast mode
//!   (`CB_BENCH_FAST=1`) it must equal [`FAST_FLEET_STEPS`] exactly.
//!
//! The fleet runs twice, prediction cache off then on, and the two traces
//! and deterministic stats must match byte for byte.
//!
//! A second section drives the **repeated-workload mode**: the same few
//! neighborhood states re-submitted for many rounds against one sharded
//! controller, once with the prediction cache off and once on. Cold
//! rounds/sec stay flat; memoized rounds/sec scale with the hit rate.
//! Each leg must predict, hit the cache, give outcomes identical to the
//! cold leg and run more rounds/sec warm than cold.
//!
//! Every gate is an assertion on the values measured here, so the
//! process exits non-zero when one breaks.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use cb_bench::harness::{fast_mode, fmt_duration, preamble, section};
use cb_bench::scenarios::{paxos_near_violation, randtree_fig2};
use cb_fleet::{
    bullet_member, paxos_member, randtree_member, FaultConfig, FaultPlan, Fleet, FleetConfig,
    FleetStats, MemberCommon,
};
use cb_mc::SearchConfig;
use cb_model::stable_hash;
use cb_model::{
    apply_event, Event, ExploreOptions, GlobalState, NodeId, PropertySet, Protocol, SimDuration,
    SimTime,
};
use cb_protocols::bullet::BulletBugs;
use cb_protocols::paxos::{self, PaxosBugs};
use cb_protocols::randtree::{self, RandTreeBugs};
use crystalball::{CacheStats, CheckerMode, Controller, ControllerConfig, Mode};

/// Fleet steps of the fast-mode run. A drifted count means the
/// scheduler's deterministic schedule changed, not that the host got
/// slower: change it only together with a change that means to move it.
const FAST_FLEET_STEPS: u64 = 2705;

fn controller(max_states: usize, depth: usize, minimal: bool, cache: bool) -> ControllerConfig {
    ControllerConfig {
        mode: Mode::ExecutionSteering,
        checker: CheckerMode::Sharded { shards: 2 },
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
        prediction_cache: cache,
        ..ControllerConfig::default()
    }
}

fn run(horizon: SimDuration, budget: usize, seed: u64, cache: bool) -> (FleetStats, String, f64) {
    let mut fleet = Fleet::new(FleetConfig {
        seed,
        duration: horizon,
        drain_interval: SimDuration::from_secs(5),
        checker_lanes: 2,
        pool_threads: 1,
    });
    let rt = fleet.runtime().clone();
    fleet.add_member(randtree_member(
        &rt,
        MemberCommon::steering("randtree", seed ^ 0xa1, controller(budget, 6, false, cache)),
        6,
        RandTreeBugs::only("R1"),
        SimDuration::from_secs(25),
        horizon,
    ));
    fleet.add_member(paxos_member(
        &rt,
        MemberCommon::steering("paxos", seed ^ 0xb2, controller(budget, 12, true, cache)),
        PaxosBugs::only("P2"),
        2,
        SimDuration::from_secs(25),
    ));
    fleet.add_member(bullet_member(
        &rt,
        MemberCommon::steering("bullet", seed ^ 0xc3, controller(budget, 6, true, cache)),
        5,
        30,
        BulletBugs::only("B1"),
    ));
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
    let t0 = Instant::now();
    let stats = fleet.run();
    let wall = t0.elapsed().as_secs_f64();
    (stats, fleet.trace().to_string(), wall)
}

/// One leg of the repeated-workload mode: `reps` cycles of the same
/// `states`, one round per (state, node), against a sharded controller.
struct RepeatedLeg {
    wall: f64,
    rounds: u64,
    predictions: u64,
    cache: CacheStats,
    /// Order-independent digest of the reports and final filters — what
    /// both legs must agree on byte for byte.
    outcome: u64,
}

impl RepeatedLeg {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.wall.max(1e-9)
    }

    fn predictions_per_sec(&self) -> f64 {
        self.predictions as f64 / self.wall.max(1e-9)
    }
}

#[allow(clippy::too_many_arguments)]
fn repeated_leg<P: Protocol>(
    proto: &P,
    props: PropertySet<P>,
    states: &[GlobalState<P>],
    budget: usize,
    depth: usize,
    minimal: bool,
    reps: usize,
    cache: bool,
) -> RepeatedLeg {
    let mut ctl = Controller::new(
        proto.clone(),
        props,
        controller(budget, depth, minimal, cache),
    );
    let nodes: Vec<NodeId> = states[0].nodes.keys().copied().collect();
    let t0 = Instant::now();
    let mut t = 0u64;
    for _ in 0..reps {
        for gs in states {
            for &node in &nodes {
                ctl.run_round(SimTime(t), node, gs);
                t += 1;
            }
        }
    }
    ctl.drain_predictions(SimTime(t + 1_000), Duration::from_secs(300));
    let wall = t0.elapsed().as_secs_f64();
    assert_eq!(ctl.pending_predictions(), 0, "all rounds drained");
    let mut lines: Vec<String> = ctl
        .reports
        .iter()
        .map(|r| {
            format!(
                "{}|{}|{}|{}",
                r.node.0, r.violation.property, r.scenario, r.depth
            )
        })
        .collect();
    lines.extend(
        ctl.active_filters()
            .into_iter()
            .map(|(owner, f)| format!("F{}|{}", owner.0, f)),
    );
    lines.sort();
    RepeatedLeg {
        wall,
        rounds: ctl.stats.mc_runs,
        predictions: ctl.stats.predictions,
        cache: ctl.checker_cache_stats(),
        outcome: stable_hash(&lines.join("\n")),
    }
}

/// Runs both legs of one repeated-workload scenario, prints the
/// comparison and asserts the memoization gates.
#[allow(clippy::too_many_arguments)]
fn repeated_workload<P: Protocol>(
    label: &str,
    proto: &P,
    props: fn() -> PropertySet<P>,
    states: &[GlobalState<P>],
    budget: usize,
    depth: usize,
    minimal: bool,
    reps: usize,
) {
    let cold = repeated_leg(proto, props(), states, budget, depth, minimal, reps, false);
    let warm = repeated_leg(proto, props(), states, budget, depth, minimal, reps, true);
    assert_eq!(cold.rounds, warm.rounds, "{label}: same submission count");
    assert_eq!(
        cold.outcome, warm.outcome,
        "{label}: memoized outcome diverged from cold"
    );
    assert_eq!(cold.cache, CacheStats::default(), "{label}: cold leg clean");
    assert!(
        cold.predictions > 0,
        "{label}: the workload predicted nothing"
    );
    assert!(
        warm.cache.hits > 0,
        "{label}: repeated workload must hit the cache: {:?}",
        warm.cache
    );
    let speedup = warm.rounds_per_sec() / cold.rounds_per_sec().max(1e-9);
    println!(
        "{label:>9}: {} rounds ×2 legs — cold {:>8.1} rounds/sec ({:.3} predictions/sec), \
         warm {:>8.1} ({:.3}) — {:.2}× at {:.0}% hit rate, outcomes identical",
        cold.rounds,
        cold.rounds_per_sec(),
        cold.predictions_per_sec(),
        warm.rounds_per_sec(),
        warm.predictions_per_sec(),
        speedup,
        100.0 * warm.cache.hit_rate(),
    );
    assert!(
        warm.rounds_per_sec() > cold.rounds_per_sec(),
        "{label}: memoized rounds/sec not above cold ({:.1} <= {:.1})",
        warm.rounds_per_sec(),
        cold.rounds_per_sec()
    );
}

fn main() {
    preamble(
        "Fleet throughput — the mixed-protocol harness under load",
        "three steering deployments multiplexed over one WorkerPool and one \
         CheckerHost, with a uniform fault schedule",
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");

    let (horizon_s, budget) = if fast_mode() {
        (60, 3_000)
    } else {
        (100, 8_000)
    };
    let horizon = SimDuration::from_secs(horizon_s);
    section(&format!(
        "3-member fleet, {horizon_s}s horizon, {budget}-state search budget"
    ));
    // Two legs of the same fleet, memoization off then on: the determinism
    // contract says the cache must be outcome-invisible, so the traces and
    // the deterministic serializations have to match byte for byte.
    let (cold_stats, cold_trace, _cold_wall) = run(horizon, budget, 42, false);
    let (stats, trace, wall) = run(horizon, budget, 42, true);
    assert_eq!(
        cold_trace, trace,
        "prediction cache changed the fleet trace"
    );
    assert_eq!(
        cold_stats.deterministic_json(),
        stats.deterministic_json(),
        "prediction cache changed the deterministic stats"
    );
    let fleet_cache = stats.cache();
    println!(
        "cache determinism: traces byte-identical cache-off vs cache-on \
         ({} hits, {} misses fleet-wide on the warm leg)",
        fleet_cache.hits, fleet_cache.misses
    );

    let steps_per_sec = stats.fleet_steps as f64 / wall;
    let mc_runs: u64 = stats.members.iter().map(|m| m.mc_runs).sum();
    let rounds_per_sec = mc_runs as f64 / wall;
    let preds_per_sec = stats.predictions() as f64 / wall;
    println!(
        "fleet steps: {:>8}   wall: {:>9}   => {:>10.0} steps/sec",
        stats.fleet_steps,
        fmt_duration(std::time::Duration::from_secs_f64(wall)),
        steps_per_sec
    );
    println!(
        "mc rounds:   {:>8}   predictions: {:>4}   => {:>7.2} rounds/sec, {:.3} predictions/sec",
        mc_runs,
        stats.predictions(),
        rounds_per_sec,
        preds_per_sec
    );
    println!(
        "steering: {} filters installed, {} interventions, {} violating states, {} faults",
        stats.filters_installed(),
        stats.interventions(),
        stats.violating_states(),
        stats.faults_applied
    );
    assert!(stats.predictions() > 0, "the fleet predicted something");
    let protocols: BTreeSet<&str> = stats.members.iter().map(|m| m.protocol.as_str()).collect();
    assert!(
        protocols.len() >= 3,
        "a fleet of three protocols: {protocols:?}"
    );
    if fast_mode() {
        assert_eq!(
            stats.fleet_steps, FAST_FLEET_STEPS,
            "fleet step count drifted: the deterministic schedule changed"
        );
        println!("fleet steps: {FAST_FLEET_STEPS} (deterministic) -> ok");
    }
    assert!(
        trace.ends_with(&format!("end t={}\n", horizon_s * 1_000_000)),
        "trace ran to the horizon"
    );

    section("repeated-workload mode — memoization under snapshot re-submission");
    let reps = if fast_mode() { 4 } else { 6 };
    let rw_budget = if fast_mode() { 2_000 } else { 4_000 };
    let (rt_proto, rt_gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let mut rt_drift = rt_gs.clone();
    rt_drift
        .slot_mut(NodeId(9))
        .expect("fig2 node")
        .state
        .recovery_scheduled = false;
    let rt_states = [rt_gs, rt_drift];
    repeated_workload(
        "randtree",
        &rt_proto,
        randtree::properties::all,
        &rt_states,
        rw_budget,
        7,
        false,
        reps,
    );
    let (px_proto, px_gs) = paxos_near_violation(PaxosBugs::only("P1"));
    let mut px_drift = px_gs.clone();
    if !px_drift.inflight.is_empty() {
        apply_event(&px_proto, &mut px_drift, &Event::Deliver { index: 0 });
    }
    let px_states = [px_gs, px_drift];
    // The Fig. 14 double choice needs a deeper budget than the RandTree
    // scenario before `AtMostOneChosen` breaks — without it the leg would
    // measure only non-predicting rounds.
    repeated_workload(
        "paxos",
        &px_proto,
        paxos::properties::all,
        &px_states,
        rw_budget * 6,
        7,
        true,
        reps,
    );
}
