//! The observability layer must be outcome-invisible: enabling the
//! `cb-obs` recorder may not change a single deterministic byte of any
//! checking surface. Each leg here reruns an existing equivalence
//! scenario — the parallel model-checker fingerprint
//! (`parallel_equivalence`), a memoized controller's outcome
//! (`prediction_cache_equivalence`), and the mixed fleet's deterministic
//! JSON (`fleet_mixed`) — once with tracing off and once with the
//! recorder enabled, and compares the results exactly.
//!
//! The recorder enable is process-global, so all three scenarios run
//! inside one test body (off legs first, then on legs); a separate test
//! binary keeps the toggle from racing the other suites.
//!
//! The metrics plane (`obs::metrics`) carries the same contract — its
//! registry is only ever read through `scrape()` — so a final set of
//! legs reruns the scenarios with metric recording enabled on top of
//! tracing and demands the same bytes again.

use std::collections::BTreeSet;
use std::time::Duration;

use cb_bench::scenarios::randtree_fig2;
use crystalball_suite::core::{CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::fleet::{
    bullet_member, paxos_member, randtree_member, FaultConfig, FaultPlan, Fleet, FleetConfig,
    MemberCommon,
};
use crystalball_suite::mc::{find_consequences_parallel, Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{ExploreOptions, SimDuration, SimTime};
use crystalball_suite::obs;
use crystalball_suite::protocols::bullet::BulletBugs;
use crystalball_suite::protocols::paxos::PaxosBugs;
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

/// Parallel consequence prediction over the Fig. 2 state: the
/// `parallel_equivalence` fingerprint (violations + visit counts).
fn mc_leg() -> (Vec<String>, Vec<usize>, usize, usize) {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(20_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    let par = ParallelConfig {
        workers: 2,
        ..ParallelConfig::default()
    };
    let out = find_consequences_parallel(&proto, &props, &gs, config, &par);
    (
        out.violations.iter().map(|v| v.scenario()).collect(),
        out.violations.iter().map(|v| v.depth).collect(),
        out.stats.states_visited,
        out.stats.states_enqueued,
    )
}

/// (node, property, scenario, depth) report keys from a controller run.
type ReportSet = BTreeSet<(u32, String, String, usize)>;

/// A memoized sharded controller driven with repeated submissions: the
/// `prediction_cache_equivalence` outcome (reports, filters, counters).
fn cache_leg() -> (ReportSet, BTreeSet<(u32, String)>, u64, u64) {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let mut ctl = Controller::new(
        proto.clone(),
        randtree::properties::all(),
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker: CheckerMode::Sharded { shards: 2 },
            engine: Engine::Parallel(ParallelConfig {
                workers: 2,
                ..ParallelConfig::default()
            }),
            mc_latency: SimDuration::from_millis(500),
            search: SearchConfig {
                max_states: Some(6_000),
                max_depth: Some(5),
                explore: ExploreOptions::minimal(),
                ..SearchConfig::default()
            },
            prediction_cache: true,
            ..ControllerConfig::default()
        },
    );
    let nodes: Vec<_> = gs.nodes.keys().copied().collect();
    let mut t = 0u64;
    // Three passes over the same state: the later passes must memoize.
    for _ in 0..3 {
        for &node in &nodes {
            ctl.run_round(SimTime(t), node, &gs);
            t += 1_000;
        }
    }
    ctl.drain_predictions(SimTime(t + 1_000_000), Duration::from_secs(120));
    assert_eq!(ctl.pending_predictions(), 0, "all rounds drained");
    (
        ctl.reports
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
        ctl.active_filters()
            .into_iter()
            .map(|(owner, f)| (owner.0, f.to_string()))
            .collect(),
        ctl.stats.predictions,
        ctl.stats.filters_installed,
    )
}

/// A small mixed-protocol fleet: the `fleet_mixed` deterministic JSON.
fn fleet_leg() -> String {
    let horizon = SimDuration::from_secs(50);
    let controller = |max_states: usize, depth: usize, minimal: bool| ControllerConfig {
        mode: Mode::ExecutionSteering,
        checker: CheckerMode::Sharded { shards: 2 },
        engine: Engine::Parallel(ParallelConfig {
            workers: 2,
            ..ParallelConfig::default()
        }),
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
        ..ControllerConfig::default()
    };
    let mut fleet = Fleet::new(FleetConfig {
        seed: 2024,
        duration: horizon,
        drain_interval: SimDuration::from_secs(5),
        checker_lanes: 2,
        pool_threads: 1,
    });
    let rt = fleet.runtime().clone();
    fleet.add_member(randtree_member(
        &rt,
        MemberCommon::steering("randtree-overlay", 2024 ^ 0xa1, controller(3_000, 6, false)),
        6,
        RandTreeBugs::only("R1"),
        SimDuration::from_secs(25),
        horizon,
    ));
    fleet.add_member(paxos_member(
        &rt,
        MemberCommon::steering("paxos-group", 2024 ^ 0xb2, controller(4_000, 12, true)),
        PaxosBugs::only("P2"),
        2,
        SimDuration::from_secs(25),
    ));
    fleet.add_member(bullet_member(
        &rt,
        MemberCommon::steering("bullet-mesh", 2024 ^ 0xc3, controller(3_000, 6, true)),
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
        2024,
    ));
    let stats = fleet.run();
    stats.deterministic_json()
}

#[test]
fn tracing_is_outcome_invisible() {
    assert!(!obs::enabled(), "recorder must start disabled");
    let mc_off = mc_leg();
    let cache_off = cache_leg();
    let fleet_off = fleet_leg();
    let idle = obs::drain();
    assert!(
        idle.events.is_empty(),
        "disabled run recorded events: {:?}",
        &idle.events[..idle.events.len().min(5)]
    );

    obs::enable_with_capacity(1 << 12);
    let mc_on = mc_leg();
    let cache_on = cache_leg();
    let trace = obs::drain();
    let fleet_on = fleet_leg();
    obs::disable();
    let fleet_trace = obs::drain();

    // The recorder really collected — this was not a no-op comparison.
    let spans = trace
        .events
        .iter()
        .filter(|e| matches!(e.kind, obs::EventKind::Span { .. }))
        .count();
    assert!(spans > 0, "traced legs produced no spans");
    assert!(
        fleet_trace.events.iter().any(|e| e.name == "fleet.drain"),
        "fleet drain boundaries missing from the trace"
    );
    // The fleet leg's trace exports as chrome trace-event JSON with at
    // least one complete span.
    let chrome = obs::json::parse(&obs::chrome::chrome_trace_json(&fleet_trace))
        .expect("the fleet trace exports as valid JSON");
    let complete_spans = chrome
        .get("traceEvents")
        .and_then(obs::json::Value::as_arr)
        .expect("traceEvents array")
        .iter()
        .filter(|e| e.get("ph").and_then(obs::json::Value::as_str) == Some("X"))
        .count();
    assert!(
        complete_spans > 0,
        "the fleet trace exported no complete span"
    );

    assert_eq!(
        mc_off, mc_on,
        "parallel search fingerprint changed under tracing"
    );
    assert_eq!(
        cache_off, cache_on,
        "memoized controller outcome changed under tracing"
    );
    assert_eq!(
        fleet_off, fleet_on,
        "fleet deterministic JSON changed under tracing"
    );

    // Metrics leg: turn the metrics registry on (recording plus a live
    // scrape mid-flight) and demand byte identity again — the scrape
    // path only *reads* the registry, and recording points never feed
    // back into deterministic state.
    obs::metrics::enable();
    let mc_metrics = mc_leg();
    let scrape = obs::metrics::scrape();
    assert!(
        scrape.contains("cb_mc_states_visited_total"),
        "metrics leg really recorded: {scrape}"
    );
    let cache_metrics = cache_leg();
    let fleet_metrics = fleet_leg();
    obs::metrics::disable();

    assert_eq!(
        mc_off, mc_metrics,
        "parallel search fingerprint changed under metrics"
    );
    assert_eq!(
        cache_off, cache_metrics,
        "memoized controller outcome changed under metrics"
    );
    assert_eq!(
        fleet_off, fleet_metrics,
        "fleet deterministic JSON changed under metrics"
    );
}
