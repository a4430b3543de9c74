//! Memoization must be invisible: a controller with the prediction cache
//! enabled has to produce exactly the same predicted violations,
//! installed filters, and counters as one running every round cold — on
//! RandTree and Paxos, across the synchronous, background, and sharded
//! backends, at every worker count of the CI matrix — while actually
//! hitting the cache (repeated submissions of a settled state must
//! memoize).
//!
//! Optimistic execution rides the same contract: a speculative round that
//! reconciles against the matching full snapshot commits as a cache hit;
//! one that guessed wrong is cancelled, never surfaces in filters or
//! reports, and the real round reruns cold.

use std::collections::BTreeSet;
use std::time::Duration;

use crystalball_suite::core::{CacheStats, CheckerMode, Controller, ControllerConfig, Mode};
use crystalball_suite::mc::{Engine, ParallelConfig, SearchConfig};
use crystalball_suite::model::{
    apply_event, Event, ExploreOptions, GlobalState, NodeId, Protocol, SimDuration, SimTime,
};
use crystalball_suite::protocols::paxos::{self, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

use cb_bench::scenarios::{paxos_near_violation, randtree_fig2};

/// Everything a memoized run must reproduce bit for bit.
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

fn controller<P: Protocol>(
    proto: &P,
    props: crystalball_suite::model::PropertySet<P>,
    search: &SearchConfig,
    checker: CheckerMode,
    engine: Engine,
    cache: bool,
) -> Controller<P> {
    Controller::new(
        proto.clone(),
        props,
        ControllerConfig {
            mode: Mode::ExecutionSteering,
            checker,
            engine,
            mc_latency: SimDuration::from_millis(500),
            search: search.clone(),
            prediction_cache: cache,
            ..ControllerConfig::default()
        },
    )
}

/// Submits the start state three times per node (the third lands after
/// `known_paths` settled, so a warm cache must hit), then a drifted state
/// twice per node, and returns the comparable outcome plus the cache
/// counters.
#[allow(clippy::too_many_arguments)]
fn drive<P, F>(
    proto: &P,
    props: crystalball_suite::model::PropertySet<P>,
    search: &SearchConfig,
    start: &GlobalState<P>,
    mutate: &F,
    checker: CheckerMode,
    engine: Engine,
    cache: bool,
) -> (Outcome, CacheStats)
where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let mut ctl = controller(proto, props, search, checker, engine, cache);
    let nodes: Vec<NodeId> = start.nodes.keys().copied().collect();
    let mut t = 0u64;
    for _ in 0..3 {
        for &node in &nodes {
            ctl.run_round(SimTime(t), node, start);
            t += 1;
        }
    }
    let mut changed = start.clone();
    mutate(&mut changed);
    for _ in 0..2 {
        for &node in &nodes {
            ctl.run_round(SimTime(100 + t), node, &changed);
            t += 1;
        }
    }
    ctl.drain_predictions(SimTime(1_000), Duration::from_secs(300));
    assert_eq!(ctl.pending_predictions(), 0, "all rounds drained");
    (outcome_of(&ctl), ctl.checker_cache_stats())
}

fn assert_cache_invisible<P, F>(
    proto: P,
    props: fn() -> crystalball_suite::model::PropertySet<P>,
    search: SearchConfig,
    start: GlobalState<P>,
    mutate: F,
) where
    P: Protocol,
    F: Fn(&mut GlobalState<P>),
{
    let mut backends = vec![
        (CheckerMode::Synchronous, Engine::Sequential),
        (CheckerMode::Sharded { shards: 1 }, Engine::Sequential),
        (CheckerMode::Sharded { shards: 2 }, Engine::Sequential),
        (CheckerMode::Sharded { shards: 4 }, Engine::Sequential),
    ];
    for workers in cb_bench::matrix::workers() {
        backends.push((
            CheckerMode::Sharded { shards: 2 },
            Engine::Parallel(ParallelConfig {
                workers,
                // The CI leg with the 8-byte packed explored set.
                compact_explored: cb_bench::matrix::compact_explored(),
                ..ParallelConfig::default()
            }),
        ));
    }
    let mut reference: Option<Outcome> = None;
    for (checker, engine) in backends {
        let (cold, cold_cs) = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            checker,
            engine.clone(),
            false,
        );
        let (warm, warm_cs) = drive(
            &proto,
            props(),
            &search,
            &start,
            &mutate,
            checker,
            engine.clone(),
            true,
        );
        assert!(
            cold.predictions > 0,
            "scenario must actually predict something: {cold:?}"
        );
        assert_eq!(
            cold, warm,
            "memoized run diverged from cold on {checker:?}/{engine:?}"
        );
        assert_eq!(
            cold_cs,
            CacheStats::default(),
            "cache-off run must never touch the cache"
        );
        assert!(
            warm_cs.hits > 0,
            "repeated submissions must memoize on {checker:?}/{engine:?}: {warm_cs:?}"
        );
        match &reference {
            Some(r) => assert_eq!(
                r, &cold,
                "backend {checker:?}/{engine:?} diverged from the synchronous outcome"
            ),
            None => reference = Some(cold),
        }
    }
}

#[test]
fn memoized_runs_match_cold_on_randtree() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    let drifted = [NodeId(9), NodeId(13), NodeId(21)][cb_bench::matrix::seed() as usize % 3];
    assert_cache_invisible(proto, randtree::properties::all, search, gs, move |gs| {
        let s = &mut gs.slot_mut(drifted).unwrap().state;
        s.recovery_scheduled = false;
    });
}

#[test]
fn memoized_runs_match_cold_on_paxos() {
    let (proto, gs) = paxos_near_violation(PaxosBugs::only("P1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::minimal(),
        ..SearchConfig::default()
    };
    let mutator_proto = proto.clone();
    let extra_deliveries = 1 + cb_bench::matrix::seed() as usize % 2;
    assert_cache_invisible(proto, paxos::properties::all, search, gs, move |gs| {
        for _ in 0..extra_deliveries {
            if !gs.inflight.is_empty() {
                apply_event(&mutator_proto, gs, &Event::Deliver { index: 0 });
            }
        }
    });
}

/// A speculation whose base matches the full snapshot commits: the real
/// round reconciles it, takes the cache hit, and produces exactly the
/// outcome an unspeculated controller produces.
#[test]
fn speculation_commits_when_snapshot_matches() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    let node = *gs.nodes.keys().next().unwrap();

    let mut plain = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Synchronous,
        Engine::Sequential,
        true,
    );
    plain.run_round(SimTime(1), node, &gs);

    let mut spec = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Synchronous,
        Engine::Sequential,
        true,
    );
    spec.speculate_round(SimTime(0), node, &gs);
    spec.run_round(SimTime(1), node, &gs);

    assert_eq!(outcome_of(&plain), outcome_of(&spec));
    let cs = spec.checker_cache_stats();
    assert_eq!(cs.spec_started, 1, "{cs:?}");
    assert_eq!(cs.spec_committed, 1, "{cs:?}");
    assert_eq!(cs.spec_cancelled, 0, "{cs:?}");
    assert_eq!(cs.hits, 1, "the real round must reuse the speculated work");
    assert_eq!(cs.misses, 0, "{cs:?}");
}

/// A speculation computed on a partial snapshot that the completed gather
/// contradicts is cancelled: its work never reaches filters or reports,
/// the counters record the cancellation, and the real round reruns cold —
/// the outcome stays identical to a never-speculated run.
#[test]
fn speculation_cancels_when_snapshot_differs() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    let node = *gs.nodes.keys().next().unwrap();
    // The partial gather guessed a different neighborhood: one member's
    // recovery timer had not fired yet when the speculation launched.
    let drifted = *gs.nodes.keys().last().unwrap();
    let mut partial = gs.clone();
    partial.slot_mut(drifted).unwrap().state.recovery_scheduled =
        !partial.slot_mut(drifted).unwrap().state.recovery_scheduled;

    let mut plain = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Synchronous,
        Engine::Sequential,
        true,
    );
    plain.run_round(SimTime(1), node, &gs);

    let mut spec = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Synchronous,
        Engine::Sequential,
        true,
    );
    spec.speculate_round(SimTime(0), node, &partial);
    spec.run_round(SimTime(1), node, &gs);

    assert_eq!(
        outcome_of(&plain),
        outcome_of(&spec),
        "a cancelled speculation must leave no trace in the outcome"
    );
    let cs = spec.checker_cache_stats();
    assert_eq!(cs.spec_started, 1, "{cs:?}");
    assert_eq!(cs.spec_committed, 0, "{cs:?}");
    assert_eq!(cs.spec_cancelled, 1, "{cs:?}");
    assert_eq!(cs.hits, 0, "the real round must not reuse cancelled work");
    assert_eq!(cs.misses, 1, "{cs:?}");
}

/// Speculation over the sharded backend: commit and cancel both stay
/// outcome-invisible when the rounds cross the pool's wire encoders.
#[test]
fn speculation_is_outcome_invisible_on_sharded_pool() {
    let (proto, gs) = randtree_fig2(RandTreeBugs::only("R1"));
    let search = SearchConfig {
        max_states: Some(30_000),
        max_depth: Some(7),
        explore: ExploreOptions::default(),
        ..SearchConfig::default()
    };
    let nodes: Vec<NodeId> = gs.nodes.keys().copied().collect();
    let drifted = *nodes.last().unwrap();
    let mut partial = gs.clone();
    partial.slot_mut(drifted).unwrap().state.recovery_scheduled =
        !partial.slot_mut(drifted).unwrap().state.recovery_scheduled;

    let mut plain = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Sharded { shards: 2 },
        Engine::Sequential,
        true,
    );
    for (i, &n) in nodes.iter().enumerate() {
        plain.run_round(SimTime(i as u64), n, &gs);
    }
    plain.drain_predictions(SimTime(1_000), Duration::from_secs(300));

    let mut spec = controller(
        &proto,
        randtree::properties::all(),
        &search,
        CheckerMode::Sharded { shards: 2 },
        Engine::Sequential,
        true,
    );
    for (i, &n) in nodes.iter().enumerate() {
        // Even nodes speculated on the matching state (commit), odd nodes
        // on the contradicted partial (cancel).
        if i % 2 == 0 {
            spec.speculate_round(SimTime(i as u64), n, &gs);
        } else {
            spec.speculate_round(SimTime(i as u64), n, &partial);
        }
        spec.run_round(SimTime(i as u64), n, &gs);
    }
    spec.drain_predictions(SimTime(1_000), Duration::from_secs(300));

    assert_eq!(outcome_of(&plain), outcome_of(&spec));
    let cs = spec.checker_cache_stats();
    assert_eq!(cs.spec_started, nodes.len() as u64, "{cs:?}");
    assert!(cs.spec_committed > 0, "{cs:?}");
    assert!(cs.spec_cancelled > 0, "{cs:?}");
    assert_eq!(
        cs.spec_committed + cs.spec_cancelled,
        nodes.len() as u64,
        "every speculation reconciled: {cs:?}"
    );
}
