//! Parallel/sequential equivalence across protocols: the streamed
//! parallel engine must produce the *identical* violation set and the
//! identical canonical shallowest counterexample path as the sequential
//! engine — for exhaustive search (Fig. 5) and consequence prediction
//! (Fig. 8) alike, at any worker count. Scheduling may only affect
//! wall-clock numbers.
//!
//! The CI determinism matrix drives these tests through an env loop:
//! `CB_EQ_WORKERS` (comma list, default `1,4`) selects the worker counts
//! every scenario is checked at, `CB_MERGE_SHARDS` (comma list, default
//! `1,2`) the merge-shard counts crossed with them, and `CB_EQ_SEED`
//! (default `1213`) picks the churned live state the seeded scenario
//! starts from.

use cb_bench::scenarios;
use crystalball_suite::mc::{
    find_consequences, find_consequences_parallel, find_errors, find_errors_parallel, EventFilter,
    FilterSet, ParallelConfig, SearchConfig, SearchOutcome,
};
use crystalball_suite::model::Protocol;
use crystalball_suite::protocols::bullet;
use crystalball_suite::protocols::chord::{self, ChordBugs};
use crystalball_suite::protocols::paxos::{self, PaxosBugs};
use crystalball_suite::protocols::randtree::{self, RandTreeBugs};

/// Everything content-level a search produces: every violation with its
/// full rendered path, plus the visit accounting — including the three
/// counters the parallel engine tallies somewhere else than the
/// sequential loop does (duplicates in the merge consumers, prunes in the
/// visit, filtered events in the range tasks).
fn fingerprint<P: Protocol>(out: &SearchOutcome<P>) -> (Vec<String>, Vec<usize>, [usize; 5]) {
    (
        out.violations.iter().map(|v| v.scenario()).collect(),
        out.violations.iter().map(|v| v.depth).collect(),
        [
            out.stats.states_visited,
            out.stats.states_enqueued,
            out.stats.duplicates_hit,
            out.stats.local_prunes,
            out.stats.filtered_events,
        ],
    )
}

fn assert_engines_agree<P: Protocol>(
    proto: &P,
    props: &cb_model::PropertySet<P>,
    gs: &cb_model::GlobalState<P>,
    config: SearchConfig,
    what: &str,
) {
    let seq_bfs = find_errors(proto, props, gs, config.clone());
    let seq_cp = find_consequences(proto, props, gs, config.clone());
    for workers in cb_bench::matrix::workers() {
        for merge_shards in cb_bench::matrix::merge_shards() {
            if workers == 1 && merge_shards != 1 {
                // One worker is `Searcher::run` itself, which no shard
                // count reaches: one leg covers the dispatch.
                continue;
            }
            let par = ParallelConfig {
                workers,
                merge_shards,
                ..ParallelConfig::default()
            };
            let par_bfs = find_errors_parallel(proto, props, gs, config.clone(), &par);
            assert_eq!(
                fingerprint(&seq_bfs),
                fingerprint(&par_bfs),
                "{what}: exhaustive search diverged at {workers} workers / {merge_shards} shards"
            );
            assert_eq!(
                seq_bfs.stopped, par_bfs.stopped,
                "{what}: stop reason (bfs, {workers}w/{merge_shards}s)"
            );
            let par_cp = find_consequences_parallel(proto, props, gs, config.clone(), &par);
            assert_eq!(
                fingerprint(&seq_cp),
                fingerprint(&par_cp),
                "{what}: consequence prediction diverged at {workers} workers / {merge_shards} shards"
            );
            assert_eq!(
                seq_cp.stopped, par_cp.stopped,
                "{what}: stop reason (cp, {workers}w/{merge_shards}s)"
            );
        }
    }
}

/// RandTree from the Fig. 2 live state, buggy: a violation exists within
/// the depth budget, so this checks the canonical shallowest path.
#[test]
fn randtree_buggy_violation_paths_match() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::only("R1"));
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(60_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    let seq = find_consequences(&proto, &props, &gs, config.clone());
    assert!(!seq.is_clean(), "the R1 bug is predictable from Fig. 2");
    assert_engines_agree(&proto, &props, &gs, config, "randtree/R1");
}

/// RandTree, fixed protocol: no violations — checks that clean exhaustion
/// (visit counts, enqueue counts, stop reason) also matches.
#[test]
fn randtree_clean_exhaustion_matches() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(4),
        max_states: Some(200_000),
        ..SearchConfig::default()
    };
    assert_engines_agree(&proto, &props, &gs, config, "randtree/fixed");
}

/// The same clean search with every node's recovery timer filtered out,
/// as the controller's filter-safety re-check runs it: the filtered-event
/// count is tallied per range task and must sum to the sequential one.
#[test]
fn randtree_filtered_search_matches() {
    let (proto, gs) = scenarios::randtree_fig2(RandTreeBugs::none());
    let props = randtree::properties::all();
    let mut filters = FilterSet::new();
    for &node in gs.nodes.keys() {
        filters.install(EventFilter::Handler {
            kind: "RecoveryTimer",
            node,
        });
    }
    let config = SearchConfig {
        max_depth: Some(4),
        max_states: Some(60_000),
        filters,
        ..SearchConfig::default()
    };
    let seq = find_errors(&proto, &props, &gs, config.clone());
    assert!(
        seq.stats.filtered_events > 0,
        "the filters blocked something"
    );
    assert_engines_agree(&proto, &props, &gs, config, "randtree/filtered");
}

/// Paxos from the round-1 live state (value chosen on {A,B} while C was
/// partitioned) with the P2 bug armed — the Fig. 14 prediction scenario.
#[test]
fn paxos_buggy_violation_paths_match() {
    let (proto, gs) = scenarios::paxos_round1(PaxosBugs::only("P2"));
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(25_000),
        ..SearchConfig::default()
    };
    assert_engines_agree(&proto, &props, &gs, config, "paxos/P2");
}

/// Regression: a Paxos state whose counterexample crosses *commuting
/// deliveries* — two in-flight messages whose delivery order reaches the
/// same state hash through differently-ordered in-flight bags. The
/// surviving clone after the explored-set race must be the canonical
/// edge's (re-derived if a non-canonical worker won), or the reported
/// path (and all downstream enumeration) silently depends on thread
/// scheduling. Repeated runs make the race likely to land both ways.
#[test]
fn paxos_commuting_deliveries_keep_canonical_paths() {
    let (proto, gs) = scenarios::paxos_near_violation(PaxosBugs::only("P1"));
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(7),
        max_states: Some(30_000),
        explore: cb_model::ExploreOptions::minimal(),
        ..SearchConfig::default()
    };
    let seq = find_consequences(&proto, &props, &gs, config.clone());
    assert!(!seq.is_clean(), "the double choice is in reach");
    for run in 0..8 {
        let par = find_consequences_parallel(
            &proto,
            &props,
            &gs,
            config.clone(),
            &ParallelConfig {
                workers: 4,
                ..ParallelConfig::default()
            },
        );
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "paxos/commuting: parallel diverged from sequential (run {run})"
        );
    }
    // The same state searched exhaustively grows levels of several
    // ranges, so a commuting pair's canonical edge and its insert-race
    // winner come from different range tasks.
    let seq = find_errors(&proto, &props, &gs, config.clone());
    for (workers, merge_shards) in [(2, 1), (2, 2), (3, 1), (3, 4), (4, 2), (4, 4)] {
        let par = ParallelConfig {
            workers,
            merge_shards,
            ..ParallelConfig::default()
        };
        let par = find_errors_parallel(&proto, &props, &gs, config.clone(), &par);
        assert_eq!(
            fingerprint(&seq),
            fingerprint(&par),
            "paxos/commuting: exhaustive search diverged at {workers}w/{merge_shards}s"
        );
    }
}

/// The seeded determinism-matrix leg: a RandTree neighborhood that lived
/// through `CB_EQ_SEED`-driven churn under the real simulator — joins,
/// resets, in-flight traffic at capture time — re-proving equivalence
/// from a different live state per seed at every `CB_EQ_WORKERS` count.
#[test]
fn randtree_churned_matrix_matches() {
    let seed = cb_bench::matrix::seed();
    let (proto, gs) = scenarios::randtree_churned(seed, RandTreeBugs::as_shipped());
    let props = randtree::properties::all();
    let config = SearchConfig {
        max_depth: Some(6),
        max_states: Some(30_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    assert_engines_agree(
        &proto,
        &props,
        &gs,
        config,
        &format!("randtree/churn-{seed}"),
    );
}

/// Paxos, fixed: consensus holds everywhere the budget reaches.
#[test]
fn paxos_clean_exhaustion_matches() {
    let (proto, gs) = scenarios::paxos_round1(PaxosBugs::none());
    let props = paxos::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(100_000),
        ..SearchConfig::default()
    };
    assert_engines_agree(&proto, &props, &gs, config, "paxos/fixed");
}

/// Chord as shipped, from a stabilized four-node ring.
#[test]
fn chord_ring_matches() {
    let (proto, gs) = scenarios::chord_ring(&[1, 5, 9, 12], ChordBugs::as_shipped());
    let props = chord::properties::all();
    let config = SearchConfig {
        max_depth: Some(5),
        max_states: Some(30_000),
        max_violations: 3,
        ..SearchConfig::default()
    };
    assert_engines_agree(&proto, &props, &gs, config, "chord/ring");
}

/// Bullet' with B3 armed, from the live state where n2 has outstanding
/// requests while a second sender is about to re-announce one of them.
#[test]
fn bullet_b3_live_matches() {
    let (proto, gs) = scenarios::bullet_b3_live();
    let props = bullet::properties::all();
    let config = SearchConfig {
        max_depth: Some(6),
        max_states: Some(30_000),
        max_violations: 25,
        ..SearchConfig::default()
    };
    assert_engines_agree(&proto, &props, &gs, config, "bullet/B3");
}
