//! Parallel checker scaling: consequence-prediction states/sec for
//! 1/2/4/8 workers on a RandTree-under-churn live state.
//!
//! Checker throughput is CrystalBall's central performance metric — a
//! prediction only matters if it lands before the erroneous event does
//! (§4). This bench measures how the streamed level-synchronous engine
//! scales and asserts its gates on the values it measured, so the
//! process exits non-zero when one breaks.
//!
//! The sweep starts at 2 workers: `Engine::Parallel` at one worker *is*
//! the sequential engine, so a 1-worker row would time `Searcher::run`
//! against itself. Gated on every row: result content equal to the
//! sequential run's, range tasks cut (`ranges_per_level > 0`, i.e. the
//! phased engine ran) and explored-set bytes per state reported. On a
//! host with more than one core, 2 workers must reach ≥ 0.75× the
//! sequential engine (range tasks and the in-order collect put it at
//! 0.83–1.2×) and 4–8 workers ≥ 0.5× per worker where that many cores
//! exist; on one core those rows measure overhead, not scaling, and the
//! speedup gates are skipped (the bench says so).

use std::time::{Duration, Instant};

use cb_bench::harness::{fast_mode, fmt_duration, preamble, section};
use cb_mc::{find_consequences, find_consequences_parallel, ParallelConfig, SearchConfig};
use cb_model::{NodeId, PropertySet, SimDuration};
use cb_protocols::randtree::{self, Action as RtAction, RandTree, RandTreeBugs};
use cb_runtime::{NoHook, Scenario, SimConfig, Simulation};

/// A RandTree overlay that has lived through churn: joins, resets,
/// rejoins — the "system that has been running for a significant amount
/// of time" (§1.3) that online prediction actually starts from.
fn randtree_under_churn() -> (RandTree, cb_model::GlobalState<RandTree>) {
    let nodes: Vec<NodeId> = (0..8).map(NodeId).collect();
    // Fixed protocol: the churned state satisfies the properties, so the
    // search burns the whole state budget instead of stopping on an
    // immediate violation — this bench measures throughput, not bugs.
    let proto = RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none());
    let mut sim = Simulation::new(
        proto.clone(),
        &nodes,
        randtree::properties::all(),
        NoHook,
        SimConfig {
            seed: 1213,
            track_violations: false,
            ..SimConfig::default()
        },
    );
    sim.load_scenario(Scenario::churn(
        &nodes,
        |_| RtAction::Join { target: NodeId(0) },
        SimDuration::from_secs(20),
        SimDuration::from_secs(120),
        1213,
    ));
    sim.run_for(SimDuration::from_secs(130));
    (proto, sim.gs.clone())
}

fn main() {
    preamble(
        "Parallel scaling — consequence prediction states/sec vs workers (RandTree under churn)",
        "the checker runs 'as a separate thread'; throughput bounds how far ahead \
         of the live system the predictions reach",
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");
    if cores < 2 {
        println!("NOTE: single-core host — worker counts above 1 cannot beat sequential here;");
        println!("      the speedup column measures engine overhead, not scaling.");
    }

    let (proto, gs) = randtree_under_churn();
    let props: PropertySet<RandTree> = randtree::properties::all();
    let budget = if fast_mode() { 30_000 } else { 120_000 };
    let reps = 5;
    let config = SearchConfig {
        max_states: Some(budget),
        max_depth: Some(12),
        max_violations: usize::MAX,
        ..SearchConfig::default()
    };

    section(&format!(
        "states/sec over a {budget}-state budget (min of {reps} interleaved reps)"
    ));
    // All configurations are repeated round-robin (seq, 2w, 4w, ... —
    // then again) and each reports its min: background-load drift hits
    // every configuration instead of whichever happened to run during the
    // noisy window, so the overhead *ratios* stay stable.
    let worker_counts = [2usize, 4, 8];
    let mut seq_elapsed = Duration::MAX;
    let mut seq = None;
    let mut par_elapsed = [Duration::MAX; 3];
    let mut par_out = [const { None }; 3];
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = find_consequences(&proto, &props, &gs, config.clone());
        seq_elapsed = seq_elapsed.min(t0.elapsed());
        seq = Some(out);
        for (slot, &workers) in worker_counts.iter().enumerate() {
            let t0 = Instant::now();
            let out = find_consequences_parallel(
                &proto,
                &props,
                &gs,
                config.clone(),
                &ParallelConfig {
                    workers,
                    ..ParallelConfig::default()
                },
            );
            let elapsed = t0.elapsed();
            // Keep the outcome of the *fastest* rep, so a row's
            // merge_busy/merge_wait stats describe the same run as its
            // elapsed time.
            if elapsed < par_elapsed[slot] {
                par_elapsed[slot] = elapsed;
                par_out[slot] = Some(out);
            }
        }
    }
    let seq = seq.expect("sequential run");
    let seq_rate = seq.stats.states_visited as f64 / seq_elapsed.as_secs_f64();
    println!(
        "{:>8} {:>10} {:>12} {:>14} {:>9} {:>12} {:>11} {:>8}",
        "workers", "states", "time", "states/sec", "speedup", "merge busy", "ranges/lvl", "B/state"
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14.0} {:>8.2}x {:>12} {:>11} {:>8}",
        "seq",
        seq.stats.states_visited,
        fmt_duration(seq_elapsed),
        seq_rate,
        1.0,
        "-",
        "-",
        "-"
    );

    let mut speedups = Vec::new();
    for (slot, &workers) in worker_counts.iter().enumerate() {
        let elapsed = par_elapsed[slot];
        let par = par_out[slot].take().expect("parallel run");
        assert_eq!(
            (
                par.stats.states_visited,
                par.stats.states_enqueued,
                par.violations.len()
            ),
            (
                seq.stats.states_visited,
                seq.stats.states_enqueued,
                seq.violations.len()
            ),
            "parallel engine must reproduce the sequential result content"
        );
        let rate = par.stats.states_visited as f64 / elapsed.as_secs_f64();
        let speedup = rate / seq_rate;
        // Mean range tasks per visited level: how finely phase 3 cut
        // this search's levels.
        let ranges_per_level =
            par.stats.expand_ranges as f64 / par.stats.per_depth.len().max(1) as f64;
        let explored_bytes_per_state =
            par.stats.explored_resident_bytes / par.stats.states_enqueued.max(1);
        println!(
            "{workers:>8} {:>10} {:>12} {rate:>14.0} {speedup:>8.2}x {:>12} {ranges_per_level:>11.1} {explored_bytes_per_state:>8}",
            par.stats.states_visited,
            fmt_duration(elapsed),
            fmt_duration(par.stats.merge_busy),
        );
        // The sequential loop expands no ranges: a row without them did
        // not run the phased engine.
        assert!(
            ranges_per_level > 0.0,
            "{workers} workers ran without the phased engine"
        );
        assert!(
            explored_bytes_per_state > 0,
            "{workers} workers reported no explored-set bytes per state"
        );
        speedups.push((workers, speedup));
    }

    if cores < 2 {
        println!("speedup gates: skipped (one core: nothing to scale onto)");
        return;
    }
    for (workers, speedup) in speedups {
        let wanted = match workers {
            2 => 0.75,
            4..=8 if workers <= cores => 0.5 * workers as f64,
            _ => continue,
        };
        assert!(
            speedup >= wanted,
            "{workers} workers on {cores} cores reached {speedup:.2}x < {wanted:.2}x \
             of the sequential engine"
        );
        println!("speedup@{workers}w: {speedup:.2}x >= {wanted:.2}x -> ok");
    }
}
