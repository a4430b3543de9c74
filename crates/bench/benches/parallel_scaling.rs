//! Parallel checker scaling: consequence-prediction states/sec for
//! 1/2/4/8 workers on a RandTree-under-churn live state.
//!
//! Checker throughput is CrystalBall's central performance metric — a
//! prediction only matters if it lands before the erroneous event does
//! (§4). This bench measures how the streamed level-synchronous engine
//! scales, verifies the parallel runs reproduce the sequential engine's
//! exact result content, and emits a JSON line per configuration so CI
//! can gate on regressions and future PRs can track the trajectory
//! (`CB_BENCH_JSON=scaling.json cargo bench -p cb-bench --bench
//! parallel_scaling`; see `tools/bench-check`).
//!
//! The sweep starts at 2 workers: `Engine::Parallel` at one worker *is*
//! the sequential engine, so a 1-worker row would time `Searcher::run`
//! against itself. Gated: result content equal to the sequential run's,
//! one busy entry per merge shard, and — on a host with more than one
//! core — 2 workers at ≥ 0.75× the sequential engine.

use std::io::Write;
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
    let trace = cb_bench::harness::trace_arg();

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
        "{:>8} {:>10} {:>12} {:>14} {:>9} {:>12} {:>12}",
        "workers", "states", "time", "states/sec", "speedup", "merge busy", "merge wait"
    );
    println!(
        "{:>8} {:>10} {:>12} {:>14.0} {:>8.2}x {:>12} {:>12}",
        "seq",
        seq.stats.states_visited,
        fmt_duration(seq_elapsed),
        seq_rate,
        1.0,
        "-",
        "-"
    );

    let mut rows = Vec::new();
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
        let overhead_factor = elapsed.as_secs_f64() / seq_elapsed.as_secs_f64();
        println!(
            "{workers:>8} {:>10} {:>12} {rate:>14.0} {speedup:>8.2}x {:>12} {:>12}",
            par.stats.states_visited,
            fmt_duration(elapsed),
            fmt_duration(par.stats.merge_busy),
            fmt_duration(par.stats.merge_wait),
        );
        let explored_bytes_per_state =
            par.stats.explored_resident_bytes / par.stats.states_enqueued.max(1);
        // Mean range tasks per visited level: how finely phase 3 cut
        // this search's levels.
        let ranges_per_level =
            par.stats.expand_ranges as f64 / par.stats.per_depth.len().max(1) as f64;
        rows.push(format!(
            "{{\"workers\":{workers},\"states\":{},\"elapsed_s\":{:.6},\"states_per_sec\":{rate:.0},\
             \"speedup_vs_sequential\":{speedup:.3},\"overhead_factor\":{overhead_factor:.4},\
             \"merge_busy_s\":{:.6},\"merge_wait_s\":{:.6},\
             \"ranges_per_level\":{ranges_per_level:.1},\
             \"explored_resident_bytes\":{},\"explored_bytes_per_state\":{explored_bytes_per_state}}}",
            par.stats.states_visited,
            elapsed.as_secs_f64(),
            par.stats.merge_busy.as_secs_f64(),
            par.stats.merge_wait.as_secs_f64(),
            par.stats.explored_resident_bytes,
        ));
    }

    let json = format!(
        "{{\"bench\":\"parallel_scaling\",\"scenario\":\"randtree_under_churn\",\"host_cores\":{cores},\"budget_states\":{budget},\
         \"reps\":{reps},\
         \"sequential\":{{\"states\":{},\"elapsed_s\":{:.6},\"states_per_sec\":{seq_rate:.0}}},\
         \"parallel\":[{}]}}",
        seq.stats.states_visited,
        seq_elapsed.as_secs_f64(),
        rows.join(",")
    );
    println!("\n{json}");
    if let Ok(path) = std::env::var("CB_BENCH_JSON") {
        let mut f = std::fs::File::create(&path).expect("open CB_BENCH_JSON output");
        writeln!(f, "{json}").expect("write JSON");
        println!("(written to {path})");
    }
    if let Some(path) = trace {
        cb_bench::harness::export_trace(&path);
    }
}
