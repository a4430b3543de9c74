//! Live deployment throughput: what the socket runtime costs to drive.
//!
//! One 6-node RandTree deployment (R1 armed, steering on) runs over real
//! loopback TCP for a fixed wall-clock window with a churned root child
//! opening prediction opportunities; we report
//!
//! * **frames/sec** — envelope throughput across every node's sockets,
//! * **snapshot bytes on the wire** — the §3.1 gather protocol's real
//!   byte footprint (requests, replies, nacks, retries),
//! * **prediction-to-filter-install latency** — gather-completion to
//!   filter-install as measured on the node's own clock (the live
//!   counterpart of `mc_latency`, with the wire included).
//!
//! A second leg measures the reactor's **nodes-per-host ceiling**: a
//! 100+-node RandTree deployment multiplexed over ≤ 4 reactor threads
//! (the poll-driven runtime's whole point — PR 5's thread-per-node shape
//! topped out at a few dozen nodes per host). Its summary lands in the
//! JSON as `reactor_scale`.
//!
//! Unlike the simulator benches, nothing here is deterministic — counters
//! depend on real scheduling — so `tools/bench-check` validates structure
//! and liveness (frames flowed, snapshots moved bytes, installs carried
//! latency samples, the scale leg held 100+ nodes on its thread budget)
//! rather than gating numeric regressions.
//!
//! Emits one JSON object (`CB_BENCH_JSON=live.json cargo bench -p
//! cb-bench --bench live_throughput`).

use std::io::Write;
use std::time::Duration;

use cb_bench::harness::{fast_mode, fmt_bytes, preamble, section};
use cb_live::{
    live_checker_config, randtree_deployment, randtree_deployment_on, wait_until, LiveConfig,
    LiveNodeConfig,
};
use cb_model::NodeId;
use cb_protocols::randtree::{Action as RtAction, RandTreeBugs, Status};

/// The scale leg: `nodes` RandTree nodes multiplexed over `threads`
/// reactor threads for `window_ms`, reporting the fragment spliced into
/// the bench JSON as `"reactor_scale"`. Stays at 100+ nodes even in fast
/// mode — the node count *is* the claim; only the window shrinks.
fn reactor_scale_leg(nodes: usize, threads: usize, window_ms: u64) -> String {
    let config = LiveConfig {
        seed: 1042,
        node: LiveNodeConfig {
            // Sparse cadence: at 100+ nodes the per-node schedule must
            // leave the reactors idle time between ticks.
            checkpoint_interval: Duration::from_millis(300),
            gather_interval: Duration::from_millis(500),
            gather_timeout: Duration::from_millis(1_200),
            time_scale: 0.02,
            self_check: false,
            ..LiveNodeConfig::default()
        },
        checker: live_checker_config(2_000, 4, 1),
        ..LiveConfig::default()
    };
    let dep = randtree_deployment_on(nodes, RandTreeBugs::none(), config, threads)
        .expect("boot scale deployment");
    let joined = wait_until(&dep, Duration::from_secs(120), |d| {
        d.node_ids()
            .iter()
            .all(|&n| match d.probe(n, Duration::from_secs(2)) {
                Some(r) if r.slot.state.status == Status::Joined => true,
                Some(_) => {
                    d.inject(n, RtAction::Join { target: NodeId(0) });
                    false
                }
                None => false,
            })
    });
    let mut dep = dep;
    dep.run_for(Duration::from_millis(window_ms));
    let report = dep.shutdown();
    let t = report.stats.totals();
    let frames = t.frames_sent + t.frames_received;
    let fps = if report.stats.wall_seconds > 0.0 {
        frames as f64 / report.stats.wall_seconds
    } else {
        0.0
    };
    println!(
        "reactor_scale: {nodes} nodes / {threads} threads ({:.1} nodes/thread), \
         {} joined, {frames} frames ({fps:.0}/sec), {} gathers",
        nodes as f64 / threads as f64,
        report.states.len(),
        t.snapshots_completed
    );
    format!(
        concat!(
            "\"reactor_scale\": {{\"nodes\": {}, \"reactor_threads\": {}, ",
            "\"nodes_per_thread\": {:.2}, \"joined\": {}, \"all_joined\": {}, ",
            "\"wall_seconds\": {:.3}, \"frames_total\": {}, ",
            "\"frames_per_sec\": {:.1}, \"snapshots_completed\": {}, ",
            "\"submits_sent\": {}}}"
        ),
        nodes,
        threads,
        nodes as f64 / threads as f64,
        report.states.len(),
        joined,
        report.stats.wall_seconds,
        frames,
        fps,
        t.snapshots_completed,
        t.submits_sent,
    )
}

fn main() {
    preamble(
        "Live deployment throughput — the socket runtime under steering load",
        "each node gathers its neighborhood snapshot over the wire \
         (§2.3/§3.1) and ships it to the checker process by TCP",
    );
    let trace = cb_bench::harness::trace_arg();
    let metrics = cb_bench::harness::metrics_arg();
    // Scrape dumps for `tools/metrics-check`: `CB_METRICS_DUMP=prefix`
    // writes `prefix.1.prom` mid-run and `prefix.2.prom` at the end, so
    // CI can assert counter monotonicity between two live scrapes.
    let dump_prefix = std::env::var("CB_METRICS_DUMP")
        .ok()
        .filter(|_| metrics.is_some());
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("host parallelism: {cores} core(s)");

    let (window_ms, budget, churns) = if fast_mode() {
        (2_500u64, 4_000usize, 4usize)
    } else {
        (8_000, 8_000, 10)
    };
    let nodes = 6usize;
    section(&format!(
        "{nodes}-node RandTree (R1), {window_ms}ms wall window, \
         {budget}-state search budget, {churns} churn rounds"
    ));

    let config = LiveConfig {
        seed: 42,
        node: LiveNodeConfig {
            checkpoint_interval: Duration::from_millis(80),
            gather_interval: Duration::from_millis(120),
            gather_timeout: Duration::from_millis(350),
            time_scale: 0.02,
            ..LiveNodeConfig::default()
        },
        checker: live_checker_config(budget, 6, 2),
        ..LiveConfig::default()
    };
    let mut dep =
        randtree_deployment(nodes, RandTreeBugs::only("R1"), config).expect("boot deployment");
    wait_until(&dep, Duration::from_secs(30), |d| {
        d.node_ids().iter().all(|&n| {
            d.probe(n, Duration::from_secs(2))
                .is_some_and(|r| r.slot.state.status == Status::Joined)
        })
    });
    // Open root capacity so predictions (and installs) flow.
    if let Some(r) = dep.probe(NodeId(0), Duration::from_secs(5)) {
        if let Some(&c) = r.slot.state.children.iter().next() {
            dep.kill(c);
        }
    }
    // Steady churn of childless nodes keeps snapshots changing (the
    // submission dedup otherwise idles the checker) without collapsing
    // the tree structure predictions ride on.
    let per_churn = Duration::from_millis(window_ms / churns as u64);
    for round in 0..churns {
        if round == churns / 2 {
            if let (Some(server), Some(prefix)) = (&metrics, &dump_prefix) {
                cb_bench::harness::dump_metrics(
                    server,
                    std::path::Path::new(&format!("{prefix}.1.prom")),
                );
            }
        }
        let victim = (1..nodes as u32).map(NodeId).find(|&n| {
            dep.is_up(n)
                && dep
                    .probe(n, Duration::from_secs(1))
                    .is_some_and(|r| r.slot.state.children.is_empty())
        });
        if let Some(v) = victim {
            dep.kill(v);
            std::thread::sleep(Duration::from_millis(50));
            let _ = dep.restart(v);
        }
        dep.run_for(per_churn);
    }

    let report = dep.shutdown();
    let t = report.stats.totals();

    let (scale_nodes, scale_threads, scale_window_ms) = if fast_mode() {
        // The node count is the claim; fast mode shrinks the window only.
        (104usize, 4usize, 2_000u64)
    } else {
        (104, 4, 6_000)
    };
    section(&format!(
        "reactor scale: {scale_nodes}-node RandTree on {scale_threads} reactor \
         threads, {scale_window_ms}ms wall window"
    ));
    let scale_json = reactor_scale_leg(scale_nodes, scale_threads, scale_window_ms);

    let json = report.stats.to_json_with(&scale_json);

    let frames = t.frames_sent + t.frames_received;
    println!(
        "frames: {frames:>8}   ({:.0}/sec over {:.2}s wall)",
        frames as f64 / report.stats.wall_seconds,
        report.stats.wall_seconds
    );
    println!(
        "snapshot wire: {:>10}   over {} gathers ({} timeouts)",
        fmt_bytes(t.snapshot_wire_bytes as usize),
        t.snapshots_completed,
        t.gather_timeouts
    );
    println!(
        "checker: {} rounds, {} predictions, {} installs pushed",
        report.stats.checker.rounds_completed,
        report.stats.checker.predictions,
        report.stats.checker.installs_sent
    );
    println!(
        "gather-to-install latency: avg {}µs, max {}µs over {} samples",
        t.install_latency.avg_us(),
        t.install_latency.max_us,
        t.install_latency.count
    );

    println!("\n{json}");
    if let Ok(path) = std::env::var("CB_BENCH_JSON") {
        let mut f = std::fs::File::create(&path).expect("open CB_BENCH_JSON output");
        writeln!(f, "{json}").expect("write JSON");
        println!("(written to {path})");
    }
    if let (Some(server), Some(prefix)) = (&metrics, &dump_prefix) {
        cb_bench::harness::dump_metrics(server, std::path::Path::new(&format!("{prefix}.2.prom")));
    }
    // Stop the endpoint before exporting: scrape-time counter mirrors sit
    // in the server thread's trace ring, which flushes on thread exit —
    // exporting first would hand trace-check a trace missing them.
    drop(metrics);
    if let Some(path) = trace {
        cb_bench::harness::export_trace(&path);
    }
}
