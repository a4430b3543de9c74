//! Live deployment throughput: what the socket runtime costs to drive.
//!
//! One 6-node RandTree deployment (R1 armed, steering on) runs over real
//! loopback TCP for a fixed wall-clock window with a churned root child
//! opening prediction opportunities; we report
//!
//! * **frames/sec** — envelope throughput across every node's sockets,
//! * **snapshot bytes on the wire** — the §3.1 gather protocol's real
//!   byte footprint (requests, replies, nacks, retries),
//! * **gather→install round trip of every install push, empty ones
//!   included** — gather completion to install receipt as measured on the
//!   node's own clock (the live counterpart of `mc_latency`, with the
//!   wire included). A round that predicts nothing still pushes an empty
//!   install, and in fast mode most or all rounds do, so the line also
//!   prints how many pushes followed a prediction.
//!
//! A second leg measures the reactor's **nodes-per-host ceiling**: a
//! 100+-node RandTree deployment multiplexed over ≤ 4 reactor threads
//! (the poll-driven runtime's whole point — PR 5's thread-per-node shape
//! topped out at a few dozen nodes per host).
//!
//! Unlike the simulator benches, nothing here is deterministic — counters
//! depend on real scheduling — so the bench asserts structure and
//! liveness (frames flowed, snapshots moved bytes, submissions reached
//! the checker, installs carried latency samples, the scale leg held
//! 100+ nodes on its thread budget) rather than numeric regressions.

use std::time::Duration;

use cb_bench::harness::{fast_mode, fmt_bytes, preamble, section};
use cb_live::{
    live_checker_config, randtree_deployment, randtree_deployment_on, wait_until, LiveConfig,
    LiveNodeConfig,
};
use cb_model::NodeId;
use cb_protocols::randtree::{Action as RtAction, RandTreeBugs, Status};

/// The scale leg: `nodes` RandTree nodes multiplexed over `threads`
/// reactor threads for `window_ms`, asserting the deployment held and
/// ran. Stays at 100+ nodes even in fast mode — the node count *is* the
/// claim; only the window shrinks.
fn reactor_scale_leg(nodes: usize, threads: usize, window_ms: u64) {
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
    let per_thread = nodes as f64 / threads as f64;
    println!(
        "reactor_scale: {nodes} nodes / {threads} threads ({per_thread:.1} nodes/thread), \
         {} joined, {frames} frames ({fps:.0}/sec), {} gathers",
        report.states.len(),
        t.snapshots_completed
    );
    assert!(
        nodes >= 100 && threads <= 4 && per_thread >= 25.0,
        "reactor_scale: {nodes} nodes on {threads} threads is not 100+ nodes on at most 4"
    );
    assert_eq!(
        report.states.len(),
        nodes,
        "reactor_scale lost nodes (all joined: {joined})"
    );
    assert!(
        frames > 0 && fps > 0.0,
        "reactor_scale deployment moved no frames"
    );
    assert!(
        t.snapshots_completed > 0,
        "reactor_scale completed no gathers"
    );
}

fn main() {
    preamble(
        "Live deployment throughput — the socket runtime under steering load",
        "each node gathers its neighborhood snapshot over the wire \
         (§2.3/§3.1) and ships it to the checker process by TCP",
    );
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
    for _ in 0..churns {
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
        "gather→install round trip of every install push, empty ones included: \
         avg {}µs, max {}µs over {} samples ({} pushes followed a prediction); \
         p50/p95/p99 {}/{}/{}µs",
        t.install_latency.avg_us(),
        t.install_latency.max_us,
        t.install_latency.count,
        report.stats.checker.predictions,
        t.gather_to_install.quantile(0.50),
        t.gather_to_install.quantile(0.95),
        t.gather_to_install.quantile(0.99)
    );

    // Liveness: the full loop demonstrably ran over real sockets.
    assert!(frames > 0, "the live deployment moved no frames");
    assert!(
        t.snapshot_wire_bytes > 0,
        "the live snapshot protocol moved no bytes"
    );
    assert!(t.snapshots_completed > 0, "no live gathers completed");
    assert!(t.submits_sent > 0, "no live snapshots reached the checker");
    assert!(
        report.stats.checker.rounds_completed > 0,
        "the live checker completed no rounds"
    );
    assert!(
        t.install_latency.count > 0,
        "no install pushes round-tripped (gather→install round trip of every \
         install push, empty ones included, unmeasured)"
    );

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
    reactor_scale_leg(scale_nodes, scale_threads, scale_window_ms);
}
