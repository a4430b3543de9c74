//! The CrystalBall loop outside the simulator: nodes as poll-driven
//! state machines multiplexed over reactor threads, talking real TCP,
//! steered by a checker reachable only by socket.
//!
//! Default run boots an 8-node RandTree overlay (the paper's R1 bug
//! armed) on two reactor threads, lets the nodes gather consistent
//! neighborhood snapshots **over the wire** (§2.3/§3.1), opens root
//! capacity so consequence prediction finds the Fig. 2 chain, and
//! churns childless nodes until a wire-installed event filter
//! demonstrably blocks a live handler — execution steering (§3.3)
//! delivered by TCP push.
//!
//! The deployment can also span processes (the registry is itself a TCP
//! service — no shared memory required):
//!
//! ```text
//! cargo run --release --example live_deployment -- --serve 127.0.0.1:7000
//! # ...and in another terminal (or on another host on the same network):
//! cargo run --release --example live_deployment -- --join 127.0.0.1:7000
//! ```
//!
//! `--threads N` sizes the reactor pool (0 = one thread per node, the
//! pre-reactor shape as a degenerate case).

use std::net::SocketAddr;
use std::time::Duration;

use crystalball_suite::live::{
    live_checker_config, randtree_deployment_on, wait_until, DeploymentBuilder, LiveConfig,
    LiveNodeConfig,
};
use crystalball_suite::model::NodeId;
use crystalball_suite::protocols::randtree::{self, Action, RandTree, RandTreeBugs, Status};

fn fast_config(seed: u64) -> LiveConfig {
    LiveConfig {
        seed,
        node: LiveNodeConfig {
            checkpoint_interval: Duration::from_millis(80),
            gather_interval: Duration::from_millis(120),
            gather_timeout: Duration::from_millis(350),
            time_scale: 0.02,
            ..LiveNodeConfig::default()
        },
        checker: live_checker_config(8_000, 6, 2),
        ..LiveConfig::default()
    }
}

/// Serve half of a two-process deployment: host nodes 0–3 and the
/// checker, publish the address registry on `bind`, and watch remote
/// nodes join the tree for a fixed window.
fn serve(bind: SocketAddr, threads: usize) {
    let dep = DeploymentBuilder::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none()),
        randtree::properties::all(),
    )
    .nodes(&[NodeId(0), NodeId(1), NodeId(2), NodeId(3)])
    .config(fast_config(42))
    .reactor_threads(threads)
    .serve_registry(bind)
    .boot()
    .expect("boot serving half");
    let reg = dep.registry_addr().expect("registry served");
    println!("live: serving registry at {reg} — join with `--join {reg}`");

    for &n in dep.node_ids() {
        dep.inject(n, Action::Join { target: NodeId(0) });
    }
    wait_until(&dep, Duration::from_secs(30), |d| {
        d.node_ids().iter().all(|&n| {
            d.probe(n, Duration::from_secs(2))
                .is_some_and(|r| r.slot.state.status == Status::Joined)
        })
    });
    println!("live: local overlay up; waiting 45s for cross-process joiners");

    // Poll during the window: joiners from the other process may leave
    // again (their deployment shuts down), so catch the adoption live.
    let adopted = wait_until(&dep, Duration::from_secs(45), |d| {
        d.node_ids().iter().any(|&n| {
            d.probe(n, Duration::from_secs(2))
                .is_some_and(|r| r.slot.state.children.iter().any(|c| c.0 >= 4))
        })
    });
    println!("live: remote joiner adopted by a local node: {adopted}");
    // Keep serving: later joiners may still be mid-handshake, and tearing
    // the registry down now would orphan them (their join target and every
    // address lookup die with this process).
    let mut dep = dep;
    dep.run_for(Duration::from_secs(20));
    let report = dep.shutdown();
    println!("\n{}", report.stats.to_json());
}

/// Join half: host nodes 4–7 in this process, resolve every peer through
/// the remote registry at `server`, and join the served tree.
fn join(server: SocketAddr, threads: usize) {
    let mut dep = DeploymentBuilder::new(
        RandTree::new(2, vec![NodeId(0)], RandTreeBugs::none()),
        randtree::properties::all(),
    )
    .nodes(&[NodeId(4), NodeId(5), NodeId(6), NodeId(7)])
    .config(fast_config(43))
    .reactor_threads(threads)
    .join(server)
    .boot()
    .expect("boot joining half");
    println!("live: joined registry at {server}; hosting nodes 4-7");

    let joined = wait_until(&dep, Duration::from_secs(45), |d| {
        let mut all = true;
        for &n in d.node_ids() {
            match d.probe(n, Duration::from_secs(2)) {
                Some(r) if r.slot.state.status == Status::Joined => {}
                Some(_) => {
                    d.inject(n, Action::Join { target: NodeId(0) });
                    all = false;
                }
                None => all = false,
            }
        }
        all
    });
    println!("live: cross-process join complete (joined={joined})");
    for &n in dep.node_ids() {
        if let Some(r) = dep.probe(n, Duration::from_secs(2)) {
            println!(
                "live:   {n}: status={:?} parent={:?} children={:?}",
                r.slot.state.status, r.slot.state.parent, r.slot.state.children
            );
        }
    }
    dep.run_for(Duration::from_secs(8));
    let report = dep.shutdown();
    println!("\n{}", report.stats.to_json());
}

/// The default single-process steering scenario.
fn steer(threads: usize) {
    println!("live: booting 8 RandTree nodes on {threads} reactor thread(s) over loopback TCP");
    let mut dep = randtree_deployment_on(8, RandTreeBugs::only("R1"), fast_config(42), threads)
        .expect("boot deployment");

    let joined = wait_until(&dep, Duration::from_secs(60), |d| {
        d.node_ids()
            .iter()
            .all(|&n| match d.probe(n, Duration::from_secs(2)) {
                Some(r) if r.slot.state.status == Status::Joined => true,
                Some(_) => {
                    d.inject(n, Action::Join { target: NodeId(0) });
                    false
                }
                None => false,
            })
    });
    println!("live: overlay formed over real sockets (joined={joined})");

    // Open root capacity: a full root forwards joins down and never sends
    // the UpdateSibling message the Fig. 2 prediction rides on.
    let root = dep
        .probe(NodeId(0), Duration::from_secs(5))
        .expect("probe root");
    let sacrifice = root
        .slot
        .state
        .children
        .iter()
        .copied()
        .find(|&c| {
            dep.probe(c, Duration::from_secs(2))
                .is_some_and(|r| r.slot.state.children.is_empty())
        })
        .or_else(|| root.slot.state.children.iter().copied().next())
        .expect("root has a child");
    dep.kill(sacrifice);
    println!("live: killed root child {sacrifice} (capacity opens the prediction)");

    let predicted = wait_until(&dep, Duration::from_secs(60), |d| {
        d.probe_checker(Duration::from_secs(2))
            .is_some_and(|c| c.predictions > 0 && c.installs_sent > 0)
    });
    let checker = dep.probe_checker(Duration::from_secs(5)).unwrap();
    println!(
        "live: checker predicted from wire-gathered snapshots \
         (predicted={predicted}; {} submissions, {} rounds, {} predictions)",
        checker.submits_received, checker.rounds_completed, checker.predictions
    );

    // Churn childless nodes until a wire-installed filter blocks a live
    // handler.
    let mut steered = false;
    for round in 0..15 {
        let hit = dep.node_ids().iter().any(|&n| {
            dep.is_up(n)
                && dep
                    .probe(n, Duration::from_secs(1))
                    .is_some_and(|r| r.stats.filter_hits > 0)
        });
        if hit {
            steered = true;
            break;
        }
        let victim = (1..8u32).map(NodeId).find(|&n| {
            n != sacrifice
                && dep.is_up(n)
                && dep
                    .probe(n, Duration::from_secs(1))
                    .is_some_and(|r| r.slot.state.children.is_empty() && r.filters.is_empty())
        });
        if let Some(v) = victim {
            dep.kill(v);
            std::thread::sleep(Duration::from_millis(80));
            let _ = dep.restart(v);
            println!("live: churn round {round}: killed and rejoined {v}");
        }
        let _ = wait_until(&dep, Duration::from_secs(5), |d| {
            d.node_ids().iter().any(|&n| {
                d.is_up(n)
                    && d.probe(n, Duration::from_secs(1))
                        .is_some_and(|r| r.stats.filter_hits > 0)
            })
        });
    }

    let report = dep.shutdown();
    let t = report.stats.totals();
    println!(
        "live: steered={steered} — {} filter hits, {} installs over the wire",
        t.filter_hits, t.installs_received
    );
    println!(
        "live: {} frames, {} snapshot-protocol bytes, {} gathers, {} submits \
         ({} nodes per reactor thread)",
        t.frames_sent + t.frames_received,
        t.snapshot_wire_bytes,
        t.snapshots_completed,
        t.submits_sent,
        report.states.len() / report.stats.reactor_threads.max(1)
    );
    println!(
        "live: gather-to-install latency avg {}µs (max {}µs, {} samples)",
        t.install_latency.avg_us(),
        t.install_latency.max_us,
        t.install_latency.count
    );
    println!("\n{}", report.stats.to_json());
}

fn main() {
    let mut serve_at: Option<SocketAddr> = None;
    let mut join_at: Option<SocketAddr> = None;
    let mut threads = 2usize;
    let mut trace: Option<std::path::PathBuf> = None;
    let mut metrics: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--serve" | "--join" => {
                let addr: SocketAddr =
                    args.next().and_then(|a| a.parse().ok()).unwrap_or_else(|| {
                        panic!("{arg} needs a socket address (e.g. 127.0.0.1:7000)")
                    });
                if arg == "--serve" {
                    serve_at = Some(addr);
                } else {
                    join_at = Some(addr);
                }
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|a| a.parse().ok())
                    .expect("--threads needs a count (0 = thread per node)");
            }
            "--trace" => {
                trace = Some(args.next().expect("--trace needs a file path").into());
            }
            "--metrics" => {
                metrics = Some(
                    args.next()
                        .expect("--metrics needs a bind address (e.g. 127.0.0.1:9400)"),
                );
            }
            other => panic!(
                "unknown flag {other}; use --serve ADDR | --join ADDR | --threads N \
                 | --trace PATH | --metrics ADDR"
            ),
        }
    }
    if trace.is_some() {
        crystalball_suite::obs::enable();
    }
    // Held for the whole run: `curl http://ADDR/metrics` (any GET path
    // works) answers with the Prometheus text exposition.
    let metrics = metrics.map(|bind| {
        let server = crystalball_suite::obs::MetricsServer::bind(bind.as_str())
            .expect("bind metrics endpoint");
        println!("live: metrics on http://{}", server.addr());
        server
    });
    match (serve_at, join_at) {
        (Some(_), Some(_)) => panic!("--serve and --join are mutually exclusive"),
        (Some(bind), None) => serve(bind, threads),
        (None, Some(server)) => join(server, threads),
        (None, None) => steer(threads),
    }
    // Export once the chosen flow's deployment has fully shut down:
    // chrome trace-event JSON at PATH plus a compact .jsonl next to it,
    // loadable in about:tracing / Perfetto.
    if let Some(path) = trace {
        let t = crystalball_suite::obs::drain();
        crystalball_suite::obs::chrome::write_files(&t, &path).expect("write trace files");
        println!("live: trace written to {}", path.display());
    }
    // The steering scenario lasts only a couple of wall-clock seconds;
    // hold the endpoint open afterwards so a second terminal's `curl`
    // has a window (final counter values keep serving).
    if let Some(server) = &metrics {
        let hold = std::env::var("CB_METRICS_HOLD")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(30);
        if hold > 0 {
            println!(
                "live: holding metrics endpoint http://{} for {hold}s (CB_METRICS_HOLD=0 skips)",
                server.addr()
            );
            std::thread::sleep(Duration::from_secs(hold));
        }
    }
    drop(metrics);
}
