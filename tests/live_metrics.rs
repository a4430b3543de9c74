//! Integration test for the live metrics plane: a real deployment with
//! `--metrics`-style enablement serves a scrapeable Prometheus endpoint
//! mid-run — under socket-level loss/delay faults and node churn — and a
//! predicted violation surfaces as a first-class JSONL alert whose round
//! id joins against the cb-obs trace.
//!
//! Same determinism contract as `tests/live_deployment.rs`: node threads
//! interleave under a real scheduler, so assertions are about protocol
//! and observability *outcomes* (families present, counters monotone,
//! alert joinable), never byte-level equality. Every wait is a bounded
//! poll and the body runs under a watchdog.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use crystalball_suite::live::{
    live_checker_config, randtree_deployment_with, wait_until, LiveConfig, LiveFault,
    LiveNodeConfig,
};
use crystalball_suite::model::NodeId;
use crystalball_suite::obs;
use crystalball_suite::protocols::randtree::{RandTreeBugs, Status};

/// One live deployment at a time (see `tests/live_deployment.rs`).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn with_watchdog<T: Send + 'static>(
    limit: Duration,
    name: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let handle = thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdog body");
    let deadline = std::time::Instant::now() + limit;
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(v) => {
                let _ = handle.join();
                return v;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if handle.is_finished() {
                    if let Err(payload) = handle.join() {
                        std::panic::resume_unwind(payload);
                    }
                    panic!("{name}: body exited without a result");
                }
                if std::time::Instant::now() >= deadline {
                    panic!("{name}: wedged — did not finish within {limit:?}");
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
                panic!("{name}: body exited without a result");
            }
        }
    }
}

fn fast_node_config() -> LiveNodeConfig {
    LiveNodeConfig {
        checkpoint_interval: Duration::from_millis(80),
        gather_interval: Duration::from_millis(120),
        gather_timeout: Duration::from_millis(350),
        time_scale: 0.02,
        ..LiveNodeConfig::default()
    }
}

/// The families a scrape must serve — one representative per
/// instrumented plane, plus the scrape and trace-ring meta families. This
/// is the only list of them.
const REQUIRED_FAMILIES: &[&str] = &[
    "cb_reactor_polls_total",
    "cb_reactor_wake_lag_us",
    "cb_peer_backpressure_drops_total",
    "cb_peer_dial_failures_total",
    "cb_node_submits_total",
    "cb_node_gather_install_us",
    "cb_checker_rounds_total",
    "cb_checker_round_us",
    "cb_checker_backlog",
    "cb_cache_hits_total",
    "cb_cache_misses_total",
    "cb_mc_states_visited_total",
    "cb_mc_explored_resident_bytes",
    "cb_metrics_scrapes_total",
    "cb_trace_ring_dropped",
];

/// The acceptance scenario: an 8-node RandTree deployment with the R1 bug
/// armed serves `/metrics` mid-run while loss/delay faults degrade links
/// and nodes churn; two scrapes show every required family and monotone
/// counters; the checker's predicted violation emits an alert whose round
/// id appears in the cb-obs trace.
#[test]
fn live_metrics_scrape_under_faults_and_alert_joins_trace() {
    let _serial = serial();
    with_watchdog(Duration::from_secs(180), "live-metrics", || {
        // Trace recorder on, so the predicted-violation alert's trace
        // mirror (and the scrape counter mirrors) have somewhere to go.
        obs::enable();
        let config = LiveConfig {
            seed: 7,
            node: fast_node_config(),
            checker: live_checker_config(8_000, 6, 2),
            ..LiveConfig::default()
        };
        let mut dep = randtree_deployment_with(8, RandTreeBugs::only("R1"), config, 0, |b| {
            b.metrics("127.0.0.1:0")
        })
        .expect("boot 8-node deployment with metrics endpoint");
        let addr = dep.metrics_addr().expect("metrics endpoint bound");

        // Phase 1: the overlay forms (re-kick joins lost to races).
        let joined = wait_until(&dep, Duration::from_secs(60), |d| {
            d.node_ids()
                .iter()
                .all(|&n| match d.probe(n, Duration::from_secs(2)) {
                    Some(r) if r.slot.state.status == Status::Joined => true,
                    Some(_) => {
                        d.inject(
                            n,
                            crystalball_suite::protocols::randtree::Action::Join {
                                target: NodeId(0),
                            },
                        );
                        false
                    }
                    None => false,
                })
        });
        assert!(joined, "all 8 nodes joined the overlay over TCP");

        // At least one checking round must have completed before the
        // first scrape, so the search-plane families (registered when a
        // search starts) are present.
        let checking = wait_until(&dep, Duration::from_secs(45), |d| {
            d.probe_checker(Duration::from_secs(2))
                .is_some_and(|c| c.rounds_completed > 0)
        });
        assert!(checking, "checker completed a round before first scrape");

        // Scrape 1: a live HTTP GET against the running deployment.
        let body1 = obs::metrics::fetch(addr, Duration::from_secs(5)).expect("first scrape");
        let parsed1 = obs::metrics::parse_exposition(&body1);
        for fam in REQUIRED_FAMILIES {
            assert!(
                parsed1.family_type(fam).is_some(),
                "required family {fam} missing from first scrape:\n{body1}"
            );
        }
        assert!(
            parsed1.types.len() >= 12,
            "at least 12 families served, got {}",
            parsed1.types.len()
        );

        // Phase 2: open prediction opportunities on a clean fabric —
        // kill a childless root child for good (the Fig. 2 recipe from
        // tests/live_deployment.rs) and wait for the checker to predict
        // the R1 inconsistency. This is what fires the predicted-
        // violation alert.
        let root = dep
            .probe(NodeId(0), Duration::from_secs(5))
            .expect("probe root");
        let root_children: Vec<NodeId> = root.slot.state.children.iter().copied().collect();
        assert!(!root_children.is_empty(), "root has children");
        let mut sacrifice = root_children[0];
        for &c in &root_children {
            if dep
                .probe(c, Duration::from_secs(2))
                .is_some_and(|r| r.slot.state.children.is_empty())
            {
                sacrifice = c;
            }
        }
        dep.kill(sacrifice);
        let predicted = wait_until(&dep, Duration::from_secs(60), |d| {
            d.probe_checker(Duration::from_secs(2))
                .is_some_and(|c| c.predictions > 0)
        });
        assert!(
            predicted,
            "checker predicted a violation: {:?}",
            dep.probe_checker(Duration::from_secs(5))
        );

        // Phase 3: degrade the fabric — sampled loss plus delay/jitter
        // on the root's links — and churn a childless survivor. The
        // metrics endpoint must keep answering, and the deployment must
        // keep making progress, under the faults.
        for n in (1..8u32).map(NodeId) {
            dep.set_link_faults(
                NodeId(0),
                n,
                vec![
                    LiveFault::Loss(0.05),
                    LiveFault::Delay {
                        delay: Duration::from_millis(2),
                        jitter: Duration::from_millis(3),
                    },
                ],
            );
        }
        let victim = (1..8u32)
            .map(NodeId)
            .filter(|&n| n != sacrifice && dep.is_up(n))
            .find(|&n| {
                dep.probe(n, Duration::from_secs(1))
                    .is_some_and(|r| r.slot.state.children.is_empty())
            });
        if let Some(v) = victim {
            dep.kill(v);
            thread::sleep(Duration::from_millis(80));
            dep.restart(v).expect("restart churned node");
        }
        let rounds_before_faults = dep
            .probe_checker(Duration::from_secs(5))
            .map(|c| c.rounds_completed)
            .unwrap_or(0);
        let progressed = wait_until(&dep, Duration::from_secs(45), |d| {
            d.probe_checker(Duration::from_secs(2))
                .is_some_and(|c| c.rounds_completed > rounds_before_faults)
        });
        assert!(progressed, "checking rounds keep completing under faults");

        // Scrape 2: still answering mid-faults, and monotone vs scrape 1.
        let body2 = obs::metrics::fetch(addr, Duration::from_secs(5)).expect("second scrape");
        let parsed2 = obs::metrics::parse_exposition(&body2);
        for fam in REQUIRED_FAMILIES {
            assert!(
                parsed2.family_type(fam).is_some(),
                "required family {fam} missing from second scrape"
            );
        }
        let mut compared = 0usize;
        for (series, v1) in &parsed1.samples {
            if !series.ends_with("_total") || series.contains('{') {
                continue;
            }
            let v2 = parsed2
                .value(series)
                .unwrap_or_else(|| panic!("{series} vanished between scrapes"));
            assert!(
                v2 >= *v1,
                "counter {series} decreased between scrapes: {v1} -> {v2}"
            );
            compared += 1;
        }
        assert!(compared >= 8, "compared {compared} counter families");
        let s1 = parsed1.value("cb_metrics_scrapes_total").unwrap_or(0.0);
        let s2 = parsed2.value("cb_metrics_scrapes_total").unwrap_or(0.0);
        assert!(s2 > s1, "scrape counter strictly increases: {s1} -> {s2}");
        assert!(
            parsed2.value("cb_node_submits_total").unwrap_or(0.0) > 0.0,
            "live submissions were recorded"
        );

        // Phase 4: the predicted violation surfaced as a first-class
        // alert carrying the round id...
        let alerts = obs::health::recent_alerts();
        let predicted_alerts: Vec<_> = alerts
            .iter()
            .filter(|l| l.contains("\"rule\":\"predicted_violation\""))
            .collect();
        assert!(
            !predicted_alerts.is_empty(),
            "a predicted_violation alert was emitted; tail: {alerts:?}"
        );
        let mut alert_rounds = Vec::new();
        for line in &predicted_alerts {
            let v = obs::json::parse(line).expect("alert line parses as JSON");
            assert_eq!(
                v.get("kind").and_then(obs::json::Value::as_str),
                Some("alert"),
                "{line}"
            );
            let round = v
                .get("round")
                .and_then(obs::json::Value::as_u64)
                .expect("alert carries a round id");
            assert!(round != 0, "alert round id is a real causality tag");
            assert!(v.get("node").is_some(), "alert carries the node");
            assert!(v.get("property").is_some(), "alert carries the property");
            alert_rounds.push(round);
        }

        // ... and every alert's round id joins against the cb-obs trace
        // (shutdown first: thread exit flushes the checker's ring).
        let report = dep.shutdown();
        assert!(report.stats.checker.predictions > 0);
        let trace = obs::drain();
        let traced: BTreeSet<u64> = trace.events.iter().map(|e| e.id).collect();
        let unjoined: Vec<u64> = alert_rounds
            .iter()
            .copied()
            .filter(|r| !traced.contains(r))
            .collect();
        assert!(
            unjoined.is_empty(),
            "alert rounds {unjoined:?} absent from the trace ({} events)",
            trace.events.len()
        );
        // The alert's own trace mirror is there too, under the same id.
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.name == "alert.predicted_violation" && alert_rounds.contains(&e.id)),
            "the alert.predicted_violation instant was mirrored into the trace"
        );
        check_trace(&trace, &[&parsed1, &parsed2]);
        obs::metrics::disable();
        obs::disable();
    });
}

/// The run checks of a drained trace, against the scrapes the run took:
///
/// * every event's thread is named (the chrome export writes one
///   `thread_name` record per entry of `threads`);
/// * when the rings dropped nothing, every round a node received an
///   install for (`node.install`, `round.gather_to_install`) has the
///   `node.submit` that started it;
/// * each `_total` counter mirror never decreases per (name, thread);
/// * every non-zero `_total` series of a scrape is mirrored in the trace,
///   and none exceeds the trace's largest mirrored sample (each scrape
///   mirrors the values it serves).
fn check_trace(trace: &obs::Trace, scrapes: &[&obs::metrics::ParsedScrape]) {
    let named: BTreeSet<u64> = trace.threads.iter().map(|&(tid, _)| tid).collect();
    if let Some(e) = trace.events.iter().find(|e| !named.contains(&e.tid)) {
        panic!("{} recorded on unnamed thread {}", e.name, e.tid);
    }

    let rounds_of = |names: &[&str]| -> BTreeSet<u64> {
        trace
            .events
            .iter()
            .filter(|e| e.id != 0 && names.contains(&e.name))
            .map(|e| e.id)
            .collect()
    };
    let installed = rounds_of(&["node.install", "round.gather_to_install"]);
    if trace.dropped == 0 {
        let submitted = rounds_of(&["node.submit"]);
        let orphans: Vec<&u64> = installed.difference(&submitted).collect();
        assert!(
            orphans.is_empty(),
            "installed rounds without a node.submit: {orphans:x?}"
        );
        assert!(!installed.is_empty(), "no install receipt was traced");
    } else {
        println!(
            "round ancestry not checked: the rings dropped {} events",
            trace.dropped
        );
    }

    let mut mirrors: BTreeMap<(&str, u64), Vec<(u64, i64)>> = BTreeMap::new();
    for e in &trace.events {
        if let obs::EventKind::Counter { value } = e.kind {
            if e.name.ends_with("_total") {
                mirrors
                    .entry((e.name, e.tid))
                    .or_default()
                    .push((e.ts_us, value));
            }
        }
    }
    let mut largest: BTreeMap<&str, i64> = BTreeMap::new();
    for ((name, tid), samples) in &mut mirrors {
        samples.sort_by_key(|&(ts, _)| ts);
        if let Some(w) = samples.windows(2).find(|w| w[1].1 < w[0].1) {
            panic!(
                "mirror {name} on thread {tid} decreased: {:?} -> {:?}",
                w[0], w[1]
            );
        }
        // Monotone, so the last sample is the series' largest.
        let last = samples.last().map_or(0, |&(_, v)| v);
        let peak = largest.entry(name).or_insert(last);
        *peak = (*peak).max(last);
    }
    assert!(!largest.is_empty(), "no scrape was mirrored into the trace");
    for scrape in scrapes {
        for (series, v) in &scrape.samples {
            if !series.ends_with("_total") || series.contains('{') || *v == 0.0 {
                continue;
            }
            let peak = largest
                .get(series.as_str())
                .unwrap_or_else(|| panic!("{series} = {v} never mirrored into the trace"));
            assert!(
                *v <= *peak as f64,
                "scrape {series} = {v} exceeds the trace's largest mirror {peak}"
            );
        }
    }
}
