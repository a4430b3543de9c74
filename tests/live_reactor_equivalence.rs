//! Reactor-equivalence tests for `cb-live`: the poll-driven reactor must
//! be a pure *scheduling* change. Whether six nodes share one reactor
//! thread, two, or get one each (PR 5's thread-per-node shape as the
//! degenerate case), the protocol-level outcomes of the same scenario
//! are the same — overlay forms, wire gathers complete, submissions
//! reach the checker, a prediction comes back as a filter-install push.
//!
//! Same determinism contract as `live_deployment.rs`: real scheduling
//! means no trace equality, so "equivalence" is outcome equivalence,
//! asserted through bounded polls under a watchdog.

use std::sync::{mpsc, Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use crystalball_suite::live::{
    live_checker_config, randtree_deployment_on, wait_until, LiveConfig, LiveNodeConfig,
};
use crystalball_suite::model::NodeId;
use crystalball_suite::protocols::randtree::{Action as RtAction, RandTreeBugs, Status};

/// One live deployment at a time (same rationale as `live_deployment.rs`:
/// concurrent deployments starve each other into flaky timeouts on small
/// CI hosts).
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` on a helper thread and panics if it has not finished within
/// `limit` — a wedged reactor fails the test instead of hanging CI.
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

/// The protocol-level outcomes one scenario run produced — the
/// equivalence surface compared across reactor sizings.
#[derive(Debug)]
struct Outcomes {
    joined: bool,
    snapshots_completed: u64,
    submits_sent: u64,
    predictions: u64,
    installs_sent: u64,
    installs_received: u64,
}

/// Runs the PR 5 steering scenario's first three phases (overlay forms →
/// root capacity opened by a kill → checker predicts and pushes filters)
/// on `threads` reactor threads and reports the outcomes.
fn run_scenario(threads: usize) -> Outcomes {
    let config = LiveConfig {
        seed: 7,
        node: LiveNodeConfig {
            checkpoint_interval: Duration::from_millis(80),
            gather_interval: Duration::from_millis(120),
            gather_timeout: Duration::from_millis(350),
            time_scale: 0.02,
            ..LiveNodeConfig::default()
        },
        checker: live_checker_config(8_000, 6, 2),
        ..LiveConfig::default()
    };
    let mut dep =
        randtree_deployment_on(6, RandTreeBugs::only("R1"), config, threads).expect("boot");
    assert_eq!(
        dep.reactor_threads(),
        if threads == 0 { 6 } else { threads },
        "builder honored the reactor sizing"
    );

    let joined = wait_until(&dep, Duration::from_secs(60), |d| {
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

    // Open root capacity (the Fig. 2 precondition): kill a childless
    // root child for good.
    let root = dep
        .probe(NodeId(0), Duration::from_secs(5))
        .expect("probe root");
    let root_children: Vec<NodeId> = root.slot.state.children.iter().copied().collect();
    let mut sacrifice = *root_children.first().expect("root has children");
    for &c in &root_children {
        if dep
            .probe(c, Duration::from_secs(2))
            .is_some_and(|r| r.slot.state.children.is_empty())
        {
            sacrifice = c;
        }
    }
    dep.kill(sacrifice);

    // The loop closes: wire-gathered snapshots reach the checker, a
    // prediction comes back, and at least one node receives the push.
    wait_until(&dep, Duration::from_secs(45), |d| {
        d.probe_checker(Duration::from_secs(2))
            .is_some_and(|c| c.predictions > 0 && c.installs_sent > 0)
    });
    wait_until(&dep, Duration::from_secs(30), |d| {
        d.node_ids().iter().any(|&n| {
            d.is_up(n)
                && d.probe(n, Duration::from_secs(1))
                    .is_some_and(|r| r.stats.installs_received > 0)
        })
    });

    let report = dep.shutdown();
    let totals = report.stats.totals();
    Outcomes {
        joined,
        snapshots_completed: totals.snapshots_completed,
        submits_sent: totals.submits_sent,
        predictions: report.stats.checker.predictions,
        installs_sent: report.stats.checker.installs_sent,
        installs_received: totals.installs_received,
    }
}

/// The acceptance assertion: every reactor sizing reaches the same
/// protocol-level outcomes. Counters are scheduling-dependent, so the
/// comparison is on *predicates* (the outcome happened), not values.
#[test]
fn reactor_sizings_reach_equivalent_outcomes() {
    let _serial = serial();
    // threads = 1 (everything on one reactor), 2 (nodes split across
    // two), 0 → nodes (PR 5 thread-per-node as the degenerate case).
    for threads in [1usize, 2, 0] {
        let outcomes = with_watchdog(
            Duration::from_secs(150),
            &format!("equivalence-{threads}t"),
            move || run_scenario(threads),
        );
        eprintln!("[{threads} threads] outcomes: {outcomes:?}");
        assert!(
            outcomes.joined,
            "[{threads} threads] overlay formed: {outcomes:?}"
        );
        assert!(
            outcomes.snapshots_completed > 0,
            "[{threads} threads] wire gathers completed: {outcomes:?}"
        );
        assert!(
            outcomes.submits_sent > 0,
            "[{threads} threads] snapshots shipped to the checker: {outcomes:?}"
        );
        assert!(
            outcomes.predictions > 0,
            "[{threads} threads] checker predicted: {outcomes:?}"
        );
        assert!(
            outcomes.installs_sent > 0 && outcomes.installs_received > 0,
            "[{threads} threads] filters pushed and received over the wire: {outcomes:?}"
        );
    }
}

/// The scale smoke: 64 nodes multiplexed over 2 reactor threads form an
/// overlay and keep the snapshot machinery running — the deployment
/// shape PR 5's thread-per-node runtime could not host.
#[test]
fn sixty_four_nodes_on_two_reactor_threads() {
    let _serial = serial();
    with_watchdog(Duration::from_secs(240), "64-node", || {
        let config = LiveConfig {
            seed: 13,
            node: LiveNodeConfig {
                // Relaxed cadence: 64 nodes share two cores' worth of
                // reactor time, so per-node work must be sparse.
                checkpoint_interval: Duration::from_millis(300),
                gather_interval: Duration::from_millis(500),
                gather_timeout: Duration::from_millis(1200),
                time_scale: 0.02,
                self_check: false,
                ..LiveNodeConfig::default()
            },
            checker: live_checker_config(2_000, 4, 1),
            ..LiveConfig::default()
        };
        let dep =
            randtree_deployment_on(64, RandTreeBugs::none(), config, 2).expect("boot 64 nodes");
        assert_eq!(dep.reactor_threads(), 2);

        // The overlay forms (joins cascade through the tree, so give
        // stragglers a re-kick when found idle in Init).
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
        assert!(joined, "all 64 nodes joined on 2 reactor threads");

        // Snapshot machinery keeps running at scale.
        let gathered = wait_until(&dep, Duration::from_secs(60), |d| {
            [NodeId(0), NodeId(17), NodeId(42)].iter().all(|&n| {
                d.probe(n, Duration::from_secs(2))
                    .is_some_and(|r| r.stats.snapshots_completed > 0)
            })
        });
        assert!(gathered, "gathers complete at 64 nodes");

        let report = dep.shutdown();
        assert_eq!(report.stats.reactor_threads, 2);
        assert_eq!(report.states.len(), 64, "every node drained and reported");
        let totals = report.stats.totals();
        assert!(totals.snapshots_completed > 0);
        assert!(totals.frames_sent > 0);
    });
}
