//! `live_overlay`: the socket runtime in steady state.
//!
//! Set-up boots one 48-node RandTree deployment (bugs off) on a single
//! reactor thread over loopback TCP and waits until every node has joined.
//! A pass is a 1.92 s steady-state window: four probe cycles, each probing
//! the 48 nodes round-robin at one probe per 10 ms. The reactor,
//! `PeerManager`, `LiveNode::poll`, frame I/O and the socket gathers do the
//! work — the 4 k lines no other workload touches — while the checker
//! idles (a stable overlay's snapshots repeat, and repeats are not
//! re-submitted): the mirror of `round_inproc`.
//!
//! The load is **open loop**: nodes gather on their own 500 ms cadence and
//! the driver probes on a fixed schedule, so `work_per_s` (completed
//! gathers per second) is schedule-bound and moves only if the overlay
//! falls behind. `cpu_ms_per_unit` and the probe round trip, timed from
//! when each probe was *due*, are the sensitive metrics.

use std::net::IpAddr;
use std::time::{Duration, Instant};

use cb_live::{
    randtree_deployment_on, LiveConfig, LiveDeployment, LiveNodeConfig, NodeStats, PeerConfig,
};
use cb_mc::{Engine, SearchConfig};
use cb_model::{ExploreOptions, NodeId, SimDuration};
use cb_protocols::randtree::{Action, RandTree, RandTreeBugs, Status};
use cb_snapshot::SnapshotConfig;
use crystalball::{CheckerMode, ControllerConfig, Mode};

use crate::harness::{Pass, Rng, Stopwatch, Workload};
use crate::spans::Recorder;

pub const NODES: usize = 48;
const PROBE_GAP: Duration = Duration::from_millis(10);
const CYCLES_PER_PASS: usize = 4;
const PROBE_TIMEOUT: Duration = Duration::from_secs(2);

/// The overlay's own seed, the same on every run. All it draws is the
/// jitter of the nodes' protocol timers, but how evenly those timers fall
/// decides how often socket traffic wakes the reactor between two ticks,
/// and so how long a control probe waits: with the run's seed here, seed 1
/// read a p50 15 % below seeds 2–10. `--seed` places the probe schedule.
const OVERLAY_SEED: u64 = 1213;

/// The deployment's tuning, every field set here. `gathers` off makes the
/// idle leg of the traced run: the reactor ticks, nothing gathers.
pub fn live_config(gathers: bool) -> LiveConfig {
    let never = Duration::from_secs(3_600);
    LiveConfig {
        seed: OVERLAY_SEED,
        node: LiveNodeConfig {
            snapshot: SnapshotConfig {
                store_quota_bytes: 64 * 1024,
                bandwidth_limit_bps: None,
                compression: true,
                diffs: true,
            },
            checkpoint_interval: if gathers {
                Duration::from_millis(300)
            } else {
                never
            },
            gather_interval: if gathers {
                Duration::from_millis(500)
            } else {
                never
            },
            gather_timeout: Duration::from_millis(1_200),
            tick: Duration::from_millis(1),
            time_scale: 0.02,
            max_frame_len: cb_model::MAX_FRAME_LEN,
            self_check: false,
            speculate_partial_gathers: false,
            peer: PeerConfig {
                max_frame_len: cb_model::MAX_FRAME_LEN,
                max_connections: 256,
                max_peer_outbuf: 1 << 20,
                dial_timeout: Duration::from_millis(250),
                dial_backoff: Duration::from_millis(50),
                dial_backoff_cap: Duration::from_secs(2),
            },
            bind_ip: IpAddr::from([127, 0, 0, 1]),
        },
        checker: ControllerConfig {
            mode: Mode::ExecutionSteering,
            search: SearchConfig {
                max_depth: Some(4),
                max_states: Some(2_000),
                deadline: None,
                explore: ExploreOptions::default(),
                prune_local: true,
                max_violations: 1,
                filters: cb_mc::FilterSet::new(),
            },
            engine: Engine::Sequential,
            checker: CheckerMode::Sharded { shards: 1 },
            mc_latency: SimDuration::from_secs(6),
            immediate_safety_check: true,
            check_filter_safety: true,
            safety_check_states: 2_000,
            replay_known_paths: true,
            reset_connection_on_block: true,
            max_known_paths: 16,
            poll_in_hooks: true,
            prediction_cache: true,
            prediction_cache_capacity: 1024,
        },
        checker_drain: Duration::from_secs(30),
    }
}

/// Boots the overlay and waits until every node reports `Joined`,
/// re-issuing the join of a node a reshaping tree dropped. Returns the
/// deployment and the seconds from boot to all-joined.
pub fn boot_joined(nodes: usize, gathers: bool) -> (LiveDeployment<RandTree>, f64) {
    let t0 = Instant::now();
    let dep = randtree_deployment_on(nodes, RandTreeBugs::none(), live_config(gathers), 1)
        .expect("boot the live overlay");
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let mut joined = 0;
        for &n in dep.node_ids() {
            match dep.probe(n, PROBE_TIMEOUT) {
                Some(r) if r.slot.state.status == Status::Joined => joined += 1,
                Some(_) => dep.inject(n, Action::Join { target: NodeId(0) }),
                None => {}
            }
        }
        if joined == nodes {
            return (dep, t0.elapsed().as_secs_f64());
        }
        assert!(
            Instant::now() < deadline,
            "only {joined}/{nodes} nodes joined"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Totals of one window, from the per-node counters at its edges.
#[derive(Clone, Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub gathers: u64,
    pub frames: u64,
    pub snapshot_wire_bytes: u64,
    pub gather_timeouts: u64,
    pub backpressure_drops: u64,
    pub submits: u64,
    pub rtt_us: Vec<f64>,
    pub late_us: Vec<f64>,
}

pub struct LiveOverlay {
    dep: Option<LiveDeployment<RandTree>>,
    /// Each node's counters at its last probe (the previous window's edge).
    edge: Vec<NodeStats>,
    next_probe: u64,
    /// Where in the reactor's 1 ms tick the next probe falls, in µs: a
    /// seeded start, advanced by the golden ratio of a tick per probe.
    phase_us: u64,
    pub boot_to_joined_s: f64,
    pub last: Window,
    unanswered: u64,
    unjoined: u64,
}

impl LiveOverlay {
    /// Boots the overlay and runs one untimed warm-up window.
    pub fn setup(seed: u64, quick: bool) -> Self {
        let nodes = if quick { 12 } else { NODES };
        let (dep, boot_to_joined_s) = boot_joined(nodes, true);
        let mut w = LiveOverlay {
            dep: Some(dep),
            edge: vec![NodeStats::default(); nodes],
            next_probe: 0,
            phase_us: Rng::new(seed ^ 0x6a69_7474).below(1_000) as u64,
            boot_to_joined_s,
            last: Window::default(),
            unanswered: 0,
            unjoined: 0,
        };
        // The warm-up window also sets every node's edge counters.
        w.pass(&mut Recorder::new(false));
        w
    }
}

impl Workload for LiveOverlay {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let dep = self.dep.as_ref().expect("deployment is up");
        let nodes = dep.node_ids().to_vec();
        let mut pass = Pass::default();
        let mut win = Window::default();
        let watch = Stopwatch::start();
        let t0 = Instant::now();
        for k in 0..(nodes.len() * CYCLES_PER_PASS) {
            // The reactor sleeps in whole ticks, so a strictly periodic probe
            // would sample one phase of its loop for a whole run, and random
            // offsets would sample the phases unevenly (a window's p50 then
            // moves ±5 % by the draw alone). Offsets a golden ratio of a tick
            // apart cover the tick evenly in every window.
            self.phase_us = (self.phase_us + 618) % 1_000;
            let due = t0 + PROBE_GAP * k as u32 + Duration::from_micros(self.phase_us);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let ix = k % nodes.len();
            self.next_probe += 1;
            let span = rec.begin("live.probe", self.next_probe);
            let sent = Instant::now();
            let reply = dep.probe(nodes[ix], PROBE_TIMEOUT);
            let done = Instant::now();
            rec.end(span);
            pass.attempted += 1;
            let Some(reply) = reply else {
                self.unanswered += 1;
                pass.failed += 1;
                continue;
            };
            if reply.slot.state.status != Status::Joined {
                self.unjoined += 1;
                pass.failed += 1;
            }
            // Open loop: a probe's latency counts from when it was due.
            pass.latencies_ms
                .push(done.duration_since(due).as_secs_f64() * 1e3);
            win.rtt_us
                .push(done.duration_since(sent).as_secs_f64() * 1e6);
            win.late_us
                .push(sent.duration_since(due).as_secs_f64() * 1e6);
            if k >= nodes.len() * (CYCLES_PER_PASS - 1) {
                // The last cycle's replies are this window's closing edge.
                let (now, was) = (&reply.stats, &self.edge[ix]);
                win.gathers += now.snapshots_completed - was.snapshots_completed;
                win.frames += (now.frames_sent + now.frames_received)
                    - (was.frames_sent + was.frames_received);
                win.snapshot_wire_bytes += now.snapshot_wire_bytes - was.snapshot_wire_bytes;
                win.gather_timeouts += now.gather_timeouts - was.gather_timeouts;
                win.backpressure_drops +=
                    now.frames_dropped_backpressure - was.frames_dropped_backpressure;
                win.submits += now.submits_sent - was.submits_sent;
                self.edge[ix] = reply.stats;
            }
        }
        // The window is whole cycles long, so every node's edge-to-edge
        // interval equals it.
        let end = t0 + PROBE_GAP * (nodes.len() * CYCLES_PER_PASS) as u32;
        if let Some(wait) = end.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        (pass.wall_s, pass.cpu_s) = watch.stop();
        (win.wall_s, win.cpu_s) = (pass.wall_s, pass.cpu_s);
        pass.units = win.gathers as f64;
        self.last = win;
        pass
    }

    fn describe(&self) -> String {
        let dep = self.dep.as_ref().expect("deployment is up");
        let w = &self.last;
        format!(
            "{} RandTree nodes on {} reactor thread + 1 checker lane; a pass is {} probes {} ms apart \
             ({:.2} s): {} gathers, {} frames, {} checker submissions, {} gather timeouts; \
             boot to all-joined {:.3} s",
            dep.node_ids().len(),
            dep.reactor_threads(),
            dep.node_ids().len() * CYCLES_PER_PASS,
            PROBE_GAP.as_millis(),
            w.wall_s,
            w.gathers,
            w.frames,
            w.submits,
            w.gather_timeouts,
            self.boot_to_joined_s,
        )
    }

    fn final_checks(&mut self) -> (u64, u64) {
        let ok = |bad: u64| if bad == 0 { "ok" } else { "FAILED" };
        println!(
            "  check every probe was answered in time                                {}",
            ok(self.unanswered)
        );
        println!(
            "  check every node stayed joined                                        {}",
            ok(self.unjoined)
        );
        // Graceful teardown: every thread the deployment started is joined.
        let report = self.dep.take().expect("deployment is up").shutdown();
        let exited = report.states.len() as u64;
        let expected = self.edge.len() as u64;
        println!(
            "  check every node drained and reported at shutdown                     {}",
            ok(expected - exited.min(expected))
        );
        (1, expected - exited.min(expected))
    }
}
