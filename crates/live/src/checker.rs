//! The checker *process*: a TCP server wrapping
//! [`crystalball::WireChecker`], hosted on a reactor thread of its own.
//!
//! "We run the model checker as a separate thread that communicates
//! future inconsistencies to the runtime" (§4) — here it is separate in
//! the strongest sense the workspace can express: live nodes reach it
//! only through sockets. Nodes ship diff-encoded neighborhood states
//! ([`crate::wire::SubmitBody`]); completed rounds travel back as
//! filter-install pushes on the same connection. Every round still runs
//! on the sharded `CheckerPool`/`CheckerHost` machinery, so the live
//! deployment shares its checking capacity exactly the way the fleet
//! harness does.
//!
//! The server is a [`Hosted`] state machine like a node: the reactor
//! blocks in `poll(2)` on its sockets, and each `poll(now, io)` accepts,
//! reads submissions, collects the rounds the pool has finished (the 1 ms
//! tick bounds how long one waits to be noticed) and writes installs.
//! Latencies come from the passed `now`; probes and shutdown arrive as
//! ctl messages, and the shutdown drain is a state, not a blocking call.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cb_model::{Decode, Encode, FrameKind, NodeId, PropertySet, Protocol, SimTime, WireFrame};
use crystalball::{checker_pool, ControllerConfig, WireChecker};

use crate::conn::{accept_pending, FramedConn};
use crate::reactor::{spawn_reactor, Hosted, IoReadiness, PollStatus, ReactorCtl};
use crate::stats::CheckerProcessStats;
use crate::wire::{frame_of, CtrlMsg, InstallBody, SubmitBody};

static M_SUBMITS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_submits_total",
    "full-snapshot submissions accepted by the checker process",
);
static M_ROUNDS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_rounds_total",
    "checking rounds completed by the checker process",
);
static M_PREDICTIONS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_checker_predictions_total",
    "completed rounds that predicted a future inconsistency",
);
static M_BACKLOG: cb_obs::metrics::Gauge = cb_obs::metrics::Gauge::new(
    "cb_checker_backlog",
    "rounds submitted to the checker but not yet completed",
);

/// How long a finished round or a ctl message may wait to be noticed.
const TICK: Duration = Duration::from_millis(1);
/// Bound on flushing the last installs once the rounds are in.
const FLUSH_BOUND: Duration = Duration::from_millis(500);

/// Driver → checker-server control messages.
enum CheckerCtl {
    /// Report current counters without stopping.
    Probe(mpsc::Sender<CheckerProcessStats>),
    /// Finish in-flight rounds (bounded), push their installs, exit.
    Shutdown,
}

/// The driver-side handle of the checker process.
pub struct CheckerHandle {
    /// Listener address (nodes discover it via the registry).
    pub addr: SocketAddr,
    ctl: mpsc::Sender<CheckerCtl>,
    join: JoinHandle<Vec<CheckerProcessStats>>,
}

impl CheckerHandle {
    /// Current counters without stopping the process.
    pub fn probe(&self, timeout: Duration) -> Option<CheckerProcessStats> {
        let (tx, rx) = mpsc::channel();
        self.ctl.send(CheckerCtl::Probe(tx)).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Stops the process: drains in-flight rounds (bounded), pushes their
    /// installs, joins the thread, and returns the final counters.
    pub fn shutdown(self) -> CheckerProcessStats {
        let _ = self.ctl.send(CheckerCtl::Shutdown);
        self.join
            .join()
            .ok()
            .and_then(|mut exits| exits.pop())
            .unwrap_or_default()
    }
}

/// Boots the checker server on a loopback port.
pub fn spawn_checker<P: Protocol>(
    protocol: P,
    props: PropertySet<P>,
    config: ControllerConfig,
    drain_timeout: Duration,
) -> std::io::Result<CheckerHandle> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let (ctl, ctl_rx) = mpsc::channel();
    let reactor = spawn_reactor::<CheckerSrv<P>>("cb-live-checker".into(), TICK);
    let srv = CheckerSrv::new(protocol, props, config, listener, drain_timeout, ctl_rx);
    // One server, then no more adds: the reactor exits when it does.
    let _ = reactor.ctl.send(ReactorCtl::Add(Box::new(srv)));
    let _ = reactor.ctl.send(ReactorCtl::Stop);
    Ok(CheckerHandle {
        addr,
        ctl,
        join: reactor.join,
    })
}

/// One accepted connection and the node that introduced itself on it.
struct NodeLink {
    io: FramedConn<TcpStream>,
    node: Option<NodeId>,
}

enum RunState {
    Running,
    /// Shutdown requested: in-flight rounds are still being collected.
    Draining {
        deadline: Instant,
    },
    /// The rounds are in (or given up on): flushing their installs.
    Flushing {
        deadline: Instant,
    },
}

struct CheckerSrv<P: Protocol> {
    checker: WireChecker<P>,
    listener: TcpListener,
    conns: Vec<NodeLink>,
    /// seq → (receipt instant, node, node-clock submission stamp,
    /// observability round id).
    inflight: HashMap<u64, (Instant, NodeId, u64, u64)>,
    stats: CheckerProcessStats,
    drain_timeout: Duration,
    ctl: mpsc::Receiver<CheckerCtl>,
    run_state: RunState,
}

impl<P: Protocol> CheckerSrv<P> {
    fn new(
        protocol: P,
        props: PropertySet<P>,
        config: ControllerConfig,
        listener: TcpListener,
        drain_timeout: Duration,
        ctl: mpsc::Receiver<CheckerCtl>,
    ) -> Self {
        let pool = checker_pool(&config.engine);
        let checker = WireChecker::new(protocol, props, config, pool, None);
        M_SUBMITS.touch();
        M_ROUNDS.touch();
        M_PREDICTIONS.touch();
        M_BACKLOG.touch();
        CheckerSrv {
            checker,
            listener,
            conns: Vec::new(),
            inflight: HashMap::new(),
            stats: CheckerProcessStats::default(),
            drain_timeout,
            ctl,
            run_state: RunState::Running,
        }
    }
}

impl<P: Protocol> Hosted for CheckerSrv<P> {
    type Exit = CheckerProcessStats;

    fn poll(&mut self, now: Instant, io: IoReadiness) -> PollStatus<CheckerProcessStats> {
        // Completions before reads: a round this poll submits is collected
        // by a later poll, never by this one, so its latency on the passed
        // clock is at least one poll however fast its lane runs.
        self.push_completed(now);
        if matches!(self.run_state, RunState::Running) {
            if self.poll_ctl() {
                // Graceful drain: finish in-flight rounds (bounded) and
                // flush the resulting installs so a shutting-down
                // deployment still observes every prediction it paid for.
                self.run_state = RunState::Draining {
                    deadline: now + self.drain_timeout,
                };
            } else if io.readable {
                let accepted = accept_pending(&self.listener, cb_model::MAX_FRAME_LEN);
                self.conns
                    .extend(accepted.map(|io| NodeLink { io, node: None }));
                self.pump_reads(now);
            }
        }
        for conn in &mut self.conns {
            conn.io.flush();
        }
        self.reap_dead();
        M_BACKLOG.set(self.checker.pending());
        if let RunState::Draining { deadline } = self.run_state {
            if self.checker.pending() == 0 || now >= deadline {
                self.run_state = RunState::Flushing {
                    deadline: now + FLUSH_BOUND,
                };
            }
        }
        if let RunState::Flushing { deadline } = self.run_state {
            // Keep flushing until every live connection's queue is empty
            // (a pass can write zero bytes on a momentarily full send
            // buffer without being done).
            if now >= deadline || self.conns.iter().all(|c| c.io.is_flushed()) {
                return PollStatus::Exited(self.snapshot_stats());
            }
        }
        PollStatus::Running {
            next_wake: now + TICK,
        }
    }

    /// A drain reads nothing, so it watches only connections with
    /// installs left to write: a readable fd would spin the reactor.
    #[cfg(unix)]
    fn io_fds(&self, out: &mut Vec<(std::os::fd::RawFd, bool)>) {
        use std::os::fd::AsRawFd;
        let running = matches!(self.run_state, RunState::Running);
        if running {
            out.push((self.listener.as_raw_fd(), false));
        }
        out.extend(
            self.conns
                .iter()
                .filter(|c| !c.io.is_dead() && (running || !c.io.is_flushed()))
                .map(|c| c.io.io_fd()),
        );
    }
}

impl<P: Protocol> CheckerSrv<P> {
    /// Services the control channel; true when shutdown was requested (or
    /// the handle was dropped).
    fn poll_ctl(&mut self) -> bool {
        loop {
            match self.ctl.try_recv() {
                Ok(CheckerCtl::Probe(tx)) => {
                    let _ = tx.send(self.snapshot_stats());
                }
                Ok(CheckerCtl::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return true,
                Err(mpsc::TryRecvError::Empty) => return false,
            }
        }
    }

    fn snapshot_stats(&self) -> CheckerProcessStats {
        CheckerProcessStats {
            cache: self.checker.cache_stats(),
            ..self.stats.clone()
        }
    }

    /// Reads every connection, then dispatches: `on_frame` never adds or
    /// removes connections, so the collected indices stay valid.
    fn pump_reads(&mut self, now: Instant) {
        let mut frames: Vec<(usize, WireFrame)> = Vec::new();
        for (ix, conn) in self.conns.iter_mut().enumerate() {
            conn.io.fill();
            while let Some(payload) = conn.io.next_frame() {
                if let Ok(frame) = WireFrame::from_bytes(&payload) {
                    frames.push((ix, frame));
                }
            }
        }
        for (ix, frame) in frames {
            self.on_frame(ix, frame, now);
        }
    }

    fn on_frame(&mut self, conn_ix: usize, frame: WireFrame, now: Instant) {
        match frame.kind {
            FrameKind::Control => {
                if let Ok(CtrlMsg::Hello { node }) = CtrlMsg::from_bytes(&frame.body) {
                    self.conns[conn_ix].node = Some(node);
                }
                // Goodbye: the EOF that follows does the cleanup.
            }
            FrameKind::Submit => {
                let Ok(body) = SubmitBody::from_bytes(&frame.body) else {
                    self.stats.submits_rejected += 1;
                    return;
                };
                if body.speculative {
                    // Only completed gathers are checked: a partial one is
                    // refused and dropped, and the connection stays up.
                    self.stats.submits_rejected += 1;
                    return;
                }
                self.conns[conn_ix].node = Some(body.node);
                match self.checker.submit_delta_tagged(
                    SimTime(body.at_us),
                    body.node,
                    &body.delta,
                    body.round,
                ) {
                    Ok(seq) => {
                        cb_obs::instant_id("checker.submit_received", "checker", body.round);
                        M_SUBMITS.inc();
                        self.stats.submits_received += 1;
                        self.inflight
                            .insert(seq, (now, body.node, body.at_us, body.round));
                    }
                    Err(_) => {
                        // Out-of-order / corrupt lineage: protocol error
                        // on this connection. Drop it; the node redials
                        // with a fresh encoder.
                        self.stats.submits_rejected += 1;
                        self.conns[conn_ix].io.kill();
                    }
                }
            }
            // Nodes never send these to the checker.
            FrameKind::Service | FrameKind::Snap | FrameKind::FilterInstall => {}
        }
    }

    /// Folds the rounds the pool has completed into install pushes.
    fn push_completed(&mut self, now: Instant) {
        for round in self.checker.try_rounds() {
            M_ROUNDS.inc();
            self.stats.rounds_completed += 1;
            if round.violation.is_some() {
                M_PREDICTIONS.inc();
                self.stats.predictions += 1;
            }
            let (node, at_us, obs_round) = match self.inflight.remove(&round.seq) {
                Some((recv, node, at_us, obs_round)) => {
                    self.stats
                        .round_latency
                        .record(now.saturating_duration_since(recv).as_micros() as u64);
                    (node, at_us, obs_round)
                }
                None => (round.node, 0, 0),
            };
            cb_obs::instant_id("checker.install_push", "checker", obs_round);
            // §2's operator notification, as a first-class alert: a
            // predicted (not yet occurred) violation, joinable to the
            // chrome trace by the shared round id.
            if let Some(v) = round.violation.as_ref() {
                cb_obs::health::predicted_violation(
                    obs_round,
                    node.0,
                    &v.property,
                    round.depth.map(|d| d as u64),
                );
            }
            // Push the round's outcome — including an empty filter set,
            // which tells the node to expire the previous round's filters
            // (§3.3).
            let body = InstallBody {
                seq: round.seq,
                at_us,
                round: obs_round,
                filters: round.filters.to_bytes(),
            };
            let frame = frame_of(NodeId::DUMMY, node, 0, FrameKind::FilterInstall, &body);
            if let Some(conn) = self
                .conns
                .iter_mut()
                .find(|c| c.node == Some(node) && !c.io.is_dead())
            {
                conn.io.queue(&frame);
                // Counted only when the push was actually queued to a live
                // connection — a churned-away node's install is dropped.
                if !round.filters.is_empty() {
                    self.stats.installs_sent += 1;
                }
            }
        }
    }

    fn reap_dead(&mut self) {
        let mut gone = Vec::new();
        self.conns.retain(|c| {
            gone.extend(c.node.filter(|_| c.io.is_dead()));
            !c.io.is_dead()
        });
        // A reconnecting node starts a fresh delta lineage; drop ours so
        // the streams stay in lockstep. Only if no other live conn claims
        // the node (reconnects can briefly overlap).
        for node in gone {
            if !self.conns.iter().any(|c| c.node == Some(node)) {
                self.checker.forget_node(node);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read, Write};

    use cb_model::testproto::{max_pings_property, Ping};
    use cb_model::{push_frame, GlobalState};
    use cb_snapshot::DeltaEncoder;

    use super::*;

    /// The server polled by hand, each poll an hour after the last on the
    /// passed clock and a millisecond after it on the wall's: the one
    /// round's latency must come out in whole hours.
    #[test]
    fn round_latency_is_measured_on_the_passed_clock() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (_ctl, ctl_rx) = mpsc::channel();
        let proto = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let t0 = Instant::now();
        let mut srv = CheckerSrv::new(
            proto.clone(),
            PropertySet::new().with(max_pings_property(1)),
            crate::live_checker_config(5_000, 4, 1),
            listener,
            Duration::from_secs(30),
            ctl_rx,
        );

        let mut client = TcpStream::connect(addr).unwrap();
        let body = SubmitBody {
            node: NodeId(0),
            at_us: 0,
            speculative: false,
            round: 9,
            delta: DeltaEncoder::new().encode_state(&GlobalState::init(&proto, (0..3).map(NodeId))),
        };
        let mut out = Vec::new();
        let frame = frame_of(NodeId(0), NodeId::DUMMY, 0, FrameKind::Submit, &body);
        push_frame(&mut out, &frame);
        client.write_all(&out).unwrap();

        let hour = Duration::from_secs(3600);
        let (mut received, mut completed) = (None, None);
        for k in 0..10_000u32 {
            let now = t0 + hour * k;
            let PollStatus::Running { next_wake } = srv.poll(now, IoReadiness::all()) else {
                panic!("the server exited");
            };
            assert_eq!(next_wake, now + TICK);
            if received.is_none() && srv.stats.submits_received == 1 {
                received = Some(k);
            }
            if srv.stats.rounds_completed == 1 {
                completed = Some(k);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let received = received.expect("the submission arrived");
        let completed = completed.expect("the round completed");
        assert!(
            completed > received,
            "a round is collected by a later poll than the one that queued it"
        );
        let latency = srv.stats.round_latency;
        assert_eq!(latency.count, 1);
        assert_eq!(
            latency.max_us,
            u64::from(completed - received) * 3_600_000_000
        );
    }

    /// A submission flagged speculative is refused and dropped — counted
    /// in `submits_rejected`, no round queued, no install pushed — and
    /// the connection stays up: the real submission that follows on it is
    /// accepted, and its install is the first frame the node receives.
    #[test]
    fn a_speculative_submit_is_refused_and_the_connection_kept() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (_ctl, ctl_rx) = mpsc::channel();
        let proto = Ping {
            kick_target: NodeId(0),
            kick_enabled: true,
        };
        let mut srv = CheckerSrv::new(
            proto.clone(),
            PropertySet::new().with(max_pings_property(1)),
            crate::live_checker_config(5_000, 4, 1),
            listener,
            Duration::from_secs(30),
            ctl_rx,
        );
        let poll_until = |srv: &mut CheckerSrv<Ping>, done: &dyn Fn(&CheckerSrv<Ping>) -> bool| {
            for _ in 0..10_000 {
                srv.poll(Instant::now(), IoReadiness::all());
                if done(srv) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            panic!("the server never got there: {:?}", srv.stats);
        };
        let gs = GlobalState::init(&proto, (0..3).map(NodeId));
        let submit = |speculative: bool, round: u64| {
            let body = SubmitBody {
                node: NodeId(0),
                at_us: round,
                speculative,
                round,
                delta: DeltaEncoder::new().encode_state(&gs),
            };
            let mut out = Vec::new();
            push_frame(
                &mut out,
                &frame_of(NodeId(0), NodeId::DUMMY, 0, FrameKind::Submit, &body),
            );
            out
        };

        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&submit(true, 7)).unwrap();
        poll_until(&mut srv, &|srv| srv.stats.submits_rejected == 1);
        for _ in 0..20 {
            srv.poll(Instant::now(), IoReadiness::all());
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(srv.stats.submits_received, 0);
        assert_eq!(srv.checker.pending(), 0, "no round was queued");
        assert!(srv.inflight.is_empty());
        assert_eq!(srv.stats.rounds_completed, 0);
        client.set_nonblocking(true).unwrap();
        let mut byte = [0u8; 1];
        assert_eq!(
            client.read(&mut byte).map_err(|e| e.kind()).unwrap_err(),
            std::io::ErrorKind::WouldBlock,
            "nothing was pushed and the connection is open"
        );
        client.set_nonblocking(false).unwrap();

        client.write_all(&submit(false, 9)).unwrap();
        poll_until(&mut srv, &|srv| srv.stats.rounds_completed == 1);
        assert_eq!(srv.stats.submits_received, 1);
        assert_eq!(srv.stats.submits_rejected, 1);
        client
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut inbuf = cb_model::FrameBuffer::new(cb_model::MAX_FRAME_LEN);
        let payload = loop {
            if let Some(payload) = inbuf.next_frame().unwrap() {
                break payload;
            }
            let mut chunk = [0u8; 4096];
            let n = client.read(&mut chunk).expect("the install arrives");
            assert!(n > 0, "the checker closed the connection");
            inbuf.feed(&chunk[..n]);
        };
        let frame = WireFrame::from_bytes(&payload).unwrap();
        assert_eq!(frame.kind, FrameKind::FilterInstall);
        let install = InstallBody::from_bytes(&frame.body).unwrap();
        assert_eq!((install.seq, install.round), (1, 9), "{install:?}");
    }
}
