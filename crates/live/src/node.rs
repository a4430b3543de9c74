//! The live node as a **pollable state machine**: no thread of its own,
//! no blocking calls — a reactor ([`crate::reactor`]) drives many of
//! these per OS thread through [`LiveNode::poll`].
//!
//! Each node owns exactly what a deployed CrystalBall node owns (§4):
//! its protocol state, its timers, its [`cb_snapshot::CheckpointManager`],
//! its installed event filters, and its sockets (behind a
//! [`PeerManager`]). Everything it learns about the rest of the system
//! arrives as bytes — service messages stamped with the sender's
//! checkpoint number, snapshot requests and replies, and filter-install
//! pushes from the checker process. The *same handler code* the
//! simulator and the model checker execute runs here, invoked from the
//! socket receive path instead of a discrete-event queue.
//!
//! One [`LiveNode::poll`] call runs one iteration of what used to be the
//! thread-per-node loop: accept + drain readable sockets (when the
//! reactor says they are readable), fire due timers, run the
//! checkpoint/gather schedule, release fault-delayed frames, service the
//! control channel, flush writable sockets, reap dead connections — then
//! report when it next needs waking. Graceful shutdown is a state
//! (`Draining`), not a blocking flush, so a reactor multiplexing dozens
//! of nodes never stalls on one node's goodbye.
//!
//! The node owns no clock: timers, schedules, backoff and latency stamps
//! all come from the `now` passed to `new` and to each `poll`, so whoever
//! drives `poll` decides what time it is.

use std::collections::HashMap;
use std::net::{IpAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use cb_mc::EventFilter;
use cb_model::{
    Decode, Encode, EventKey, FrameKind, GlobalState, NodeId, NodeSlot, Outbox, PropertySet,
    Protocol, Schedule, SimTime, WireFrame,
};
use cb_net::{decide, FaultDecision, LiveFault};
use cb_snapshot::{CheckpointManager, DeltaEncoder, SnapMsg, SnapshotConfig, SnapshotStats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use crate::registry::{Addressing, Registry};

use crate::peer::{DeadConn, InFrame, PeerConfig, PeerManager, SendOutcome};
use crate::reactor::{Hosted, IoReadiness, PollStatus};
use crate::stats::NodeStats;
use crate::wire::{frame_of, CtrlMsg, InstallBody, SubmitBody};

static M_SUBMITS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_node_submits_total",
    "neighborhood-snapshot submissions nodes queued to the checker",
);
static M_INSTALLS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_node_installs_total",
    "filter-install pushes nodes received from the checker",
);
static M_GATHER_INSTALL_US: cb_obs::metrics::Hist = cb_obs::metrics::Hist::new(
    "cb_node_gather_install_us",
    "microseconds from gather start to the matching install receipt",
);

/// The deployment-wide fault table: socket-level injector stacks keyed by
/// node pair. This is where `cb-fleet`'s abstract fault model lands in
/// the live runtime — a partition is not a flag in a simulated network
/// model but a sender-side refusal to write the frame, a degradation a
/// probabilistic drop plus a scheduler-level delay before the write.
#[derive(Debug, Default)]
pub struct LinkTable {
    links: Mutex<HashMap<(u32, u32), Vec<LiveFault>>>,
}

fn pair(a: NodeId, b: NodeId) -> (u32, u32) {
    (a.0.min(b.0), a.0.max(b.0))
}

impl LinkTable {
    /// An empty (fully connected) table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs an injector stack on the pair (an empty stack heals it).
    pub fn set_faults(&self, a: NodeId, b: NodeId, faults: Vec<LiveFault>) {
        let mut l = self.links.lock().expect("links");
        if faults.is_empty() {
            l.remove(&pair(a, b));
        } else {
            l.insert(pair(a, b), faults);
        }
    }

    /// The pair's current injector stack (empty when healed).
    pub fn faults_for(&self, a: NodeId, b: NodeId) -> Vec<LiveFault> {
        self.links
            .lock()
            .expect("links")
            .get(&pair(a, b))
            .cloned()
            .unwrap_or_default()
    }
}

/// Live-node tuning. Intervals are wall-clock; protocol timer periods
/// (which are [`cb_model::SimDuration`]s) are mapped onto the wall clock
/// via `time_scale`, so a 2-simulated-second recovery timer fires every
/// `2s * time_scale` of real time — tests compress time, a real
/// deployment would run at `time_scale = 1.0`.
#[derive(Clone, Debug)]
pub struct LiveNodeConfig {
    /// Checkpoint-manager tuning (quota, compression, diffs, bandwidth).
    pub snapshot: SnapshotConfig,
    /// Wall period of spontaneous local checkpoints.
    pub checkpoint_interval: Duration,
    /// Wall period of neighborhood snapshot gathers.
    pub gather_interval: Duration,
    /// Liveness bound on one gather round: when it expires, still-waiting
    /// peers are declared failed (one retry round if the gather was
    /// nacked, then give up) so a dead peer cannot wedge the requester.
    pub gather_timeout: Duration,
    /// Scheduling granularity: the ceiling a reactor puts on its sleep so
    /// control-channel traffic (which `poll(2)` cannot watch) is serviced
    /// promptly.
    pub tick: Duration,
    /// Wall seconds per simulated second for protocol timer periods.
    pub time_scale: f64,
    /// Per-frame payload ceiling (defensive decode bound).
    pub max_frame_len: usize,
    /// Check node-local safety properties after every handler and count
    /// violating samples (the live analogue of the simulator's
    /// `track_violations`).
    pub self_check: bool,
    /// Has no effect: a node submits only completed gathers, and nothing
    /// reads this field. Kept only because the benchmark crate
    /// (`benchmark/`) names it in a struct literal; it goes when that
    /// crate stops naming it.
    pub speculate_partial_gathers: bool,
    /// Connection-lifecycle policy (caps, backoff, backpressure).
    pub peer: PeerConfig,
    /// Address node listeners bind (loopback by default; set to a
    /// routable interface for cross-host deployments).
    pub bind_ip: IpAddr,
}

impl Default for LiveNodeConfig {
    fn default() -> Self {
        LiveNodeConfig {
            snapshot: SnapshotConfig::default(),
            checkpoint_interval: Duration::from_millis(150),
            gather_interval: Duration::from_millis(200),
            gather_timeout: Duration::from_millis(400),
            tick: Duration::from_millis(1),
            time_scale: 0.05,
            max_frame_len: cb_model::MAX_FRAME_LEN,
            self_check: true,
            speculate_partial_gathers: false,
            peer: PeerConfig::default(),
            bind_ip: IpAddr::from([127, 0, 0, 1]),
        }
    }
}

/// What a node reports when it exits (or is probed mid-run).
#[derive(Clone, Debug)]
pub struct NodeReport<P: Protocol> {
    /// The node's final (or current) slot: protocol state, incarnation,
    /// connection table.
    pub slot: NodeSlot<P::State>,
    /// Event-loop counters.
    pub stats: NodeStats,
    /// Checkpoint-manager bandwidth counters.
    pub snapshot: SnapshotStats,
    /// Filters installed at report time.
    pub filters: Vec<EventFilter>,
}

/// Driver → node control messages.
pub enum NodeCtl<P: Protocol> {
    /// Run an application call (workload injection, churn rejoin).
    Inject(P::Action),
    /// Graceful drain: Goodbye peers, flush sockets, report, exit.
    Shutdown,
    /// Abrupt death: drop everything on the floor, exit. Peers observe
    /// broken connections; this is the churn injector's kill.
    Kill,
    /// Report current state and counters without exiting.
    Probe(mpsc::Sender<NodeReport<P>>),
}

/// How a node left its reactor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitKind {
    /// Drained and flushed after a `Shutdown` (or a dropped control
    /// channel).
    Graceful,
    /// Killed abruptly; the report reflects volatile state that a real
    /// crash would lose.
    Killed,
}

/// One node's exit, as collected by its reactor.
pub struct NodeExit<P: Protocol> {
    /// The node that exited.
    pub id: NodeId,
    /// How it left.
    pub kind: ExitKind,
    /// Its final report.
    pub report: Box<NodeReport<P>>,
}

/// Everything needed to construct a [`LiveNode`] — built by the
/// deployment (which binds and registers the listener first, so peers can
/// dial the address before the reactor ever polls the node) and shipped
/// to a reactor thread.
pub struct NodeSeed<P: Protocol> {
    /// The protocol implementation.
    pub protocol: P,
    /// Safety properties for self-checks.
    pub props: PropertySet<P>,
    /// The node's id.
    pub id: NodeId,
    /// Incarnation number (bumped on churn restarts).
    pub incarnation: u32,
    /// Tuning.
    pub config: LiveNodeConfig,
    /// Address resolution (in-process or remote).
    pub registry: Arc<dyn Addressing>,
    /// The deployment's fault table.
    pub links: Arc<LinkTable>,
    /// The already-bound, already-registered, non-blocking listener.
    pub listener: TcpListener,
    /// Control channel out of the driver.
    pub ctl: mpsc::Receiver<NodeCtl<P>>,
    /// Deployment seed (jitter streams derive from it).
    pub seed: u64,
    /// Flipped to false when the node exits (the driver's liveness view).
    pub alive: Arc<AtomicBool>,
}

enum LoopOutcome {
    Continue,
    Graceful,
    Killed,
}

enum RunState {
    Running,
    Draining { deadline: Instant },
}

/// What a fault-shaped frame is, for stat accounting at delivery time.
#[derive(Clone, Copy)]
enum ShipStat {
    Service,
    Snap { bytes: u64 },
}

struct Delayed {
    release_at: Instant,
    dst: NodeId,
    frame: Vec<u8>,
    stat: ShipStat,
}

/// One live protocol node as a pollable state machine.
pub struct LiveNode<P: Protocol> {
    me: NodeId,
    proto: P,
    props: PropertySet<P>,
    slot: NodeSlot<P::State>,
    mgr: CheckpointManager,
    cfg: LiveNodeConfig,
    registry: Arc<dyn Addressing>,
    links: Arc<LinkTable>,
    listener: TcpListener,
    peers: PeerManager,
    delta_enc: DeltaEncoder,
    /// Hash of the last submitted neighborhood state: a snapshot identical
    /// to the previous round's would re-run the same search to the same
    /// conclusion (the same dedup the in-process controller applies), and
    /// live it would also *flood* the checker — gathers run on a wall
    /// clock regardless of whether anything changed.
    last_submit_hash: Option<u64>,
    /// Gather-start timestamps of the in-progress gather: node-clock µs
    /// plus obs-clock µs (0 when tracing is off). Claimed by the
    /// completing `poll_snapshot`.
    gather_started: Option<(u64, u64)>,
    /// Start timestamps of rounds whose submission is in flight, keyed by
    /// the round id the install push echoes back — what turns the
    /// checker's answer into a measured gather→install latency sample.
    round_started: HashMap<u64, (u64, u64)>,
    filters: Vec<EventFilter>,
    timers: HashMap<P::Action, Instant>,
    /// Fault-delayed frames awaiting their release instant.
    delayed: Vec<Delayed>,
    rng: StdRng,
    /// The `now` of the current (or last) `poll` — this node's only clock.
    now: Instant,
    epoch: Instant,
    next_checkpoint: Instant,
    next_gather: Instant,
    gather_deadline: Option<Instant>,
    ctl: mpsc::Receiver<NodeCtl<P>>,
    run_state: RunState,
    alive: Arc<AtomicBool>,
    stats: NodeStats,
    /// Scratch for frame dispatch (reused across polls).
    inbox: Vec<InFrame>,
}

impl<P: Protocol> Hosted for LiveNode<P> {
    type Exit = NodeExit<P>;

    #[cfg(unix)]
    fn io_fds(&self, out: &mut Vec<(std::os::fd::RawFd, bool)>) {
        use std::os::fd::AsRawFd;
        out.push((self.listener.as_raw_fd(), false));
        self.peers.io_fds(out);
    }

    fn poll(&mut self, now: Instant, io: IoReadiness) -> PollStatus<NodeExit<P>> {
        let _span = cb_obs::span_id("reactor.node_poll", "live", u64::from(self.me.0));
        self.now = now;
        if let RunState::Draining { deadline } = self.run_state {
            // Drains still honor Kill (a churn event may land mid-drain);
            // everything else is ignored — the node is past its last
            // handler.
            loop {
                match self.ctl.try_recv() {
                    Ok(NodeCtl::Kill) => return self.exit(ExitKind::Killed),
                    Ok(_) => {}
                    Err(_) => break,
                }
            }
            self.peers.flush(&mut self.stats);
            if now >= deadline || self.peers.outbufs_empty() {
                return self.exit(ExitKind::Graceful);
            }
            return PollStatus::Running {
                next_wake: (now + Duration::from_micros(200)).min(deadline),
            };
        }
        if io.readable {
            self.peers.accept(&self.listener, &mut self.stats);
            self.pump_reads();
        }
        self.fire_timers();
        self.snapshot_schedule();
        self.release_delayed(now);
        match self.poll_ctl() {
            LoopOutcome::Continue => {}
            LoopOutcome::Graceful => {
                self.begin_drain(now);
                self.peers.flush(&mut self.stats);
                return PollStatus::Running {
                    next_wake: now + Duration::from_micros(200),
                };
            }
            LoopOutcome::Killed => return self.exit(ExitKind::Killed),
        }
        self.peers.flush(&mut self.stats);
        self.reap_dead();
        PollStatus::Running {
            next_wake: self.next_wake(now),
        }
    }
}

impl<P: Protocol> LiveNode<P> {
    /// Builds the state machine from its seed, with `now` as its epoch. No
    /// IO happens here beyond what the seed already did (the listener is
    /// bound and registered by the deployment first).
    pub fn new(seed: NodeSeed<P>, now: Instant) -> Self {
        M_SUBMITS.touch();
        M_INSTALLS.touch();
        M_GATHER_INSTALL_US.touch();
        let NodeSeed {
            protocol,
            props,
            id,
            incarnation,
            config,
            registry,
            links,
            listener,
            ctl,
            seed,
            alive,
        } = seed;
        let mut slot = NodeSlot::new(protocol.init(id));
        slot.incarnation = incarnation;
        let mgr = CheckpointManager::new(id, config.snapshot.clone());
        let mut peer_cfg = config.peer.clone();
        peer_cfg.max_frame_len = config.max_frame_len;
        let mut node = LiveNode {
            me: id,
            proto: protocol,
            props,
            slot,
            mgr,
            next_checkpoint: now + config.checkpoint_interval,
            next_gather: now + config.gather_interval,
            peers: PeerManager::new(peer_cfg),
            cfg: config,
            registry,
            links,
            listener,
            delta_enc: DeltaEncoder::new(),
            last_submit_hash: None,
            gather_started: None,
            round_started: HashMap::new(),
            filters: Vec::new(),
            timers: HashMap::new(),
            delayed: Vec::new(),
            rng: StdRng::seed_from_u64(seed ^ (0x11EE_u64 << 32) ^ u64::from(id.0)),
            now,
            epoch: now,
            gather_deadline: None,
            ctl,
            run_state: RunState::Running,
            alive,
            stats: NodeStats::default(),
            inbox: Vec::new(),
        };
        node.reconcile_timers();
        node
    }

    fn exit(&mut self, kind: ExitKind) -> PollStatus<NodeExit<P>> {
        if matches!(kind, ExitKind::Killed) {
            // Abrupt: sockets drop on the floor; peers see RSTs or EOFs
            // and run their failure handlers.
            self.peers.clear();
        }
        self.alive.store(false, Ordering::Relaxed);
        PollStatus::Exited(NodeExit {
            id: self.me,
            kind,
            report: Box::new(self.report()),
        })
    }

    fn next_wake(&self, now: Instant) -> Instant {
        let mut w = self.next_checkpoint.min(self.next_gather);
        if let Some(d) = self.gather_deadline {
            w = w.min(d);
        }
        for at in self.timers.values() {
            w = w.min(*at);
        }
        for d in &self.delayed {
            w = w.min(d.release_at);
        }
        if !self.peers.outbufs_empty() {
            // Unflushed output: retry soon rather than wait out a timer.
            w = w.min(now + Duration::from_micros(200));
        }
        w.max(now)
    }

    fn report(&mut self) -> NodeReport<P> {
        self.stats.filters_installed = self.filters.len() as u64;
        NodeReport {
            slot: self.slot.clone(),
            stats: self.stats.clone(),
            snapshot: self.mgr.snapshot_stats(),
            filters: self.filters.clone(),
        }
    }

    /// Microseconds from adoption to the current poll's `now` — the
    /// node-clock stamp on submissions, installs and gathers.
    fn elapsed_us(&self) -> u64 {
        self.now.saturating_duration_since(self.epoch).as_micros() as u64
    }

    fn wall_of(&self, d: cb_model::SimDuration) -> Duration {
        Duration::from_secs_f64((d.as_secs_f64() * self.cfg.time_scale).max(1e-4))
    }

    // ---- control channel ------------------------------------------------

    fn poll_ctl(&mut self) -> LoopOutcome {
        loop {
            match self.ctl.try_recv() {
                Ok(NodeCtl::Inject(action)) => self.run_action(action, true),
                Ok(NodeCtl::Probe(tx)) => {
                    let report = self.report();
                    let _ = tx.send(report);
                }
                Ok(NodeCtl::Shutdown) => return LoopOutcome::Graceful,
                Ok(NodeCtl::Kill) => return LoopOutcome::Killed,
                Err(mpsc::TryRecvError::Empty) => return LoopOutcome::Continue,
                // Driver dropped the handle: treat as graceful shutdown.
                Err(mpsc::TryRecvError::Disconnected) => return LoopOutcome::Graceful,
            }
        }
    }

    /// Queues Goodbyes and enters the draining state. The flush itself is
    /// poll-driven (bounded by the drain deadline), so many nodes on one
    /// reactor drain concurrently.
    fn begin_drain(&mut self, now: Instant) {
        for p in self.peers.goodbye_targets() {
            let f = frame_of(
                self.me,
                p,
                self.mgr.stamp_out(),
                FrameKind::Control,
                &CtrlMsg::Goodbye,
            );
            // Existing connection by construction; queued uncounted, like
            // PR 5's goodbye path.
            self.peers
                .queue_to_peer(p, &f, now, &mut self.stats, || None, Vec::new);
        }
        if let Some(ix) = self.peers.checker_ix() {
            let f = frame_of(
                self.me,
                NodeId::DUMMY,
                0,
                FrameKind::Control,
                &CtrlMsg::Goodbye,
            );
            self.peers.push_frame_to(ix, &f);
        }
        self.run_state = RunState::Draining {
            deadline: now + Duration::from_millis(500),
        };
    }

    // ---- sockets --------------------------------------------------------

    fn pump_reads(&mut self) {
        let mut inbox = std::mem::take(&mut self.inbox);
        inbox.clear();
        self.peers.read_frames(&mut self.stats, &mut inbox);
        for f in &inbox {
            self.on_frame(f.conn, f.frame.clone());
        }
        self.inbox = inbox;
    }

    /// Removes dead connections, running failure handling for peers that
    /// did not announce a graceful close and have no surviving connection.
    fn reap_dead(&mut self) {
        for dc in self.peers.take_dead() {
            match dc {
                DeadConn::Checker => {
                    // Lineage broken: the checker forgets us on
                    // disconnect, so the next submit must restart the
                    // delta stream.
                    self.delta_enc = DeltaEncoder::new();
                }
                DeadConn::Peer { peer, draining } => {
                    self.mgr.peer_failed(peer);
                    self.poll_snapshot();
                    if !draining {
                        // A broken (not drained) connection is the TCP RST
                        // signal the protocols' failure-handling code
                        // reacts to (§3.3).
                        self.stats.errors_observed += 1;
                        let mut out = Outbox::new();
                        self.proto
                            .on_error(self.me, &mut self.slot.state, peer, &mut out);
                        self.slot.conns.remove(&peer);
                        self.apply_outbox(out);
                        self.self_check();
                        // The failure transition may have enabled actions
                        // (e.g. a recovery timer after a parent death).
                        self.reconcile_timers();
                    } else {
                        self.slot.conns.remove(&peer);
                    }
                }
            }
        }
    }

    /// Queues `frame` to `peer` through the manager, wiring the dial-time
    /// Hello and slot bookkeeping.
    fn queue_peer_frame(&mut self, peer: NodeId, frame: &[u8]) -> SendOutcome {
        let now = self.now;
        let registry = &self.registry;
        let me = self.me;
        let cn = self.mgr.stamp_out();
        let outcome = self.peers.queue_to_peer(
            peer,
            frame,
            now,
            &mut self.stats,
            || registry.lookup(peer),
            || {
                frame_of(
                    me,
                    peer,
                    cn,
                    FrameKind::Control,
                    &CtrlMsg::Hello { node: me },
                )
            },
        );
        if outcome == SendOutcome::Dialed {
            // Opening a connection registers the peer in the slot's
            // connection table (what the checker's reset exploration and
            // the neighborhood heuristic read).
            self.slot.conns.entry(peer).or_insert(0);
        }
        outcome
    }

    /// Finds (or dials) the checker connection, restarting the delta
    /// lineage when the connection is fresh.
    fn checker_conn(&mut self) -> Option<usize> {
        let registry = &self.registry;
        let me = self.me;
        let (ix, new) = self.peers.ensure_checker(
            &mut self.stats,
            || registry.checker(),
            || {
                frame_of(
                    me,
                    NodeId::DUMMY,
                    0,
                    FrameKind::Control,
                    &CtrlMsg::Hello { node: me },
                )
            },
        )?;
        if new {
            self.delta_enc = DeltaEncoder::new();
            self.last_submit_hash = None;
        }
        Some(ix)
    }

    /// Closes every connection to `peer`. The peer's next read observes
    /// EOF and runs its transport-error handling — exactly the "reset the
    /// connection" corrective of §3.3.
    fn close_peer(&mut self, peer: NodeId) {
        self.peers.close_peer(peer);
        self.slot.conns.remove(&peer);
        self.mgr.peer_failed(peer);
        self.poll_snapshot();
    }

    // ---- frame dispatch -------------------------------------------------

    fn on_frame(&mut self, conn_ix: usize, frame: WireFrame) {
        match frame.kind {
            FrameKind::Control => {
                if let Ok(msg) = CtrlMsg::from_bytes(&frame.body) {
                    match msg {
                        CtrlMsg::Hello { node } => {
                            self.peers.mark_peer(conn_ix, node);
                            self.slot.conns.entry(node).or_insert(0);
                        }
                        CtrlMsg::Goodbye => self.peers.mark_draining(conn_ix),
                    }
                }
            }
            FrameKind::Service => self.on_service(frame),
            FrameKind::Snap => self.on_snap(frame),
            FrameKind::FilterInstall => self.on_install(conn_ix, frame),
            // Nodes never serve submissions.
            FrameKind::Submit => {}
        }
    }

    fn on_service(&mut self, frame: WireFrame) {
        if frame.dst != self.me {
            return;
        }
        let Ok(msg) = P::Message::from_bytes(&frame.body) else {
            return;
        };
        let key = EventKey::Message {
            kind: P::message_kind(&msg),
            src: frame.src,
            dst: self.me,
        };
        if let Some(f) = self.filters.iter().find(|f| f.matches(&key)) {
            // The steering effect: a wire-installed filter blocks the
            // handler before it runs (§3.3/§4).
            self.stats.filter_hits += 1;
            if f.resets_connection() {
                self.close_peer(frame.src);
            }
            return;
        }
        // §2.3: forced checkpoint *before* the handler processes the
        // message with a higher piggybacked cn. The state encode is paid
        // only when the checkpoint will actually be taken — for the vast
        // majority of messages `frame.cn ≤ cn` and the bytes would be
        // discarded.
        if frame.cn > self.mgr.cn() {
            let state_bytes = self.slot.to_bytes();
            self.mgr.note_incoming(frame.cn, &state_bytes);
        }
        let mut out = Outbox::new();
        self.proto
            .on_message(self.me, &mut self.slot.state, frame.src, &msg, &mut out);
        self.stats.service_delivered += 1;
        self.stats.actions_executed += 1;
        self.apply_outbox(out);
        self.self_check();
        self.reconcile_timers();
    }

    fn on_snap(&mut self, frame: WireFrame) {
        if frame.dst != self.me {
            return;
        }
        let Ok(msg) = SnapMsg::from_bytes(&frame.body) else {
            return;
        };
        self.stats.snap_frames += 1;
        self.stats.snapshot_wire_bytes += frame.body.len() as u64;
        let state_bytes = self.slot.to_bytes();
        let now = SimTime(self.elapsed_us());
        let replies = self.mgr.handle(now, frame.src, &msg, &state_bytes);
        for (dst, m) in replies {
            self.send_snap(dst, &m);
        }
        self.poll_snapshot();
    }

    fn on_install(&mut self, conn_ix: usize, frame: WireFrame) {
        // Installs are only honored over the connection this node dialed
        // to the checker; a peer node cannot push filters.
        if frame.dst != self.me || !self.peers.is_checker(conn_ix) {
            return;
        }
        let Ok(body) = InstallBody::from_bytes(&frame.body) else {
            return;
        };
        let Ok(filters) = EventFilter::decode_list(
            &body.filters,
            self.proto.message_kinds(),
            self.proto.action_kinds(),
        ) else {
            return;
        };
        // Round semantics (§3.3): every completed checking round replaces
        // the node's previous filters — including with the empty set.
        // Replay rounds reinstate one filter per remembered path, so the
        // push may carry duplicates; installation dedupes.
        self.filters.clear();
        for f in filters {
            if f.install_at() == self.me && !self.filters.contains(&f) {
                self.filters.push(f);
            }
        }
        M_INSTALLS.inc();
        self.stats.installs_received += 1;
        self.stats.filters_installed = self.filters.len() as u64;
        let latency = self.elapsed_us().saturating_sub(body.at_us);
        self.stats.install_latency.record(latency);
        cb_obs::instant_id("node.install", "live", body.round);
        // Close the paper's whole loop: the matching gather's start was
        // stashed under this round id at submit time, so the install
        // receipt turns into one gather→install latency sample (and,
        // when tracing, one end-to-end span joined to the checker's
        // round spans by the id).
        if let Some((start_us, obs_start)) = self.round_started.remove(&body.round) {
            let us = self.elapsed_us().saturating_sub(start_us);
            M_GATHER_INSTALL_US.observe(us);
            self.stats.gather_to_install.record(us);
            if obs_start != 0 {
                cb_obs::complete_span("round.gather_to_install", "live", body.round, obs_start);
            }
        }
    }

    // ---- handlers and timers -------------------------------------------

    fn apply_outbox(&mut self, out: Outbox<P::Message>) {
        let (sends, closes) = out.into_parts();
        for (dst, msg) in sends {
            self.send_service(dst, &msg);
        }
        for peer in closes {
            self.close_peer(peer);
        }
    }

    fn send_service(&mut self, dst: NodeId, msg: &P::Message) {
        if dst == self.me {
            // Loopback delivery without the socket: run the handler now.
            let mut out = Outbox::new();
            let m = msg.clone();
            self.proto
                .on_message(self.me, &mut self.slot.state, self.me, &m, &mut out);
            self.stats.service_delivered += 1;
            self.stats.actions_executed += 1;
            self.apply_outbox(out);
            self.self_check();
            return;
        }
        let frame = frame_of(self.me, dst, self.mgr.stamp_out(), FrameKind::Service, msg);
        self.ship(dst, frame, ShipStat::Service);
    }

    fn send_snap(&mut self, dst: NodeId, msg: &SnapMsg) {
        let bytes = msg.encoded_len() as u64;
        let frame = frame_of(self.me, dst, self.mgr.stamp_out(), FrameKind::Snap, msg);
        self.ship(dst, frame, ShipStat::Snap { bytes });
    }

    /// Runs the link's fault stack over one outbound frame: drop it,
    /// delay it, duplicate it — then deliver whatever survives.
    fn ship(&mut self, dst: NodeId, mut frame: Vec<u8>, stat: ShipStat) {
        let faults = self.links.faults_for(self.me, dst);
        let d = if faults.is_empty() {
            FaultDecision::pass()
        } else {
            decide(&faults, &mut self.rng)
        };
        if d.drop {
            // For snapshots, the gather learns about the black hole via
            // its timeout.
            self.stats.frames_dropped_fault += 1;
            return;
        }
        if d.copies > 1 {
            self.stats.frames_duplicated += u64::from(d.copies - 1);
        }
        if d.reordered {
            self.stats.frames_reordered += 1;
        }
        if d.delay.is_zero() {
            for _ in 0..d.copies {
                self.deliver(dst, &frame, stat);
            }
            return;
        }
        self.stats.frames_delayed += 1;
        let release_at = self.now + d.delay;
        for copy in 0..d.copies {
            let payload = if copy + 1 == d.copies {
                std::mem::take(&mut frame)
            } else {
                frame.clone()
            };
            self.delayed.push(Delayed {
                release_at,
                dst,
                frame: payload,
                stat,
            });
        }
    }

    /// Releases fault-delayed frames whose instant has come.
    fn release_delayed(&mut self, now: Instant) {
        if self.delayed.is_empty() {
            return;
        }
        let mut held = Vec::with_capacity(self.delayed.len());
        let due: Vec<Delayed> = std::mem::take(&mut self.delayed)
            .into_iter()
            .filter_map(|d| {
                if d.release_at <= now {
                    Some(d)
                } else {
                    held.push(d);
                    None
                }
            })
            .collect();
        self.delayed = held;
        for d in due {
            self.deliver(d.dst, &d.frame, d.stat);
        }
    }

    /// Queues one frame for real, counting by kind; a failed route runs
    /// the transport-error path.
    fn deliver(&mut self, dst: NodeId, frame: &[u8], stat: ShipStat) {
        match self.queue_peer_frame(dst, frame) {
            SendOutcome::Queued | SendOutcome::Dialed => {
                self.stats.frames_sent += 1;
                match stat {
                    ShipStat::Service => self.stats.service_sent += 1,
                    ShipStat::Snap { bytes } => {
                        // Counted only once actually queued — a failed
                        // dial never touches the socket, and the §3.1
                        // wire-overhead numbers must not include it.
                        self.stats.snap_frames += 1;
                        self.stats.snapshot_wire_bytes += bytes;
                    }
                }
            }
            SendOutcome::Backpressured => {
                // Dropped under backpressure: the link is up but the peer
                // is not draining its socket. Not a transport error.
            }
            SendOutcome::Unreachable => {
                // Dial failed: the peer is gone. That is a transport
                // error.
                self.peer_unreachable(dst);
            }
        }
    }

    fn peer_unreachable(&mut self, peer: NodeId) {
        self.stats.errors_observed += 1;
        let mut out = Outbox::new();
        self.proto
            .on_error(self.me, &mut self.slot.state, peer, &mut out);
        self.slot.conns.remove(&peer);
        self.mgr.peer_failed(peer);
        self.apply_outbox(out);
        self.self_check();
        self.poll_snapshot();
        self.reconcile_timers();
    }

    fn run_action(&mut self, action: P::Action, injected: bool) {
        let key = EventKey::Action {
            kind: P::action_kind(&action),
            node: self.me,
        };
        if self.filters.iter().any(|f| f.matches(&key)) {
            self.stats.filter_hits += 1;
            self.stats.actions_blocked += 1;
            if !injected {
                // Timers are rescheduled, not dropped (§4).
                if let Schedule::Periodic(d) | Schedule::After(d) = self.proto.schedule(&action) {
                    let due = self.now + self.wall_of(d);
                    self.timers.insert(action, due);
                }
            }
            return;
        }
        let mut out = Outbox::new();
        self.proto
            .on_action(self.me, &mut self.slot.state, &action, &mut out);
        self.stats.actions_executed += 1;
        self.apply_outbox(out);
        self.self_check();
        self.reconcile_timers();
    }

    fn reconcile_timers(&mut self) {
        let mut enabled = Vec::new();
        self.proto
            .enabled_actions(self.me, &self.slot.state, &mut enabled);
        for action in enabled {
            let d = match self.proto.schedule(&action) {
                Schedule::Periodic(d) | Schedule::After(d) => d,
                Schedule::External => continue,
            };
            if !self.timers.contains_key(&action) {
                let base = self.wall_of(d);
                let jitter = base.mul_f64(self.rng.gen_range(0.0..0.1));
                self.timers.insert(action, self.now + base + jitter);
            }
        }
    }

    fn fire_timers(&mut self) {
        let now = self.now;
        let due: Vec<P::Action> = self
            .timers
            .iter()
            .filter(|(_, at)| **at <= now)
            .map(|(a, _)| a.clone())
            .collect();
        for action in due {
            self.timers.remove(&action);
            let mut enabled = Vec::new();
            self.proto
                .enabled_actions(self.me, &self.slot.state, &mut enabled);
            if !enabled.contains(&action) {
                self.stats.timers_lapsed += 1;
                continue;
            }
            self.run_action(action, false);
        }
    }

    fn self_check(&mut self) {
        if !self.cfg.self_check {
            return;
        }
        // Node-local properties evaluated on a single-slot global state;
        // global/pairwise properties trivially pass here (a live node has
        // no authoritative view of its peers — those are the checker's
        // job, fed by snapshots).
        let gs: GlobalState<P> = GlobalState::from_slots([(self.me, self.slot.clone())]);
        if let Some(v) = self.props.check(&gs) {
            self.stats.violating_samples += 1;
            *self
                .stats
                .violations_by_property
                .entry(v.property)
                .or_default() += 1;
        }
    }

    // ---- snapshot schedule ----------------------------------------------

    fn snapshot_schedule(&mut self) {
        let now = self.now;
        if now >= self.next_checkpoint {
            self.next_checkpoint = now + self.cfg.checkpoint_interval;
            let bytes = self.slot.to_bytes();
            self.mgr.local_checkpoint(&bytes);
        }
        if now >= self.next_gather {
            self.next_gather = now + self.cfg.gather_interval;
            if !self.mgr.gathering() {
                self.start_gather();
            }
        }
        if let Some(deadline) = self.gather_deadline {
            if now >= deadline && self.mgr.gathering() {
                self.stats.gather_timeouts += 1;
                let bytes = self.slot.to_bytes();
                let retry = self.mgr.timeout_gather(&bytes);
                if retry.is_empty() {
                    self.gather_deadline = None;
                } else {
                    // One retry round, on a fresh deadline; the next
                    // timeout gives up for good.
                    self.gather_deadline = Some(now + self.cfg.gather_timeout);
                    for (dst, m) in retry {
                        self.send_snap(dst, &m);
                    }
                }
                self.poll_snapshot();
            }
        }
    }

    fn start_gather(&mut self) {
        let neighbors: Vec<NodeId> = self
            .proto
            .neighborhood(self.me, &self.slot.state)
            .unwrap_or_else(|| self.slot.conns.keys().copied().collect())
            .into_iter()
            .filter(|n| *n != self.me)
            .collect();
        let bytes = self.slot.to_bytes();
        let reqs = self.mgr.start_gather(&neighbors, &bytes);
        let now = self.now;
        self.gather_started = Some((
            self.elapsed_us(),
            if cb_obs::enabled() {
                cb_obs::now_us()
            } else {
                0
            },
        ));
        self.gather_deadline = Some(now + self.cfg.gather_timeout);
        for (dst, m) in reqs {
            self.send_snap(dst, &m);
        }
        // A neighborhood of one completes immediately.
        self.poll_snapshot();
    }

    fn poll_snapshot(&mut self) {
        let Some(snap) = self.mgr.poll_snapshot() else {
            return;
        };
        self.stats.snapshots_completed += 1;
        self.gather_deadline = None;
        // The round id joining this gather's node/wire/checker spans in a
        // trace: the node is the high half, the gather's checkpoint
        // number the low half — deterministic, unique per node per
        // gather, and minted whether or not tracing is on (it rides the
        // wire either way, so trace-on and trace-off runs ship identical
        // bytes).
        let round = (u64::from(self.me.0) << 32) | snap.cr;
        let started = self.gather_started.take();
        if let Some((_, obs_start)) = started {
            if obs_start != 0 {
                cb_obs::complete_span("node.gather", "live", round, obs_start);
            }
        }
        // Decode the wire-gathered checkpoints into a checker-ready
        // neighborhood state; undecodable checkpoints drop to the dummy
        // node (§4).
        let gs: GlobalState<P> = GlobalState::from_slots(
            snap.states
                .iter()
                .filter_map(|(n, b)| NodeSlot::from_bytes(b).ok().map(|s| (*n, s))),
        );
        if gs.node_count() == 0 {
            return;
        }
        let h = gs.state_hash();
        if self.last_submit_hash == Some(h) {
            return;
        }
        let Some(ix) = self.checker_conn() else {
            return;
        };
        self.last_submit_hash = Some(h);
        let body = SubmitBody {
            node: self.me,
            at_us: self.elapsed_us(),
            speculative: false,
            round,
            delta: self.delta_enc.encode_state(&gs),
        };
        let frame = frame_of(self.me, NodeId::DUMMY, 0, FrameKind::Submit, &body);
        if frame.len() > self.cfg.max_frame_len {
            // An oversize submission would be rejected by the checker's
            // frame layer and poison the connection into a reject/redial
            // loop. Drop it and restart the lineage: the dropped delta
            // advanced the encoder's base, so shipping the *next* delta
            // against it would desync the checker's decoder. A fresh
            // encoder re-ships in full (seq 1 = explicit lineage restart,
            // which the checker accepts on a live connection).
            self.delta_enc = DeltaEncoder::new();
            self.last_submit_hash = None;
            return;
        }
        if let Some(started) = started {
            self.round_started.insert(round, started);
            if self.round_started.len() > 1024 {
                // Rounds whose install never arrived (checker died,
                // filters went elsewhere): stop them pinning memory.
                self.round_started.clear();
            }
        }
        cb_obs::instant_id("node.submit", "live", round);
        M_SUBMITS.inc();
        self.stats.submits_sent += 1;
        self.stats.submit_bytes += frame.len() as u64;
        self.stats.frames_sent += 1;
        self.peers.push_frame_to(ix, &frame);
    }
}

#[cfg(test)]
mod tests {
    use cb_model::testproto::{Ping, PingAction};

    use super::*;

    /// A node polled by hand, with no reactor: first at `t0`, then — a few
    /// microseconds of wall time later — at `t0 + 1 h`. Everything armed
    /// from `t0` must come due on the second poll and be re-armed from the
    /// passed instant.
    #[test]
    fn the_passed_now_is_the_only_clock() {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        listener.set_nonblocking(true).unwrap();
        let (_ctl, ctl_rx) = mpsc::channel();
        let config = LiveNodeConfig::default();
        let seed = NodeSeed {
            protocol: Ping {
                kick_target: NodeId(0),
                kick_enabled: true,
            },
            props: PropertySet::new(),
            id: NodeId(1),
            incarnation: 0,
            config: config.clone(),
            // Knows nobody: the Kick's dial fails at the lookup, without
            // touching the network.
            registry: Arc::new(Registry::new()),
            links: Arc::new(LinkTable::new()),
            listener,
            ctl: ctl_rx,
            seed: 7,
            alive: Arc::new(AtomicBool::new(true)),
        };
        let t0 = Instant::now();
        let mut node = LiveNode::new(seed, t0);
        // Kick: 1 simulated second = 50 ms at the default scale, plus up
        // to 10 % jitter, armed at construction.
        let kick_at = node.timers[&PingAction::Kick];
        assert!(t0 < kick_at && kick_at <= t0 + Duration::from_millis(55));

        let PollStatus::Running { next_wake } = node.poll(t0, IoReadiness::all()) else {
            panic!("node exited");
        };
        assert_eq!(next_wake, kick_at);
        assert_eq!(node.stats.actions_executed, 0);
        assert_eq!(node.mgr.snapshot_stats().checkpoints_taken, 0);

        let t1 = t0 + Duration::from_secs(3600);
        let PollStatus::Running { next_wake } = node.poll(t1, IoReadiness::all()) else {
            panic!("node exited");
        };
        assert_eq!(node.stats.actions_executed, 1, "the Kick armed at t0 fired");
        assert_eq!(node.stats.dials_failed, 1, "and its ping found no route");
        let snap = node.mgr.snapshot_stats();
        assert!(snap.checkpoints_taken >= 1, "the due checkpoint was taken");
        assert_eq!(snap.gathers_started, 1, "the due gather ran");
        assert_eq!(node.elapsed_us(), 3_600_000_000);
        // Re-armed from the passed instant: the next Kick leads again.
        assert_eq!(next_wake, node.timers[&PingAction::Kick]);
        assert!(t1 < next_wake && next_wake <= t1 + Duration::from_millis(55));
        assert_eq!(node.next_checkpoint, t1 + config.checkpoint_interval);
    }
}
