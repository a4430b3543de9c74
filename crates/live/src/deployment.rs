//! The deployment driver: boots a reactor pool plus the checker process,
//! places nodes across reactors, injects workload and faults, and tears
//! the whole thing down gracefully.
//!
//! Deployments are configured through [`DeploymentBuilder`] — reactor
//! sizing (how many OS threads multiplex the nodes), fault plan, rejoin
//! policy, and cross-process placement (serve the address registry, or
//! join a deployment another process is serving) are all builder knobs,
//! so `boot` signatures stop growing positional parameters.
//!
//! The fault model is `cb-fleet`'s [`FaultPlan`] carried over verbatim:
//! the same seeded, node-index-space schedule that drives the simulated
//! fleet drives the live deployment — but a partition is now a
//! socket-level drop in the [`LinkTable`], a degradation a probabilistic
//! drop plus a scheduler-level delay ([`LiveFault`] stacks), and churn an
//! actual node kill + relisten on a fresh port. Fault times are
//! `SimTime`s; the driver maps them onto the wall clock with the same
//! `time_scale` the nodes use for protocol timers.
//!
//! Determinism contract (and its deliberate absence): the fault
//! *schedule* is deterministic in `(config, seed)`, but reactor threads
//! interleave under a real scheduler — two runs differ at the byte
//! level. Tests therefore assert protocol-level safety outcomes and
//! steering effects (violations observed, filters installed, filter
//! hits), never trace equality.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use cb_fleet::faults::{FaultEvent, FaultPlan};
use cb_model::{NodeId, NodeSlot, PropertySet, Protocol};
use cb_net::LiveFault;
use crystalball::ControllerConfig;

use crate::checker::{spawn_checker, CheckerHandle};
use crate::node::{
    ExitKind, LinkTable, LiveNode, LiveNodeConfig, NodeCtl, NodeExit, NodeReport, NodeSeed,
    Registry,
};
use crate::reactor::{spawn_reactor, ReactorCtl, ReactorHandle};
use crate::registry::{Addressing, RegistryServer, RemoteRegistry};
use crate::stats::LiveStats;

/// Deployment-wide tuning (the value-shaped part of configuration; the
/// structural knobs — node set, reactor sizing, placement — live on
/// [`DeploymentBuilder`]).
#[derive(Clone, Debug)]
pub struct LiveConfig {
    /// Seed for fault schedules and per-node jitter streams.
    pub seed: u64,
    /// Per-node event-loop tuning (intervals, time scale, snapshots).
    pub node: LiveNodeConfig,
    /// The checker process's controller configuration (search budget,
    /// steering mode, shard count via `checker`).
    pub checker: ControllerConfig,
    /// Bound on the checker's shutdown drain.
    pub checker_drain: Duration,
}

impl Default for LiveConfig {
    fn default() -> Self {
        LiveConfig {
            seed: 1,
            node: LiveNodeConfig::default(),
            checker: ControllerConfig::default(),
            checker_drain: Duration::from_secs(30),
        }
    }
}

/// What [`LiveDeployment::shutdown`] returns: aggregate counters plus the
/// final protocol states, so callers can run safety properties over the
/// assembled post-mortem global state.
pub struct LiveReport<P: Protocol> {
    /// Deployment-wide counters (JSON-able).
    pub stats: LiveStats,
    /// Each node's final slot.
    pub states: BTreeMap<NodeId, NodeSlot<P::State>>,
    /// Each node's final filter set.
    pub filters: BTreeMap<NodeId, Vec<cb_mc::EventFilter>>,
}

/// Configures and boots a [`LiveDeployment`].
///
/// ```ignore
/// let dep = DeploymentBuilder::new(protocol, props)
///     .nodes(&ids)
///     .config(cfg)
///     .reactor_threads(4)
///     .boot()?;
/// ```
pub struct DeploymentBuilder<P: Protocol> {
    protocol: P,
    props: PropertySet<P>,
    nodes: Vec<NodeId>,
    config: LiveConfig,
    reactor_threads: usize,
    serve_registry: Option<SocketAddr>,
    join: Option<SocketAddr>,
    trace: Option<std::path::PathBuf>,
    metrics: Option<String>,
}

impl<P: Protocol> DeploymentBuilder<P> {
    /// Starts a builder for this protocol and property set.
    pub fn new(protocol: P, props: PropertySet<P>) -> Self {
        DeploymentBuilder {
            protocol,
            props,
            nodes: Vec::new(),
            config: LiveConfig::default(),
            reactor_threads: 0,
            serve_registry: None,
            join: None,
            trace: None,
            metrics: None,
        }
    }

    /// The node ids this process hosts.
    pub fn nodes(mut self, nodes: &[NodeId]) -> Self {
        self.nodes = nodes.to_vec();
        self
    }

    /// Replaces the whole tuning block.
    pub fn config(mut self, config: LiveConfig) -> Self {
        self.config = config;
        self
    }

    /// Seed for fault schedules and jitter streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Per-node event-loop tuning.
    pub fn node_config(mut self, node: LiveNodeConfig) -> Self {
        self.config.node = node;
        self
    }

    /// The checker process's controller configuration.
    pub fn checker_config(mut self, checker: ControllerConfig) -> Self {
        self.config.checker = checker;
        self
    }

    /// How many reactor threads multiplex the nodes. `0` (the default)
    /// means one thread per node — PR 5's thread-per-node deployment as
    /// the degenerate case of the reactor.
    pub fn reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Additionally serve the address registry on `bind`, so deployments
    /// in *other processes* (or on other hosts) can
    /// [`join`](Self::join) this one. The checker boots in this process.
    pub fn serve_registry(mut self, bind: SocketAddr) -> Self {
        self.serve_registry = Some(bind);
        self
    }

    /// Join the deployment whose registry is served at `server` instead
    /// of booting a private one: addresses resolve through the remote
    /// registry and the *serving* process's checker is used — none boots
    /// here. Node listeners should bind a routable IP
    /// ([`LiveNodeConfig::bind_ip`]) when the server is off-host.
    pub fn join(mut self, server: SocketAddr) -> Self {
        self.join = Some(server);
        self
    }

    /// Enables the `cb-obs` recorder for this deployment and exports the
    /// collected trace to `path` (chrome trace-event JSON, plus a
    /// `.jsonl` event log next to it) at [`LiveDeployment::shutdown`].
    /// Without this knob the recorder stays disabled and every
    /// instrumentation point degrades to one relaxed atomic load.
    pub fn trace(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.trace = Some(path.into());
        self
    }

    /// Enables the `cb-obs` metrics plane and serves it on `bind`
    /// (`"127.0.0.1:0"` picks a free port — read it back through
    /// [`LiveDeployment::metrics_addr`]). Any HTTP GET against the bound
    /// port answers with a Prometheus text-format 0.0.4 exposition of
    /// every family the deployment touches. Without this knob the
    /// registry stays disabled and every recording point degrades to one
    /// relaxed atomic load — the deterministic surfaces are
    /// byte-identical either way.
    pub fn metrics(mut self, bind: impl Into<String>) -> Self {
        self.metrics = Some(bind.into());
        self
    }

    /// Boots the reactors, the registry (local, served, or joined), the
    /// checker (unless joining), and every node.
    pub fn boot(self) -> std::io::Result<LiveDeployment<P>> {
        let DeploymentBuilder {
            protocol,
            props,
            nodes,
            config,
            reactor_threads,
            serve_registry,
            join,
            trace,
            metrics,
        } = self;
        if trace.is_some() {
            cb_obs::enable();
        }
        let metrics_server = match metrics {
            Some(bind) => Some(cb_obs::MetricsServer::bind(bind.as_str())?),
            None => None,
        };
        let threads = if reactor_threads == 0 {
            nodes.len().max(1)
        } else {
            reactor_threads
        };
        let mut registry_server = None;
        let mut checker = None;
        let registry: Arc<dyn Addressing> = match join {
            Some(server) => Arc::new(RemoteRegistry::connect(server)),
            None => {
                let local = Arc::new(Registry::new());
                if let Some(bind) = serve_registry {
                    registry_server = Some(RegistryServer::serve(local.clone(), bind)?);
                }
                let ch = spawn_checker(
                    protocol.clone(),
                    props.clone(),
                    config.checker.clone(),
                    config.checker_drain,
                )?;
                local.register_checker(ch.addr);
                checker = Some(ch);
                local
            }
        };
        let links = Arc::new(LinkTable::new());
        let reactors = (0..threads)
            .map(|i| spawn_reactor(format!("cb-reactor-{i}"), config.node.tick))
            .collect();
        let mut dep = LiveDeployment {
            protocol,
            props,
            config,
            registry,
            registry_server,
            links,
            reactors,
            slots: BTreeMap::new(),
            node_ids: nodes.clone(),
            incarnations: nodes.iter().map(|n| (*n, 0)).collect(),
            checker,
            faults: Vec::new(),
            next_fault: 0,
            rejoin: None,
            epoch: Instant::now(),
            faults_applied: 0,
            restarts: 0,
            trace,
            metrics_server,
        };
        for n in nodes {
            dep.spawn(n)?;
        }
        Ok(dep)
    }
}

/// The driver's view of one hosted node.
struct NodeSlotCtl<P: Protocol> {
    ctl: mpsc::Sender<NodeCtl<P>>,
    alive: Arc<AtomicBool>,
}

/// A running live deployment: a reactor pool multiplexing protocol nodes
/// over TCP, one checker process, an address registry and a fault table.
pub struct LiveDeployment<P: Protocol> {
    protocol: P,
    props: PropertySet<P>,
    config: LiveConfig,
    registry: Arc<dyn Addressing>,
    /// Held for its lifetime: serving deployments keep the registry
    /// socket open until shutdown.
    registry_server: Option<RegistryServer>,
    links: Arc<LinkTable>,
    reactors: Vec<ReactorHandle<LiveNode<P>>>,
    slots: BTreeMap<NodeId, NodeSlotCtl<P>>,
    node_ids: Vec<NodeId>,
    incarnations: BTreeMap<NodeId, u32>,
    checker: Option<CheckerHandle>,
    /// Wall-offset-sorted fault schedule (from a [`FaultPlan`]).
    faults: Vec<(Duration, FaultEvent)>,
    next_fault: usize,
    /// Per-protocol churn rejoin: what a restarted node should be told to
    /// do (e.g. RandTree's `Join` application call).
    rejoin: Option<Arc<dyn Fn(NodeId) -> P::Action + Send + Sync>>,
    epoch: Instant,
    faults_applied: u64,
    restarts: u64,
    /// Where to export the collected `cb-obs` trace at shutdown (chrome
    /// trace-event JSON + `.jsonl`); `None` leaves the recorder alone.
    trace: Option<std::path::PathBuf>,
    /// The scrape endpoint, held for the deployment's lifetime so the
    /// operator can curl it mid-run; stopped at shutdown.
    metrics_server: Option<cb_obs::MetricsServer>,
}

impl<P: Protocol> LiveDeployment<P> {
    /// Binds + registers a listener for `id` and hands the node seed to
    /// its reactor (placement: `id mod threads`).
    fn spawn(&mut self, id: NodeId) -> std::io::Result<()> {
        let inc = *self.incarnations.get(&id).unwrap_or(&0);
        let listener = TcpListener::bind((self.config.node.bind_ip, 0))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        self.registry.register(id, addr);
        let (ctl_tx, ctl_rx) = mpsc::channel();
        let alive = Arc::new(AtomicBool::new(true));
        let seed = NodeSeed {
            protocol: self.protocol.clone(),
            props: self.props.clone(),
            id,
            incarnation: inc,
            config: self.config.node.clone(),
            registry: self.registry.clone(),
            links: self.links.clone(),
            listener,
            ctl: ctl_rx,
            seed: self.config.seed,
            alive: alive.clone(),
        };
        let node = LiveNode::new(seed, Instant::now());
        let rx = &self.reactors[id.0 as usize % self.reactors.len()];
        rx.ctl
            .send(ReactorCtl::Add(Box::new(node)))
            .map_err(|_| std::io::Error::other("reactor thread gone"))?;
        self.slots.insert(id, NodeSlotCtl { ctl: ctl_tx, alive });
        Ok(())
    }

    /// Installs the churn-rejoin policy (what a restarted node is told to
    /// do once it is back up).
    pub fn set_rejoin(&mut self, f: impl Fn(NodeId) -> P::Action + Send + Sync + 'static) {
        self.rejoin = Some(Arc::new(f));
    }

    /// Loads a fleet fault plan, mapping its simulated times onto the
    /// wall clock via the deployment's `time_scale`. Offsets are relative
    /// to *now* (plans are normally loaded right after boot).
    pub fn load_fault_plan(&mut self, plan: &FaultPlan) {
        let scale = self.config.node.time_scale;
        let base = self.epoch.elapsed();
        self.faults = plan
            .events
            .iter()
            .map(|(t, ev)| (base + Duration::from_secs_f64(t.as_secs_f64() * scale), *ev))
            .collect();
        self.faults.sort_by_key(|(d, _)| *d);
        self.next_fault = 0;
    }

    /// The node ids this deployment was booted with.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.node_ids
    }

    /// Number of reactor threads multiplexing the nodes.
    pub fn reactor_threads(&self) -> usize {
        self.reactors.len()
    }

    /// The served registry's address, when this deployment was built with
    /// [`DeploymentBuilder::serve_registry`] — what other processes pass
    /// to [`DeploymentBuilder::join`].
    pub fn registry_addr(&self) -> Option<SocketAddr> {
        self.registry_server.as_ref().map(|s| s.addr())
    }

    /// The metrics endpoint's bound address, when this deployment was
    /// built with [`DeploymentBuilder::metrics`] — what an operator
    /// curls, or a test passes to [`cb_obs::metrics::fetch`].
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_server.as_ref().map(|s| s.addr())
    }

    /// Sends an application call into a live node.
    pub fn inject(&self, node: NodeId, action: P::Action) {
        if let Some(s) = self.slots.get(&node) {
            let _ = s.ctl.send(NodeCtl::Inject(action));
        }
    }

    /// Installs an arbitrary injector stack on the pair (empty heals).
    pub fn set_link_faults(&self, a: NodeId, b: NodeId, faults: Vec<LiveFault>) {
        self.links.set_faults(a, b, faults);
    }

    /// Cuts (or heals) the pair at socket level.
    pub fn set_partitioned(&self, a: NodeId, b: NodeId, partitioned: bool) {
        let stack = if partitioned {
            vec![LiveFault::Drop]
        } else {
            Vec::new()
        };
        self.links.set_faults(a, b, stack);
    }

    /// Abruptly kills a node: its listener closes, its sockets break, and
    /// peers discover the death through transport errors — SIGKILL
    /// semantics, the churn injector's tool. The node's exit report is
    /// discarded at shutdown, matching a real crash's volatile-state
    /// loss. Blocks (bounded) until the node has actually exited, so an
    /// immediate restart cannot race the dying incarnation.
    pub fn kill(&mut self, node: NodeId) {
        self.registry.deregister(node);
        if let Some(s) = self.slots.remove(&node) {
            let _ = s.ctl.send(NodeCtl::Kill);
            let deadline = Instant::now() + Duration::from_secs(2);
            while s.alive.load(Ordering::Relaxed) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    }

    /// Restarts a killed node with a bumped incarnation, a fresh state,
    /// and a fresh checkpoint manager (reboots lose volatile state), on a
    /// fresh port. Fires the rejoin action, if one is installed.
    pub fn restart(&mut self, node: NodeId) -> std::io::Result<()> {
        *self.incarnations.entry(node).or_insert(0) += 1;
        self.spawn(node)?;
        self.restarts += 1;
        if let Some(rejoin) = &self.rejoin {
            let action = rejoin(node);
            self.inject(node, action);
        }
        Ok(())
    }

    /// True while the node is running on its reactor.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.slots
            .get(&node)
            .is_some_and(|s| s.alive.load(Ordering::Relaxed))
    }

    /// Probes a node's current state and counters.
    pub fn probe(&self, node: NodeId, timeout: Duration) -> Option<NodeReport<P>> {
        let s = self.slots.get(&node)?;
        let (tx, rx) = mpsc::channel();
        s.ctl.send(NodeCtl::Probe(tx)).ok()?;
        rx.recv_timeout(timeout).ok()
    }

    /// Probes the checker process's counters.
    pub fn probe_checker(&self, timeout: Duration) -> Option<crate::stats::CheckerProcessStats> {
        self.checker.as_ref()?.probe(timeout)
    }

    /// Lets the deployment run for `wall`, applying due fault events along
    /// the way. Reactor threads run regardless of this call; `run_for` is
    /// where the *driver* spends its time.
    pub fn run_for(&mut self, wall: Duration) {
        let deadline = Instant::now() + wall;
        while Instant::now() < deadline {
            self.apply_due_faults();
            std::thread::sleep(Duration::from_millis(2));
        }
        self.apply_due_faults();
    }

    fn apply_due_faults(&mut self) {
        let now = self.epoch.elapsed();
        while let Some((at, ev)) = self.faults.get(self.next_fault).copied() {
            if at > now {
                break;
            }
            self.next_fault += 1;
            self.apply_fault(ev);
        }
    }

    fn map_index(&self, index: usize) -> NodeId {
        self.node_ids[index % self.node_ids.len()]
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        self.faults_applied += 1;
        match ev {
            FaultEvent::Partition { a, b, up } => {
                let (a, b) = (self.map_index(a), self.map_index(b));
                if a != b {
                    self.set_partitioned(a, b, !up);
                }
            }
            FaultEvent::Degrade { a, b, fault } => {
                let (a, b) = (self.map_index(a), self.map_index(b));
                if a != b {
                    // Both components of the fleet fault carry over now:
                    // loss as a probabilistic drop, extra delay as a
                    // sender-side hold (scaled onto the wall clock like
                    // every other simulated duration).
                    let stack = match fault {
                        Some(f) => {
                            let mut s = vec![LiveFault::Loss(f.extra_loss.max(0.05))];
                            let delay = Duration::from_secs_f64(
                                f.extra_delay.as_secs_f64() * self.config.node.time_scale,
                            );
                            if !delay.is_zero() {
                                s.push(LiveFault::Delay {
                                    delay,
                                    jitter: delay / 4,
                                });
                            }
                            s
                        }
                        None => Vec::new(),
                    };
                    self.set_link_faults(a, b, stack);
                }
            }
            FaultEvent::Churn { node, notify: _ } => {
                // Socket churn is always "loud": closing the sockets is
                // observable. The notify distinction belongs to the
                // simulator's abstract reset.
                let n = self.map_index(node);
                if self.is_up(n) {
                    self.kill(n);
                }
            }
            FaultEvent::Rejoin { node } => {
                let n = self.map_index(node);
                if !self.is_up(n) {
                    let _ = self.restart(n);
                }
            }
        }
    }

    /// Graceful teardown: every node drains and reports, the reactors
    /// wind down, the checker finishes its in-flight rounds, and the
    /// aggregate [`LiveReport`] comes back. Nodes that were killed and
    /// never restarted are absent from the report's state map (their
    /// exits are discarded — crash semantics).
    pub fn shutdown(mut self) -> LiveReport<P> {
        let wall_seconds = self.epoch.elapsed().as_secs_f64();
        let mut stats = LiveStats {
            wall_seconds,
            faults_applied: self.faults_applied,
            restarts: self.restarts,
            reactor_threads: self.reactors.len(),
            ..LiveStats::default()
        };
        let mut states = BTreeMap::new();
        let mut filters = BTreeMap::new();
        // Signal every node first so the drains overlap, then stop the
        // reactors and collect the exits they gathered.
        for s in self.slots.values() {
            let _ = s.ctl.send(NodeCtl::Shutdown);
        }
        // Killed nodes' reports are crash-discarded.
        let graceful = |e: &NodeExit<P>| e.kind == ExitKind::Graceful;
        for exit in self.finish_reactors().into_iter().filter(graceful) {
            stats.nodes.insert(exit.id.0, exit.report.stats);
            stats.snapshots.insert(exit.id.0, exit.report.snapshot);
            states.insert(exit.id, exit.report.slot);
            filters.insert(exit.id, exit.report.filters);
        }
        if let Some(checker) = self.checker.take() {
            stats.checker = checker.shutdown();
        }
        stats.trace_ring_dropped = cb_obs::dropped_events();
        // One last exposition-state refresh, then close the scrape port.
        if let Some(server) = self.metrics_server.take() {
            cb_obs::metrics::scrape();
            server.stop();
        }
        // Export after every reactor and checker thread has joined: their
        // thread-exit drops flushed the per-thread rings, so the drain
        // below sees the whole deployment's events.
        if let Some(path) = self.trace.take() {
            let trace = cb_obs::drain();
            if let Err(e) = cb_obs::chrome::write_files(&trace, &path) {
                eprintln!("cb-obs: trace export to {} failed: {e}", path.display());
            }
        }
        LiveReport {
            stats,
            states,
            filters,
        }
    }

    /// Stops every reactor and joins it, returning every node's exit.
    fn finish_reactors(&mut self) -> Vec<NodeExit<P>> {
        for r in &self.reactors {
            let _ = r.ctl.send(ReactorCtl::Stop);
        }
        let mut exits = Vec::new();
        for r in std::mem::take(&mut self.reactors) {
            if let Ok(batch) = r.join.join() {
                exits.extend(batch);
            }
        }
        exits
    }

    /// Builds a checker-style global state from a report's final slots
    /// (for post-mortem property checks).
    pub fn assemble(report: &LiveReport<P>) -> cb_model::GlobalState<P> {
        cb_model::GlobalState::from_slots(report.states.iter().map(|(n, s)| (*n, s.clone())))
    }
}

impl<P: Protocol> Drop for LiveDeployment<P> {
    fn drop(&mut self) {
        // A dropped (not shut-down) deployment must not leak threads.
        for s in self.slots.values() {
            let _ = s.ctl.send(NodeCtl::Kill);
        }
        self.slots.clear();
        let _ = self.finish_reactors();
        if let Some(checker) = self.checker.take() {
            let _ = checker.shutdown();
        }
    }
}

/// A channel-free helper: waits (polling `probe`) until `pred` holds over
/// the node reports or the deadline passes; returns whether it held.
/// Tests use this instead of fixed sleeps so they pass on slow CI hosts
/// without wasting time on fast ones.
pub fn wait_until<P: Protocol>(
    dep: &LiveDeployment<P>,
    deadline: Duration,
    mut pred: impl FnMut(&LiveDeployment<P>) -> bool,
) -> bool {
    let end = Instant::now() + deadline;
    loop {
        if pred(dep) {
            return true;
        }
        if Instant::now() >= end {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
