//! The reactor: one OS thread driving many [`LiveNode`] state machines.
//!
//! PR 5's cb-live spent one thread per node — honest about deployment
//! (every node schedules independently) but capped at a few dozen nodes
//! per host. The reactor keeps the per-node *state machine* and moves the
//! *scheduling* into a readiness loop: each iteration it drains its
//! control channel (node adds, stop), polls every node once with the IO
//! edges observed since the last iteration, then blocks in `poll(2)`
//! across all nodes' fds until the earliest node deadline (clamped to the
//! tick so non-pollable mpsc control traffic stays responsive).
//!
//! The syscall layer is a minimal `poll(2)` FFI — std already links libc
//! on every unix, so no external crate is needed; platforms without
//! `poll(2)` fall back to a sleep + assume-everything-ready loop, which
//! is exactly the thread-per-node cost model.
//!
//! `threads = nodes` (each reactor owning one node) reproduces PR 5's
//! thread-per-node deployment shape through the same code path.

use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cb_model::{NodeId, Protocol};

use crate::node::{ExitKind, IoReadiness, LiveNode, NodeReport, NodeSeed, PollStatus};

static M_POLLS: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_reactor_polls_total",
    "reactor loop iterations (one poll(2) wait each)",
);
static M_POLL_BUSY: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new(
    "cb_reactor_poll_busy_total",
    "reactor iterations that woke with at least one fd ready",
);
static M_WAKE_LAG_US: cb_obs::metrics::Hist = cb_obs::metrics::Hist::new(
    "cb_reactor_wake_lag_us",
    "microseconds the reactor resumed past its earliest requested deadline",
);

/// Minimal `poll(2)` binding. `std` links libc on unix targets, so the
/// symbol is already in the process; declaring it here avoids an external
/// crate for one syscall.
#[cfg(unix)]
mod sys {
    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    #[derive(Clone, Copy, Debug)]
    pub struct PollFd {
        pub fd: RawFd,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;
    pub const POLLERR: i16 = 0x8;
    pub const POLLHUP: i16 = 0x10;

    extern "C" {
        fn poll(
            fds: *mut PollFd,
            nfds: core::ffi::c_ulong,
            timeout: core::ffi::c_int,
        ) -> core::ffi::c_int;
    }

    /// Blocks until an fd is ready or `timeout` passes. Returns the
    /// number of ready fds (0 on timeout or EINTR); `revents` is filled
    /// in place.
    pub fn poll_fds(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
        let ms = if timeout.is_zero() {
            0
        } else {
            // Round up: a 200µs deadline must not busy-spin at 0ms.
            timeout.as_millis().clamp(1, i32::MAX as u128) as i32
        };
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as core::ffi::c_ulong, ms) };
        if rc < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(e);
        }
        Ok(rc as usize)
    }
}

/// Driver → reactor control messages.
pub enum ReactorCtl<P: Protocol> {
    /// Adopt a node (its listener is already bound and registered).
    Add(Box<NodeSeed<P>>),
    /// No more adds; exit once every owned node has exited.
    Stop,
}

/// One node's exit, as collected by its reactor.
pub struct ReactorExit<P: Protocol> {
    /// The node that exited.
    pub id: NodeId,
    /// How it left.
    pub kind: ExitKind,
    /// Its final report.
    pub report: Box<NodeReport<P>>,
}

/// Which exits a reactor join should surface to the driver.
#[derive(Clone, Copy, Debug)]
pub enum ExitKindFilter {
    /// Every exit.
    All,
    /// Only graceful drains (killed nodes' reports are crash-discarded).
    GracefulOnly,
}

impl ExitKindFilter {
    /// Whether an exit of kind `k` passes this filter.
    pub fn keep(self, k: ExitKind) -> bool {
        matches!(self, ExitKindFilter::All) || k == ExitKind::Graceful
    }
}

/// The driver-side handle of one reactor thread.
pub struct ReactorHandle<P: Protocol> {
    /// Control channel into the loop.
    pub ctl: mpsc::Sender<ReactorCtl<P>>,
    /// The reactor thread; yields every owned node's exit.
    pub join: JoinHandle<Vec<ReactorExit<P>>>,
}

/// Boots reactor thread `index` with the given scheduling tick.
pub fn spawn_reactor<P: Protocol>(index: usize, tick: Duration) -> ReactorHandle<P> {
    let (tx, rx) = mpsc::channel();
    let join = std::thread::Builder::new()
        .name(format!("cb-reactor-{index}"))
        .spawn(move || reactor_loop(rx, tick))
        .expect("spawn reactor thread");
    ReactorHandle { ctl: tx, join }
}

fn reactor_loop<P: Protocol>(
    ctl: mpsc::Receiver<ReactorCtl<P>>,
    tick: Duration,
) -> Vec<ReactorExit<P>> {
    M_POLLS.touch();
    M_POLL_BUSY.touch();
    M_WAKE_LAG_US.touch();
    let mut nodes: Vec<LiveNode<P>> = Vec::new();
    // `ready[i]` pairs with `nodes[i]`: the IO edges observed for that
    // node since its last poll. Fresh adopts start all-ready so their
    // first poll services anything already pending.
    let mut ready: Vec<IoReadiness> = Vec::new();
    let mut done: Vec<ReactorExit<P>> = Vec::new();
    let mut stopping = false;
    loop {
        loop {
            match ctl.try_recv() {
                Ok(ReactorCtl::Add(seed)) => {
                    nodes.push(LiveNode::new(*seed));
                    ready.push(IoReadiness::all());
                }
                Ok(ReactorCtl::Stop) => stopping = true,
                Err(mpsc::TryRecvError::Empty) => break,
                // Driver gone: the nodes' own ctl channels dropped with
                // it, so each will drain gracefully; exit when they have.
                Err(mpsc::TryRecvError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }
        if nodes.is_empty() {
            if stopping {
                return done;
            }
            std::thread::sleep(tick);
            continue;
        }
        let now = Instant::now();
        let mut min_wake = now + tick;
        let mut still = Vec::with_capacity(nodes.len());
        for (i, mut node) in nodes.drain(..).enumerate() {
            let io = ready.get(i).copied().unwrap_or_else(IoReadiness::all);
            let id = node.id();
            let span = cb_obs::span_id("reactor.node_poll", "live", u64::from(id.0));
            let status = node.poll(now, io);
            drop(span);
            match status {
                PollStatus::Running { next_wake } => {
                    min_wake = min_wake.min(next_wake);
                    still.push(node);
                }
                PollStatus::Exited { kind, report } => done.push(ReactorExit { id, kind, report }),
            }
        }
        nodes = still;
        if nodes.is_empty() {
            ready.clear();
            if stopping {
                return done;
            }
            continue;
        }
        let timeout = min_wake.saturating_duration_since(Instant::now()).min(tick);
        ready = wait_io(&nodes, timeout);
        M_POLLS.inc();
        if ready.iter().any(|io| io.readable || io.writable) {
            M_POLL_BUSY.inc();
        }
        // Wake lag: how far past the earliest requested deadline the loop
        // actually resumed — scheduling latency every node's timers sit
        // behind. (poll(2) returning early on IO readiness reads as 0.)
        let lag = Instant::now().saturating_duration_since(min_wake);
        M_WAKE_LAG_US.observe(lag.as_micros() as u64);
        if cb_obs::enabled() {
            cb_obs::counter("reactor.wake_lag_us", "live", lag.as_micros() as i64);
            // The reactor is long-lived and chatty (one poll span per node
            // per iteration); without a periodic flush its ring wraps and
            // drops most of the run. Flushing here keeps the ring small
            // and rides the iteration boundary, off every node's hot path.
            cb_obs::flush_thread();
        }
    }
}

/// Blocks across every node's fds until something is ready (or the
/// timeout), and folds the revents back into per-node readiness.
#[cfg(unix)]
fn wait_io<P: Protocol>(nodes: &[LiveNode<P>], timeout: Duration) -> Vec<IoReadiness> {
    let mut raw: Vec<(std::os::fd::RawFd, bool)> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(nodes.len());
    for node in nodes {
        let start = fds.len();
        raw.clear();
        node.io_fds(&mut raw);
        for (fd, wants_write) in &raw {
            fds.push(sys::PollFd {
                fd: *fd,
                events: sys::POLLIN | if *wants_write { sys::POLLOUT } else { 0 },
                revents: 0,
            });
        }
        spans.push(start..fds.len());
    }
    match sys::poll_fds(&mut fds, timeout) {
        Ok(0) => vec![IoReadiness::default(); nodes.len()],
        Ok(_) => spans
            .into_iter()
            .map(|span| {
                let mut io = IoReadiness::default();
                for f in &fds[span] {
                    if f.revents & (sys::POLLIN | sys::POLLERR | sys::POLLHUP) != 0 {
                        io.readable = true;
                    }
                    if f.revents & sys::POLLOUT != 0 {
                        io.writable = true;
                    }
                }
                io
            })
            .collect(),
        Err(_) => {
            // Readiness source broken: degrade to the sleep-and-scan cost
            // model rather than starve reads.
            std::thread::sleep(timeout);
            vec![IoReadiness::all(); nodes.len()]
        }
    }
}

#[cfg(not(unix))]
fn wait_io<P: Protocol>(nodes: &[LiveNode<P>], timeout: Duration) -> Vec<IoReadiness> {
    std::thread::sleep(timeout);
    vec![IoReadiness::all(); nodes.len()]
}
