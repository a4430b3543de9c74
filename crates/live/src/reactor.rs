//! The reactor: one OS thread driving many pollable state machines, and
//! the only hosted-side code in `cb-live` that blocks or reads the wall
//! clock.
//!
//! PR 5's cb-live spent one thread per node — honest about deployment
//! (every node schedules independently) but capped at a few dozen nodes
//! per host. The reactor keeps the per-node *state machine* and moves the
//! *scheduling* into a readiness loop: each iteration it drains its
//! control channel (adds, stop), samples the clock once, polls everything
//! it hosts ([`Hosted`]: nodes, the checker server or the registry
//! server — one kind per reactor, statically dispatched) with that `now`
//! and the IO edges observed since the last iteration, then blocks in
//! `poll(2)` across all hosted fds until the earliest requested deadline
//! (clamped to the tick so non-pollable mpsc control traffic stays
//! responsive).
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

/// IO edges the reactor observed for one hosted state machine since its
/// last poll.
#[derive(Clone, Copy, Debug, Default)]
pub struct IoReadiness {
    /// At least one of its sockets (listener included) is readable. When
    /// false, it skips its accept/read scans — the bulk of an idle
    /// node's work.
    pub readable: bool,
    /// At least one socket with buffered output became writable.
    pub writable: bool,
}

impl IoReadiness {
    /// Assume everything is ready (driving without a readiness source,
    /// platforms without `poll(2)`).
    pub fn all() -> Self {
        IoReadiness {
            readable: true,
            writable: true,
        }
    }
}

/// What one [`Hosted::poll`] call concluded.
pub enum PollStatus<E> {
    /// Still running; wake me at `next_wake` (earlier if IO arrives).
    Running {
        /// The earliest deadline it owns.
        next_wake: Instant,
    },
    /// It exited; remove it from the reactor and hand `E` to the driver.
    Exited(E),
}

/// A non-blocking state machine a reactor can drive. `now` is the only
/// clock an implementor may consult and its sockets the only thing it may
/// touch: everything that waits is the reactor's.
pub trait Hosted: Send + 'static {
    /// What it leaves behind for the driver when it exits.
    type Exit: Send + 'static;

    /// Runs one iteration and reports when it next needs waking. `now`
    /// is sampled once by the reactor for the whole batch; `io` carries
    /// the readiness edges `poll(2)` observed for this one's fds (pass
    /// [`IoReadiness::all`] when driving without a readiness source).
    fn poll(&mut self, now: Instant, io: IoReadiness) -> PollStatus<Self::Exit>;

    /// Appends every fd the reactor should watch, paired with whether it
    /// has buffered output (wants a writability edge).
    #[cfg(unix)]
    fn io_fds(&self, out: &mut Vec<(std::os::fd::RawFd, bool)>);
}

/// Driver → reactor control messages.
pub enum ReactorCtl<H: Hosted> {
    /// Adopt one (its listener is already bound and registered).
    Add(Box<H>),
    /// No more adds; exit once everything hosted has exited.
    Stop,
}

/// The driver-side handle of one reactor thread.
pub struct ReactorHandle<H: Hosted> {
    /// Control channel into the loop.
    pub ctl: mpsc::Sender<ReactorCtl<H>>,
    /// The reactor thread; yields every hosted exit.
    pub join: JoinHandle<Vec<H::Exit>>,
}

/// Boots a reactor thread called `name` with the given scheduling tick.
pub fn spawn_reactor<H: Hosted>(name: String, tick: Duration) -> ReactorHandle<H> {
    let (tx, rx) = mpsc::channel();
    let join = std::thread::Builder::new()
        .name(name)
        .spawn(move || reactor_loop::<H>(rx, tick))
        .expect("spawn reactor thread");
    ReactorHandle { ctl: tx, join }
}

fn reactor_loop<H: Hosted>(ctl: mpsc::Receiver<ReactorCtl<H>>, tick: Duration) -> Vec<H::Exit> {
    M_POLLS.touch();
    M_POLL_BUSY.touch();
    M_WAKE_LAG_US.touch();
    let mut hosted: Vec<H> = Vec::new();
    // `ready[i]` pairs with `hosted[i]`: the IO edges observed for it
    // since its last poll. Fresh adopts start all-ready so their first
    // poll services anything already pending.
    let mut ready: Vec<IoReadiness> = Vec::new();
    let mut done: Vec<H::Exit> = Vec::new();
    let mut stopping = false;
    loop {
        loop {
            match ctl.try_recv() {
                Ok(ReactorCtl::Add(h)) => {
                    hosted.push(*h);
                    ready.push(IoReadiness::all());
                }
                Ok(ReactorCtl::Stop) => stopping = true,
                Err(mpsc::TryRecvError::Empty) => break,
                // Driver gone: the hosted ctl channels dropped with it,
                // so each will drain gracefully; exit when they have.
                Err(mpsc::TryRecvError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }
        // The iteration's one clock reading: every poll below sees this
        // instant and no other.
        let now = Instant::now();
        let mut min_wake = now + tick;
        let mut still = Vec::with_capacity(hosted.len());
        for (i, mut h) in hosted.drain(..).enumerate() {
            let io = ready.get(i).copied().unwrap_or_else(IoReadiness::all);
            match h.poll(now, io) {
                PollStatus::Running { next_wake } => {
                    min_wake = min_wake.min(next_wake);
                    still.push(h);
                }
                PollStatus::Exited(exit) => done.push(exit),
            }
        }
        hosted = still;
        if hosted.is_empty() && stopping {
            return done;
        }
        // With nothing hosted (yet) this is a plain tick-long sleep.
        let timeout = min_wake.saturating_duration_since(Instant::now()).min(tick);
        ready = wait_io(&hosted, timeout);
        M_POLLS.inc();
        if ready.iter().any(|io| io.readable || io.writable) {
            M_POLL_BUSY.inc();
        }
        // Wake lag: how far past the earliest requested deadline the loop
        // actually resumed — scheduling latency every hosted timer sits
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

/// Blocks across every hosted fd until something is ready (or the
/// timeout), and folds the revents back into per-item readiness.
#[cfg(unix)]
fn wait_io<H: Hosted>(hosted: &[H], timeout: Duration) -> Vec<IoReadiness> {
    let mut raw: Vec<(std::os::fd::RawFd, bool)> = Vec::new();
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut spans: Vec<std::ops::Range<usize>> = Vec::with_capacity(hosted.len());
    for h in hosted {
        let start = fds.len();
        raw.clear();
        h.io_fds(&mut raw);
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
        Ok(0) => vec![IoReadiness::default(); hosted.len()],
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
            vec![IoReadiness::all(); hosted.len()]
        }
    }
}

#[cfg(not(unix))]
fn wait_io<H: Hosted>(hosted: &[H], timeout: Duration) -> Vec<IoReadiness> {
    std::thread::sleep(timeout);
    vec![IoReadiness::all(); hosted.len()]
}
