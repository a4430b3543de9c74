//! `cb-obs`: outcome-invisible tracing and metrics for the CrystalBall
//! workspace.
//!
//! The paper's whole pitch is a *latency race* — consequence prediction
//! must finish and install a filter before the live execution reaches the
//! predicted state (§3's checkpoint-interval / prediction-depth budget) —
//! yet aggregate counters cannot show *where a single
//! gather→predict→install round spent its time*. This crate records a
//! causality-tagged event timeline cheap enough to leave compiled in:
//!
//! * **Recorder**: every thread that records events owns a fixed-capacity
//!   ring buffer it alone writes (no locks, no atomics on the hot path
//!   beyond one relaxed `enabled` load). Wraparound drops the *oldest*
//!   events and counts the drops; rings flush to a global sink on thread
//!   exit, on [`flush_thread`], and on [`drain`].
//! * **Events**: [`Span`](EventKind::Span)s (complete begin/end pairs,
//!   recorded at end), instants, and counter/gauge samples — each tagged
//!   with a thread id and an optional **causality id** (the round id that
//!   joins a node's gather, the wire submission, the checker's replay,
//!   and the filter-install receipt into one traceable round).
//! * **Disabled = off**: recording is gated on one relaxed atomic load
//!   and the default is off ([`enabled`] is `false` until [`enable`]
//!   flips it; the crate reads no environment variable — a binary's
//!   `--trace` flag does). Nothing in this crate is ever *read* by a
//!   deterministic surface — observability data flows out through
//!   [`drain`] into export files only, mirroring the `CacheCounters`
//!   precedent: trace-on and trace-off runs produce byte-identical
//!   deterministic outputs.
//! * **Export**: [`chrome`] renders the drained trace as trace-event JSON
//!   (loadable in `about:tracing` / Perfetto) and as a compact JSONL
//!   event log; [`json`] is the shared escaping-correct JSON writer the
//!   workspace's stats surfaces render through.
//! * **Live metrics**: [`metrics`] is the *online* counterpart —
//!   counters/gauges/histograms scrapeable in Prometheus text format
//!   while the deployment runs ([`MetricsServer`]) — and [`health`]
//!   turns them into threshold-rule alerts, including the first-class
//!   predicted-violation alert joinable to the trace by round id.

#![forbid(unsafe_code)]

pub mod chrome;
pub mod health;
pub mod json;
pub mod metrics;
mod ring;

pub use metrics::{Histogram, MetricsServer};

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity, in events (override per-process with
/// [`enable_with_capacity`]).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 15;

/// What one recorded event is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A completed span: `ts_us` is the begin time, `dur_us` the length.
    Span {
        /// Span duration in µs.
        dur_us: u64,
    },
    /// A point-in-time marker.
    Instant,
    /// A counter/gauge sample.
    Counter {
        /// The sampled value.
        value: i64,
    },
}

/// One recorded event. Names and categories are `&'static str` so the
/// hot path never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Event name (`"node.gather"`, `"mc.merge"`, ...).
    pub name: &'static str,
    /// Category (`"live"`, `"mc"`, `"checker"`, ...).
    pub cat: &'static str,
    /// µs since the recorder's epoch (span begin time for spans).
    pub ts_us: u64,
    /// Recorder-assigned thread id (dense, starts at 1).
    pub tid: u64,
    /// Causality id — the round id for checker rounds; 0 = untagged.
    pub id: u64,
    /// Span / instant / counter payload.
    pub kind: EventKind,
}

/// Everything [`drain`] hands to the exporters.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// All flushed events, in flush order (within one thread: record
    /// order, oldest first).
    pub events: Vec<Event>,
    /// `(tid, thread name)` for every thread that recorded.
    pub threads: Vec<(u64, String)>,
    /// Events lost to ring wraparound across all threads.
    pub dropped: u64,
}

struct Global {
    epoch: Instant,
    sink: Mutex<Vec<Event>>,
    threads: Mutex<Vec<(u64, String)>>,
    dropped: AtomicU64,
    ring_capacity: AtomicUsize,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static GLOBAL: OnceLock<Global> = OnceLock::new();

pub(crate) fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        epoch: Instant::now(),
        sink: Mutex::new(Vec::new()),
        threads: Mutex::new(Vec::new()),
        dropped: AtomicU64::new(0),
        ring_capacity: AtomicUsize::new(DEFAULT_RING_CAPACITY),
    })
}

/// Whether recording is on. One relaxed load — this is the *entire* cost
/// of every instrumentation point in a disabled run.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on (with the ring capacity last set, by default
/// [`DEFAULT_RING_CAPACITY`]).
pub fn enable() {
    global();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording on with an explicit per-thread ring capacity.
pub fn enable_with_capacity(capacity: usize) {
    global()
        .ring_capacity
        .store(capacity.max(1), Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns recording off. Already-buffered events stay until [`drain`].
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// µs since the recorder's epoch.
#[inline]
pub fn now_us() -> u64 {
    global().epoch.elapsed().as_micros() as u64
}

fn record(event: Event) {
    ring::push(event);
}

/// Ends its span (and records it) on drop. A disabled recorder hands out
/// inert guards — no timestamp is even taken.
#[must_use = "a span guard records on drop; binding it to _ ends the span immediately"]
pub struct SpanGuard {
    open: Option<(&'static str, &'static str, u64, u64)>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((name, cat, id, start)) = self.open.take() {
            let dur_us = now_us().saturating_sub(start);
            record(Event {
                name,
                cat,
                ts_us: start,
                tid: 0,
                id,
                kind: EventKind::Span { dur_us },
            });
        }
    }
}

/// Opens a span; it ends (and is recorded) when the guard drops.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> SpanGuard {
    span_id(name, cat, 0)
}

/// [`span`] tagged with a causality id (0 = untagged).
#[inline]
pub fn span_id(name: &'static str, cat: &'static str, id: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { open: None };
    }
    SpanGuard {
        open: Some((name, cat, id, now_us())),
    }
}

/// Records a span whose begin time the caller captured earlier (for
/// spans that straddle poll iterations, e.g. a node's gather→install
/// round). `start_us` comes from [`now_us`].
#[inline]
pub fn complete_span(name: &'static str, cat: &'static str, id: u64, start_us: u64) {
    if !enabled() {
        return;
    }
    let dur_us = now_us().saturating_sub(start_us);
    record(Event {
        name,
        cat,
        ts_us: start_us,
        tid: 0,
        id,
        kind: EventKind::Span { dur_us },
    });
}

/// Records a point-in-time marker.
#[inline]
pub fn instant(name: &'static str, cat: &'static str) {
    instant_id(name, cat, 0);
}

/// [`instant`] tagged with a causality id.
#[inline]
pub fn instant_id(name: &'static str, cat: &'static str, id: u64) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        cat,
        ts_us: now_us(),
        tid: 0,
        id,
        kind: EventKind::Instant,
    });
}

/// Records a counter/gauge sample.
#[inline]
pub fn counter(name: &'static str, cat: &'static str, value: i64) {
    if !enabled() {
        return;
    }
    record(Event {
        name,
        cat,
        ts_us: now_us(),
        tid: 0,
        id: 0,
        kind: EventKind::Counter { value },
    });
}

/// Flushes the calling thread's ring into the global sink. Threads flush
/// automatically on exit; call this from long-lived threads before a
/// mid-run [`drain`].
pub fn flush_thread() {
    ring::flush_current();
}

/// Trace events lost to ring-buffer wraparound, as counted by flushed
/// rings (live threads' unflushed drops are not yet visible). Stats
/// surfaces report this so trace loss is never silent; the
/// `trace_ring_drops` health rule alerts on it.
pub fn dropped_events() -> u64 {
    global().dropped.load(Ordering::Relaxed)
}

/// Flushes the calling thread and takes everything the sink holds.
/// Other *live* threads' rings are not visible — drain after joining the
/// workers whose events you want (thread exit flushes their rings).
pub fn drain() -> Trace {
    ring::flush_current();
    let g = global();
    let events = std::mem::take(&mut *g.sink.lock().expect("obs sink poisoned"));
    let threads = g.threads.lock().expect("obs threads poisoned").clone();
    let dropped = g.dropped.load(Ordering::Relaxed);
    Trace {
        events,
        threads,
        dropped,
    }
}

// The log2 `Histogram` lives in [`metrics`] now (promoted alongside its
// atomic registry form); the root re-export keeps existing users working.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_hands_out_inert_guards() {
        // The default state is off: guards are inert and record nothing.
        // (Enabling here would race the other tests in this binary; the
        // enabled-path tests live in `ring` and the integration suite.)
        if !enabled() {
            let g = span("test.noop", "test");
            drop(g);
            instant("test.noop", "test");
            counter("test.noop", "test", 1);
        }
    }
}
