//! The live metrics plane: a process-global registry of monotonic
//! counters, gauges, and log2 histograms, scrapeable over HTTP in
//! Prometheus text format.
//!
//! PR 9's recorder answers *where did this round spend its time* after
//! the run ends; this module answers *how is the deployment doing right
//! now*, while 100+ reactor-multiplexed nodes are running. The design
//! mirrors the trace recorder's:
//!
//! * **Disabled = off**: every instrumentation point is gated on one
//!   relaxed atomic load ([`enabled`]), default off. Nothing here is ever
//!   *read* by a deterministic surface — metrics flow out through
//!   [`scrape`] only, so metrics-on and metrics-off runs produce
//!   byte-identical deterministic outputs (`tests/trace_invisibility.rs`
//!   proves it).
//! * **Lock-free recording**: counters are striped across cache-padded
//!   atomic cells indexed by a dense per-thread id — the per-thread
//!   ownership idea of the ring buffers, shrunk to a fixed stripe set so
//!   a scrape can aggregate without tracking thread lifetimes. Stripes
//!   are only ever incremented, so snapshot-on-scrape sums are monotone
//!   across scrapes. Gauges are single atomics; histograms are the
//!   workspace's 65-bucket log2 [`Histogram`] with every bucket (plus
//!   sum and count) atomic.
//! * **Static families**: a family is declared as a `static`
//!   [`Counter`]/[`Gauge`]/[`Hist`] at its instrumentation site and
//!   registers itself with the global registry on first touch, so the
//!   hot path after warm-up is one enabled-load plus one `OnceLock` get
//!   plus the atomic op.
//! * **Exposition**: [`scrape`] renders Prometheus text format 0.0.4 —
//!   `# HELP`/`# TYPE` headers, counter families named `*_total`,
//!   histograms as cumulative `_bucket{le="..."}` series with `_sum` and
//!   `_count`. [`MetricsServer`] serves it: std TCP, one thread, any GET
//!   answered with the exposition.

use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

// ---- the shared log2 histogram ------------------------------------------

pub(crate) const HIST_BUCKETS: usize = 65;

/// A log2-bucketed latency histogram: bucket *k* counts samples whose
/// bit length is *k* (so bucket 0 holds the value 0, bucket k holds
/// `[2^(k-1), 2^k)`). 65 buckets cover all of `u64`; recording is one
/// increment, and quantiles come back as the bucket's inclusive upper
/// bound — ±2× resolution, which is what a latency budget needs.
///
/// This is the single-threaded value type (`LiveStats` aggregates with
/// it); the registry's [`Hist`] families record into an atomic variant
/// of the same buckets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
        }
    }
}

impl Histogram {
    /// Folds one sample in.
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Folds another histogram in.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the inclusive
    /// upper bound of the bucket containing the `ceil(q·count)`-th
    /// sample. 0 with no samples.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(idx);
            }
        }
        bucket_upper(HIST_BUCKETS - 1)
    }
}

/// The bucket a value lands in: its bit length.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The inclusive upper bound of bucket `idx` (`0`, then `2^idx - 1`).
pub(crate) fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

// ---- recording cores -----------------------------------------------------

/// Stripe count for counters. A power of two, sized for "a handful of
/// reactor threads plus checker lanes": enough to keep unrelated threads
/// off each other's cache lines most of the time without making scrapes
/// sum hundreds of cells.
const STRIPES: usize = 8;

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's counter stripe: a dense thread id mod
/// [`STRIPES`], assigned on first use (the ring buffers' per-thread
/// ownership, folded onto a fixed stripe set).
#[inline]
fn stripe_ix() -> usize {
    STRIPE
        .try_with(|c| {
            let mut v = c.get();
            if v == usize::MAX {
                v = NEXT_THREAD.fetch_add(1, Ordering::Relaxed) % STRIPES;
                c.set(v);
            }
            v
        })
        .unwrap_or(0)
}

/// One cache line per stripe so two threads bumping different stripes
/// never contend on the same line.
#[repr(align(64))]
struct PaddedCell(AtomicU64);

struct CounterCore {
    stripes: [PaddedCell; STRIPES],
}

impl CounterCore {
    fn new() -> CounterCore {
        CounterCore {
            stripes: std::array::from_fn(|_| PaddedCell(AtomicU64::new(0))),
        }
    }

    #[inline]
    fn add(&self, v: u64) {
        self.stripes[stripe_ix()].0.fetch_add(v, Ordering::Relaxed);
    }

    /// Stripes only ever grow, so this sum is monotone across scrapes.
    fn value(&self) -> u64 {
        self.stripes
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

struct GaugeCore(AtomicU64);

struct HistCore {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl HistCore {
    fn new() -> HistCore {
        HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    #[inline]
    fn observe(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

// ---- registry ------------------------------------------------------------

enum FamilyData {
    Counter(&'static CounterCore),
    Gauge(&'static GaugeCore),
    Hist(&'static HistCore),
}

struct FamilyEntry {
    name: &'static str,
    help: &'static str,
    data: FamilyData,
}

struct Registry {
    families: Mutex<Vec<FamilyEntry>>,
}

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Registry> = OnceLock::new();

fn registry() -> &'static Registry {
    REGISTRY.get_or_init(|| Registry {
        families: Mutex::new(Vec::new()),
    })
}

/// Whether metric recording is on. One relaxed load — the *entire* cost
/// of every instrumentation point in a disabled run.
#[inline]
pub fn enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// Turns metric recording on (idempotent) and installs the default
/// health rules if no monitor is installed yet. [`MetricsServer::bind`]
/// calls this; call it directly to record without serving.
pub fn enable() {
    registry();
    crate::health::ensure_default_monitor();
    METRICS_ENABLED.store(true, Ordering::SeqCst);
}

/// Turns metric recording off. Registered families keep their values.
pub fn disable() {
    METRICS_ENABLED.store(false, Ordering::SeqCst);
}

fn register(name: &'static str, help: &'static str, make: impl FnOnce() -> FamilyData) -> usize {
    let mut fams = registry()
        .families
        .lock()
        .expect("metrics registry poisoned");
    if let Some(ix) = fams.iter().position(|f| f.name == name) {
        return ix;
    }
    debug_assert!(
        name.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
        "metric family name {name:?} is not a valid Prometheus name"
    );
    fams.push(FamilyEntry {
        name,
        help,
        data: make(),
    });
    fams.len() - 1
}

// ---- static family handles ----------------------------------------------

/// A monotonic counter family, declared `static` at its instrumentation
/// site. Registers on first touch; [`Counter::add`] on a disabled
/// registry is one relaxed load.
pub struct Counter {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static CounterCore>,
}

impl Counter {
    /// Declares the family. `name` must end in `_total` (Prometheus
    /// convention; scrape readers key monotonicity off it): a `static`
    /// declaration with another name does not compile:
    ///
    /// ```compile_fail
    /// static BAD: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new("cb_bad", "");
    /// ```
    ///
    /// ```
    /// static OK: cb_obs::metrics::Counter = cb_obs::metrics::Counter::new("cb_ok_total", "");
    /// ```
    pub const fn new(name: &'static str, help: &'static str) -> Counter {
        assert!(
            matches!(name.as_bytes(), [.., b'_', b't', b'o', b't', b'a', b'l']),
            "a counter family is named *_total"
        );
        Counter {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn core(&self) -> &'static CounterCore {
        self.cell.get_or_init(|| {
            let core: &'static CounterCore = Box::leak(Box::new(CounterCore::new()));
            register(self.name, self.help, || FamilyData::Counter(core));
            // Re-resolve through the registry so two statics declaring the
            // same family name share one core.
            let fams = registry()
                .families
                .lock()
                .expect("metrics registry poisoned");
            match fams.iter().find(|f| f.name == self.name).map(|f| &f.data) {
                Some(FamilyData::Counter(c)) => c,
                _ => core,
            }
        })
    }

    /// Bumps the counter by `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.core().add(v);
    }

    /// Bumps the counter by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Registers the family without recording. Subsystem constructors
    /// call this so rarely-firing families (backpressure drops, dial
    /// failures, ...) still appear in every exposition at value 0 —
    /// "this plane is instrumented and quiet" is distinguishable from
    /// "this plane's recording points are gone".
    #[inline]
    pub fn touch(&self) {
        if enabled() {
            let _ = self.core();
        }
    }
}

/// A gauge family (a value that can go up or down), declared `static` at
/// its instrumentation site.
pub struct Gauge {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static GaugeCore>,
}

impl Gauge {
    /// Declares the family.
    pub const fn new(name: &'static str, help: &'static str) -> Gauge {
        Gauge {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn core(&self) -> &'static GaugeCore {
        self.cell.get_or_init(|| {
            let core: &'static GaugeCore = Box::leak(Box::new(GaugeCore(AtomicU64::new(0))));
            register(self.name, self.help, || FamilyData::Gauge(core));
            let fams = registry()
                .families
                .lock()
                .expect("metrics registry poisoned");
            match fams.iter().find(|f| f.name == self.name).map(|f| &f.data) {
                Some(FamilyData::Gauge(g)) => g,
                _ => core,
            }
        })
    }

    /// Stores the gauge's current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.core().0.store(v, Ordering::Relaxed);
    }

    /// Registers the family without recording (see [`Counter::touch`]).
    #[inline]
    pub fn touch(&self) {
        if enabled() {
            let _ = self.core();
        }
    }
}

/// A histogram family (the atomic form of [`Histogram`]), declared
/// `static` at its instrumentation site.
pub struct Hist {
    name: &'static str,
    help: &'static str,
    cell: OnceLock<&'static HistCore>,
}

impl Hist {
    /// Declares the family.
    pub const fn new(name: &'static str, help: &'static str) -> Hist {
        Hist {
            name,
            help,
            cell: OnceLock::new(),
        }
    }

    fn core(&self) -> &'static HistCore {
        self.cell.get_or_init(|| {
            let core: &'static HistCore = Box::leak(Box::new(HistCore::new()));
            register(self.name, self.help, || FamilyData::Hist(core));
            let fams = registry()
                .families
                .lock()
                .expect("metrics registry poisoned");
            match fams.iter().find(|f| f.name == self.name).map(|f| &f.data) {
                Some(FamilyData::Hist(h)) => h,
                _ => core,
            }
        })
    }

    /// Folds one sample into the histogram.
    #[inline]
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        self.core().observe(v);
    }

    /// Registers the family without recording (see [`Counter::touch`]).
    #[inline]
    pub fn touch(&self) {
        if enabled() {
            let _ = self.core();
        }
    }
}

// ---- snapshots -----------------------------------------------------------

/// A histogram family's scrape-time state.
#[derive(Clone, Debug)]
pub struct HistSample {
    /// `(inclusive upper bound, cumulative count ≤ bound)` per occupied
    /// bucket range, trimmed past the highest non-empty bucket.
    pub buckets: Vec<(u64, u64)>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistSample {
    /// The value at quantile `q` — the same ±2× log2 resolution as
    /// [`Histogram::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        for &(upper, cum) in &self.buckets {
            if cum >= rank {
                return upper;
            }
        }
        self.buckets.last().map(|&(u, _)| u).unwrap_or(0)
    }
}

/// One family's scrape-time value.
#[derive(Clone, Debug)]
pub enum SampleValue {
    /// Monotone counter total.
    Counter(u64),
    /// Last stored gauge value.
    Gauge(u64),
    /// Histogram state.
    Hist(HistSample),
}

/// One registered family, sampled.
#[derive(Clone, Debug)]
pub struct FamilySample {
    /// Family name (`cb_reactor_polls_total`, ...).
    pub name: &'static str,
    /// The `# HELP` line.
    pub help: &'static str,
    /// The sampled value.
    pub value: SampleValue,
}

/// A consistent-enough point-in-time view of every registered family
/// (counters are summed per family; cross-family skew is one scrape's
/// worth). Sorted by family name, so renders are stable.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// All sampled families, name-sorted.
    pub families: Vec<FamilySample>,
}

impl Snapshot {
    /// The named counter family's total, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match f.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
    }

    /// The named gauge family's value, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match f.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// The named histogram family's state, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistSample> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .and_then(|f| match &f.value {
                SampleValue::Hist(h) => Some(h),
                _ => None,
            })
    }
}

/// Samples every registered family.
pub fn snapshot() -> Snapshot {
    let fams = registry()
        .families
        .lock()
        .expect("metrics registry poisoned");
    let mut families: Vec<FamilySample> = fams
        .iter()
        .map(|f| FamilySample {
            name: f.name,
            help: f.help,
            value: match &f.data {
                FamilyData::Counter(c) => SampleValue::Counter(c.value()),
                FamilyData::Gauge(g) => SampleValue::Gauge(g.0.load(Ordering::Relaxed)),
                FamilyData::Hist(h) => {
                    let mut buckets = Vec::new();
                    let mut cum = 0u64;
                    let mut last_nonempty = 0usize;
                    let raw: Vec<u64> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    for (ix, &n) in raw.iter().enumerate() {
                        if n > 0 {
                            last_nonempty = ix;
                        }
                    }
                    for (ix, &n) in raw.iter().enumerate().take(last_nonempty + 1) {
                        cum += n;
                        buckets.push((bucket_upper(ix), cum));
                    }
                    SampleValue::Hist(HistSample {
                        buckets,
                        sum: h.sum.load(Ordering::Relaxed),
                        count: h.count.load(Ordering::Relaxed),
                    })
                }
            },
        })
        .collect();
    families.sort_by_key(|f| f.name);
    Snapshot { families }
}

// ---- exposition ----------------------------------------------------------

/// Renders a snapshot as Prometheus text format 0.0.4.
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for f in &snap.families {
        out.push_str("# HELP ");
        out.push_str(f.name);
        out.push(' ');
        out.push_str(f.help);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(f.name);
        match &f.value {
            SampleValue::Counter(v) => {
                out.push_str(" counter\n");
                out.push_str(&format!("{} {}\n", f.name, v));
            }
            SampleValue::Gauge(v) => {
                out.push_str(" gauge\n");
                out.push_str(&format!("{} {}\n", f.name, v));
            }
            SampleValue::Hist(h) => {
                out.push_str(" histogram\n");
                for &(upper, cum) in &h.buckets {
                    out.push_str(&format!("{}_bucket{{le=\"{}\"}} {}\n", f.name, upper, cum));
                }
                out.push_str(&format!("{}_bucket{{le=\"+Inf\"}} {}\n", f.name, h.count));
                out.push_str(&format!("{}_sum {}\n", f.name, h.sum));
                out.push_str(&format!("{}_count {}\n", f.name, h.count));
            }
        }
    }
    out
}

static TRACE_RING_DROPPED: Gauge = Gauge::new(
    "cb_trace_ring_dropped",
    "cb-obs trace events lost to ring-buffer wraparound (flushed rings)",
);
static SCRAPES: Counter = Counter::new("cb_metrics_scrapes_total", "metrics exposition scrapes");

/// One full scrape: refreshes scrape-time gauges (the trace-ring drop
/// counter), samples every family, mirrors counter/gauge values into the
/// trace recorder (so a drained trace carries genuine monotone counter
/// samples a test can cross-check against the scrapes it took),
/// evaluates the installed health rules, and renders the exposition.
pub fn scrape() -> String {
    SCRAPES.inc();
    TRACE_RING_DROPPED.set(crate::dropped_events());
    let snap = snapshot();
    if crate::enabled() {
        for f in &snap.families {
            match f.value {
                SampleValue::Counter(v) => crate::counter(f.name, "metrics", v as i64),
                SampleValue::Gauge(v) => crate::counter(f.name, "metrics", v as i64),
                SampleValue::Hist(_) => {}
            }
        }
    }
    crate::health::evaluate(&snap);
    render(&snap)
}

/// Health-only evaluation (the server's timer path): refreshes
/// scrape-time gauges and runs the rules without rendering.
pub fn evaluate_health() {
    TRACE_RING_DROPPED.set(crate::dropped_events());
    let snap = snapshot();
    crate::health::evaluate(&snap);
}

// ---- the server ----------------------------------------------------------

/// A tiny metrics endpoint: one thread, std TCP, every GET (any path)
/// answered with the current exposition. Binding [`enable`]s recording.
/// Dropping (or [`MetricsServer::stop`]) shuts the thread down.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds the endpoint (use port 0 for an ephemeral port) and starts
    /// serving. Also enables metric recording process-wide.
    pub fn bind(addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        enable();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let join = std::thread::Builder::new()
            .name("cb-metrics".into())
            .spawn(move || serve_loop(listener, &stop2))
            .expect("spawn metrics thread");
        Ok(MetricsServer {
            addr,
            stop,
            join: Some(join),
        })
    }

    /// The bound address (what to scrape).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: TcpListener, stop: &AtomicBool) {
    let mut last_health = std::time::Instant::now();
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = answer(stream);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Timer-path health evaluation: rules still fire on a
                // deployment nobody is scraping.
                if last_health.elapsed() >= Duration::from_secs(1) {
                    evaluate_health();
                    last_health = std::time::Instant::now();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn answer(mut stream: TcpStream) -> io::Result<()> {
    // Read until the end of the request head (or a bounded amount) — the
    // method/path are irrelevant, every request gets the exposition.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    let _ = stream.set_nodelay(true);
    let mut head = [0u8; 2048];
    let mut n = 0;
    while n < head.len() {
        match stream.read(&mut head[n..]) {
            Ok(0) => break,
            Ok(m) => {
                n += m;
                if head[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let body = scrape();
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    stream.write_all(resp.as_bytes())?;
    stream.flush()
}

/// A scrape *client* for tests, benches, and CI smoke runs: GETs the
/// endpoint and returns the exposition body (headers stripped).
pub fn fetch(addr: SocketAddr, timeout: Duration) -> io::Result<String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: cb\r\nConnection: close\r\n\r\n")?;
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf)?;
    let text = String::from_utf8_lossy(&buf);
    match text.split_once("\r\n\r\n") {
        Some((head, body)) if head.starts_with("HTTP/1.1 200") => Ok(body.to_string()),
        Some((head, _)) => Err(io::Error::other(format!(
            "metrics endpoint answered: {}",
            head.lines().next().unwrap_or("")
        ))),
        None => Err(io::Error::other("metrics endpoint sent no header")),
    }
}

/// Parses an exposition body back into `(name, value)` samples plus a
/// `name -> type` map — the consumer side of [`render`], for tests and
/// the scrape cross-checks. Histogram series surface under their
/// suffixed names (`fam_bucket{le="..."}` keyed as `fam_bucket:le`,
/// `fam_sum`, `fam_count`).
pub fn parse_exposition(body: &str) -> ParsedScrape {
    let mut types = VecDeque::new();
    let mut samples = Vec::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            if let (Some(name), Some(kind)) = (it.next(), it.next()) {
                types.push_back((name.to_string(), kind.to_string()));
            }
        } else if !line.starts_with('#') && !line.trim().is_empty() {
            let (series, value) = match line.rsplit_once(' ') {
                Some(p) => p,
                None => continue,
            };
            if let Ok(v) = value.trim().parse::<f64>() {
                samples.push((series.trim().to_string(), v));
            }
        }
    }
    ParsedScrape {
        types: types.into_iter().collect(),
        samples,
    }
}

/// [`parse_exposition`]'s output.
#[derive(Clone, Debug, Default)]
pub struct ParsedScrape {
    /// `(family name, type)` in exposition order.
    pub types: Vec<(String, String)>,
    /// `(series, value)` in exposition order (histogram series keep
    /// their label text).
    pub samples: Vec<(String, f64)>,
}

impl ParsedScrape {
    /// The value of a plain (unlabelled) series.
    pub fn value(&self, series: &str) -> Option<f64> {
        self.samples
            .iter()
            .find(|(s, _)| s == series)
            .map(|&(_, v)| v)
    }

    /// The declared type of a family.
    pub fn family_type(&self, name: &str) -> Option<&str> {
        self.types
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, t)| t.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so the enabled-path assertions
    // share one test body (mirroring the ring-buffer tests).
    #[test]
    fn record_snapshot_render_round_trip() {
        static HITS: Counter = Counter::new("cb_test_hits_total", "test counter");
        static DEPTH: Gauge = Gauge::new("cb_test_depth", "test gauge");
        static LAT: Hist = Hist::new("cb_test_latency_us", "test histogram");

        // Disabled: recording is a no-op and registers nothing.
        HITS.inc();
        assert!(snapshot().counter("cb_test_hits_total").is_none());

        enable();
        HITS.add(3);
        DEPTH.set(7);
        for v in [0, 1, 100, 5000] {
            LAT.observe(v);
        }
        // Cross-thread: stripes aggregate into one family total.
        let threads: Vec<_> = (0..4).map(|_| std::thread::spawn(|| HITS.inc())).collect();
        for t in threads {
            t.join().expect("join");
        }

        let snap = snapshot();
        assert_eq!(snap.counter("cb_test_hits_total"), Some(7));
        assert_eq!(snap.gauge("cb_test_depth"), Some(7));
        let h = snap.histogram("cb_test_latency_us").expect("hist sampled");
        assert_eq!(h.count, 4);
        assert_eq!(h.sum, 5101);
        assert_eq!(h.quantile(0.5), 1);
        assert_eq!(h.quantile(1.0), 8191);

        let text = render(&snap);
        assert!(text.contains("# TYPE cb_test_hits_total counter"));
        assert!(text.contains("cb_test_hits_total 7"));
        assert!(text.contains("# TYPE cb_test_depth gauge"));
        assert!(text.contains("# TYPE cb_test_latency_us histogram"));
        assert!(text.contains("cb_test_latency_us_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("cb_test_latency_us_sum 5101"));
        assert!(text.contains("cb_test_latency_us_count 4"));

        assert_exposition_format(&text);
        let parsed = parse_exposition(&text);
        assert_eq!(parsed.family_type("cb_test_hits_total"), Some("counter"));
        assert_eq!(parsed.value("cb_test_hits_total"), Some(7.0));
        assert_eq!(parsed.value("cb_test_latency_us_count"), Some(4.0));

        // Monotone across scrapes.
        HITS.inc();
        assert_eq!(snapshot().counter("cb_test_hits_total"), Some(8));

        // The server answers a real TCP GET with the exposition.
        let srv = MetricsServer::bind("127.0.0.1:0").expect("bind metrics");
        let body = fetch(srv.addr(), Duration::from_secs(5)).expect("fetch");
        assert!(body.contains("cb_test_hits_total 8"));
        assert!(body.contains("cb_metrics_scrapes_total"));
        srv.stop();

        disable();
        HITS.inc();
        assert_eq!(snapshot().counter("cb_test_hits_total"), Some(8));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0);
        for v in [0, 1, 2, 3, 4, 100, 1000, 100_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(1.0), (1u64 << 17) - 1);
        let mut other = Histogram::default();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.count(), 9);
        assert_eq!(h.quantile(1.0), u64::MAX);
    }

    /// The exposition's structural rules: every line parses, every
    /// sampled family has `# HELP` and `# TYPE`, counters are
    /// `_total`-named, a histogram's buckets are cumulative in ascending
    /// `le` order and end at `le="+Inf"`, which equals its `_count`, and no
    /// sample is negative.
    fn assert_exposition_format(text: &str) {
        let parsed = parse_exposition(text);
        let sample_lines = text.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(
            parsed.samples.len(),
            sample_lines,
            "a sample line did not parse"
        );
        let helps: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# HELP ")?.split(' ').next())
            .collect();
        for (series, v) in &parsed.samples {
            assert!(*v >= 0.0, "negative sample {series} = {v}");
            let name = series.split('{').next().unwrap_or(series);
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|s| name.strip_suffix(s))
                .find(|f| parsed.family_type(f) == Some("histogram"))
                .unwrap_or(name);
            assert!(helps.contains(&family), "{name}: no # HELP");
            match parsed.family_type(family) {
                Some("counter") => assert!(name.ends_with("_total"), "counter {name}"),
                Some("gauge" | "histogram") => {}
                other => panic!("{name}: # TYPE {other:?}"),
            }
        }
        for (family, _) in parsed.types.iter().filter(|(_, t)| t == "histogram") {
            let bucket = format!("{family}_bucket{{le=\"");
            let buckets: Vec<(f64, f64)> = parsed
                .samples
                .iter()
                .filter_map(|(s, v)| {
                    let le = s.strip_prefix(&bucket)?.strip_suffix("\"}")?;
                    Some((le.parse().expect("le parses, +Inf included"), *v))
                })
                .collect();
            assert!(
                buckets
                    .windows(2)
                    .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1),
                "{family}: buckets not cumulative in ascending le: {buckets:?}"
            );
            assert!(parsed.value(&format!("{family}_sum")).is_some());
            let last = buckets.last().expect("a +Inf bucket");
            assert_eq!(last.0, f64::INFINITY, "{family}: last bucket is not +Inf");
            let count = parsed.value(&format!("{family}_count"));
            assert_eq!(Some(last.1), count, "{family}: +Inf bucket != _count");
        }
    }
}
