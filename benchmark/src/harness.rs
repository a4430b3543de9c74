//! Pass loop, clocks and order statistics shared by the five workloads.
//!
//! Every workload is a loop of identical seeded **passes**. Each pass is
//! timed (wall and process CPU) and every timing the benchmark reports is
//! a median over passes, so a noisy-neighbour burst that lands on a few
//! passes cannot move a run.
//!
//! (The best pass instead of the median was tried, since a shared host only
//! ever slows a pass down. It is no quieter across runs — over six seeds
//! per workload the two spread alike on the single-threaded workloads — and
//! much noisier where a pass has a fast and a slow mode of its own:
//! `predict_par`'s p90 ranged over 17.6 % by best pass and 6.2 % by median.)

use std::time::{Duration, Instant};

use crate::spans::Recorder;

/// Process CPU time (user + system, all threads) in seconds.
///
/// This is the quantity `/proc/self/stat` reports as `utime + stime`, read
/// through `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)` because the `/proc`
/// fields tick at 10 ms: a 2 s `live_overlay` window burns only a few
/// dozen ticks, and the rounding alone would be several percent of the
/// metric's bound.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target this benchmark supports), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// `VmHWM` (peak resident set) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands every free heap page back to the kernel (glibc's `malloc_trim`,
/// which also coalesces the allocator's small free chunks). Called once
/// input generation has dropped everything but the inputs, so that what
/// generation allocated and freed — a seed-dependent amount — neither
/// shapes the heap the timed passes allocate from nor counts as resident.
pub fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim takes no pointers and may be called at any time;
    // no allocator call of this thread is in progress.
    unsafe { malloc_trim(0) };
}

/// Resets the kernel's resident-set high-water mark to the current
/// resident set, just before the first timed pass, so that `VmHWM` at exit
/// is the peak of the timed passes and not of input generation. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// What one timed pass produced.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Wall time of the timed region.
    pub wall_s: f64,
    /// Process CPU burnt inside the timed region.
    pub cpu_s: f64,
    /// Units of work completed (workload-defined).
    pub units: f64,
    /// One latency sample per unit of latency (workload-defined), in ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted / failed (checks included).
    pub attempted: u64,
    pub failed: u64,
}

/// Brackets a timed region with the wall and CPU clocks.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: process_cpu_s(),
            wall: Instant::now(),
        }
    }

    /// (wall seconds, CPU seconds) since `start`.
    pub fn stop(self) -> (f64, f64) {
        let wall = self.wall.elapsed().as_secs_f64();
        (wall, process_cpu_s() - self.cpu)
    }
}

/// A workload after set-up: inputs generated, one warm-up pass done.
pub trait Workload {
    /// Runs one pass. `rec` is off on end-to-end runs.
    fn pass(&mut self, rec: &mut Recorder) -> Pass;
    /// One line describing a pass (sizes, thread budget), for the report.
    fn describe(&self) -> String;
    /// Output checks that need the whole run (invariants, teardown);
    /// returns (attempted, failed) and prints one line per check.
    fn final_checks(&mut self) -> (u64, u64);
    /// The outcomes `expected.json` pins for seed 1: its section key and a
    /// JSON value holding verdicts, filters and outcome hashes — no cost.
    fn outcome(&self) -> Option<(&'static str, String)> {
        None
    }
}

/// The six end-to-end metrics of one run, plus the counts.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub work_per_s: f64,
    pub unit_latency_p50_ms: f64,
    pub unit_latency_p90_ms: f64,
    pub cpu_ms_per_unit: f64,
    pub peak_rss_mb: f64,
    pub passes: usize,
    pub min_latency_samples: usize,
    pub attempted: u64,
    pub failed: u64,
}

/// Fewest timed passes of a measured run, however slow the host.
pub const MIN_PASSES: usize = 8;

/// Runs passes until `budget` has elapsed and `at_least` passes are done,
/// and returns them.
pub fn run_passes(
    w: &mut dyn Workload,
    rec: &mut Recorder,
    budget: Duration,
    at_least: usize,
) -> Vec<Pass> {
    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        // Start another pass only if most of it fits: the run then ends
        // within about half a pass of the requested length.
        let typical = passes.last().map_or(0.0, |p| p.wall_s);
        let used = t0.elapsed().as_secs_f64();
        if passes.len() >= at_least && used + typical / 2.0 >= budget.as_secs_f64() {
            break;
        }
        passes.push(w.pass(rec));
    }
    passes
}

/// The median of `f` over the passes.
pub fn over_passes(passes: &[Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Folds passes into the run's end-to-end metrics (medians over passes).
pub fn summarize(passes: &[Pass], setup_s: f64) -> EndToEnd {
    EndToEnd {
        setup_s,
        work_per_s: over_passes(passes, |p| p.units / p.wall_s),
        unit_latency_p50_ms: over_passes(passes, |p| percentile(&p.latencies_ms, 0.50)),
        unit_latency_p90_ms: over_passes(passes, |p| percentile(&p.latencies_ms, 0.90)),
        cpu_ms_per_unit: over_passes(passes, |p| p.cpu_s * 1e3 / p.units),
        peak_rss_mb: peak_rss_mb(),
        passes: passes.len(),
        min_latency_samples: passes
            .iter()
            .map(|p| p.latencies_ms.len())
            .min()
            .unwrap_or(0),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed: passes.iter().map(|p| p.failed).sum(),
    }
}

/// SplitMix64: the benchmark's own seeded stream, so input generation
/// does not depend on any generator inside the program under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        let a: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .map(|_| 0)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
        assert!(Rng::new(1).below(10) < 10);
    }

    #[test]
    fn cpu_clock_advances() {
        let a = process_cpu_s();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s() > a);
        assert!(peak_rss_mb() > 0.0);
    }
}
