//! Shared helpers for the throughput bench harnesses: section headers,
//! adaptive units and a micro-benchmark timer. Harnesses honor
//! `CB_BENCH_FAST=1` to shrink workloads (used by CI smoke runs) and
//! assert their own gates, so a run that breaks one exits non-zero.

use std::time::Duration;

/// Prints a section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints the standard "paper vs ours" preamble for a figure/table.
pub fn preamble(id: &str, paper_says: &str) {
    println!();
    println!("──────────────────────────────────────────────────────────────");
    println!("{id}");
    println!("  paper: {paper_says}");
    println!("──────────────────────────────────────────────────────────────");
}

/// True when the harness should shrink its workload.
pub fn fast_mode() -> bool {
    std::env::var("CB_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Formats a duration in adaptive units.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.0}µs", s * 1e6)
    }
}

/// Formats a byte count in adaptive units.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1024 * 1024 {
        format!("{:.2} MB", b as f64 / (1024.0 * 1024.0))
    } else if b >= 1024 {
        format!("{:.1} kB", b as f64 / 1024.0)
    } else {
        format!("{b} B")
    }
}

/// Times `f` and prints a Criterion-style one-liner: median over a small
/// sample set, each sample sized so the measurement dominates timer noise.
/// Returns the median duration of one call.
pub fn microbench<T>(name: &str, mut f: impl FnMut() -> T) -> Duration {
    use std::time::Instant;
    // Warm-up + calibration: target ≥ ~20ms per sample.
    let t0 = Instant::now();
    let _ = f();
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let per_sample = (Duration::from_millis(20).as_nanos() / once.as_nanos()).clamp(1, 10_000);
    let samples = if fast_mode() { 3 } else { 10 };
    let mut medians: Vec<Duration> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..per_sample {
            let _ = f();
        }
        medians.push(t0.elapsed() / per_sample as u32);
    }
    medians.sort();
    let med = medians[medians.len() / 2];
    println!(
        "{name:<45} {:>10}/iter  (min {}, max {}, {} samples x {} iters)",
        fmt_duration(med),
        fmt_duration(medians[0]),
        fmt_duration(medians[medians.len() - 1]),
        samples,
        per_sample
    );
    med
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7µs");
        assert_eq!(fmt_bytes(100), "100 B");
        assert_eq!(fmt_bytes(2048), "2.0 kB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
    }
}
