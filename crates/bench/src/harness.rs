//! Shared helpers for the throughput bench harnesses: section headers,
//! adaptive units, a micro-benchmark timer and the `--trace`/`--metrics`
//! flags. Harnesses honor `CB_BENCH_FAST=1` to shrink workloads (used by
//! CI smoke runs).

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

/// Resolves this bench run's trace destination: a `--trace PATH` CLI flag
/// (cargo passes post-`--` args through to `harness = false` benches).
/// Enables the `cb-obs` recorder when a destination is set; otherwise the
/// run pays one relaxed atomic load per instrumentation point.
pub fn trace_arg() -> Option<std::path::PathBuf> {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    while let Some(a) = args.next() {
        if a == "--trace" {
            path = Some(std::path::PathBuf::from(
                args.next().expect("--trace needs a file path"),
            ));
        } else if let Some(p) = a.strip_prefix("--trace=") {
            path = Some(std::path::PathBuf::from(p));
        }
    }
    if path.is_some() {
        cb_obs::enable();
    }
    path
}

/// Resolves this bench run's metrics bind address: a `--metrics ADDR`
/// (or `--metrics` alone, defaulting to a free loopback port) CLI flag.
/// Starts the scrape server — which enables the metrics registry — when
/// an address is set; the returned server carries the bound address and
/// stops on drop. `--alerts PATH` routes the plane's alerts (health
/// rules, predicted violations) to a JSONL file as well.
pub fn metrics_arg() -> Option<cb_obs::MetricsServer> {
    let mut args = std::env::args().skip(1).peekable();
    let mut bind: Option<String> = None;
    while let Some(a) = args.next() {
        if a == "--metrics" {
            // The address operand is optional: a bare `--metrics` serves
            // on an ephemeral loopback port (printed below).
            bind = Some(match args.peek() {
                Some(next) if !next.starts_with("--") => args.next().unwrap(),
                _ => "127.0.0.1:0".to_string(),
            });
        } else if let Some(addr) = a.strip_prefix("--metrics=") {
            bind = Some(addr.to_string());
        } else if a == "--alerts" {
            cb_obs::health::set_alert_path(args.next().expect("--alerts needs a file path"));
        } else if let Some(path) = a.strip_prefix("--alerts=") {
            cb_obs::health::set_alert_path(path);
        }
    }
    let bind = bind?;
    let server = cb_obs::MetricsServer::bind(bind.as_str()).expect("bind metrics endpoint");
    println!(
        "(metrics: serving Prometheus text on http://{})",
        server.addr()
    );
    Some(server)
}

/// Scrapes `server` through its real TCP endpoint and writes the
/// exposition to `path` — how benches produce the scrape files
/// `tools/metrics-check` diffs for monotonicity.
pub fn dump_metrics(server: &cb_obs::MetricsServer, path: &std::path::Path) {
    let body = cb_obs::metrics::fetch(server.addr(), Duration::from_secs(5))
        .expect("scrape own metrics endpoint");
    std::fs::write(path, &body).expect("write metrics dump");
    println!("(metrics: scrape -> {})", path.display());
}

/// Drains the recorder and writes the chrome-trace JSON (plus the
/// `.jsonl` event log) to `path` — the bench-side export for runs whose
/// deployments are built through adapters that hide the builder's
/// `trace` knob. Call after every deployment in the run has shut down.
pub fn export_trace(path: &std::path::Path) {
    let trace = cb_obs::drain();
    cb_obs::chrome::write_files(&trace, path).expect("write trace files");
    println!(
        "(trace: {} events, {} threads -> {})",
        trace.events.len(),
        trace.threads.len(),
        path.display()
    );
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
