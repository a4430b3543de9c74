//! The repository's benchmark: five workloads, six end-to-end metrics,
//! and a traced run that prints the per-layer metrics. See README.md.

mod aa;
mod fleet;
mod harness;
mod inputs;
mod layers;
mod overlay;
mod predict;
mod round;
mod spans;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use harness::{run_passes, summarize, EndToEnd, Workload};
use spans::Recorder;

/// (name, why) of the five workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "predict_seq",
        "140 searches of live states of all four protocols on the sequential engine, 1 thread: cb-mc, cb-model and cb-protocols alone",
    ),
    (
        "predict_par",
        "the identical searches on the parallel engine with 2 workers: the same layer through the lock-free explored table and sharded merge",
    ),
    (
        "round_inproc",
        "300 checking rounds through the whole encode-to-install path in one address space, a quarter re-submitted: snapshot codec, frames, checker service and cache",
    ),
    (
        "fleet_steer",
        "a steered RandTree + Paxos + Bullet' fleet under a seeded fault plan, driver + 1 checker lane: runtime, net, fleet scheduler and controller hooks",
    ),
    (
        "live_overlay",
        "a 48-node RandTree overlay on one reactor thread over loopback TCP, open loop: reactor, peers, frame I/O and socket gathers while the checker idles",
    ),
];

/// (name, unit, better, bound) of the end-to-end metrics. A bound is the
/// share by which a later change may worsen the metric's median; it is set
/// above the widest interquartile spread between runs of the same code
/// measured on the reference host (README, "A/A on this host").
pub const END_TO_END: [(&str, &str, &str, f64); 6] = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.20),
    ("unit_latency_p50_ms", "ms", "lower", 0.20),
    ("unit_latency_p90_ms", "ms", "lower", 0.25),
    ("cpu_ms_per_unit", "ms", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
];
pub const RUN_SECONDS: u64 = 20;

/// Outcomes of seed 1, pinned (see `Workload::outcome`).
const EXPECTED: &str = include_str!("../expected.json");

enum Mode {
    Run,
    Quick,
    Aa(usize),
    PrintExpected,
}

struct Args {
    mode: Mode,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
    eprintln!(
        "usage: benchmark --workload <{}> [--seed <u64>] [--seconds <n>] [--trace <0|1>] \
         [--trace-out <path>]\n       benchmark --quick | --aa <runs per set> | --print-expected",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        mode: Mode::Run,
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--trace-out" => a.trace_out = Some(value().into()),
            "--quick" => a.mode = Mode::Quick,
            "--aa" => a.mode = Mode::Aa(value().parse().unwrap_or_else(|_| usage())),
            "--print-expected" => a.mode = Mode::PrintExpected,
            _ => usage(),
        }
    }
    if matches!(a.mode, Mode::Run) && !WORKLOADS.iter().any(|w| w.0 == a.workload) {
        usage();
    }
    a
}

/// Every knob is set explicitly in the workloads' configurations; a `CB_*`
/// variable could still reach a `Default::default()` deep inside a layer,
/// so any that is set is reported and removed before a thread exists.
fn scrub_env() {
    let found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CB_"))
        .collect();
    for k in found {
        println!("ignoring environment variable {k} (unset for this run)");
        std::env::remove_var(&k);
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// nproc, compiler, profile, load at start — and a loud warning on a host
/// that cannot run two threads at once.
fn fingerprint(a: &Args) {
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    println!(
        "workload {}  seed {}  seconds {}  trace {}  profile {}  nproc {}  {}  load average {}",
        if a.workload.is_empty() {
            "(all)"
        } else {
            &a.workload
        },
        a.seed,
        a.seconds,
        u8::from(a.trace),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        nproc(),
        env!("BENCH_RUSTC"),
        load.join(" "),
    );
    if nproc() < 2 {
        println!(
            "WARNING: nproc = {} < 2. predict_par, fleet_steer and live_overlay need two runnable \
             threads and are OVER-SUBSCRIBED on this host: their numbers are UNRELIABLE.",
            nproc()
        );
    }
    if cfg!(debug_assertions) {
        println!("WARNING: debug build. Nothing it prints is a measurement.");
    }
}

fn setup(name: &str, seed: u64, quick: bool) -> Box<dyn Workload> {
    match name {
        "predict_seq" => Box::new(predict::Predict::setup(seed, false, quick)),
        "predict_par" => Box::new(predict::Predict::setup(seed, true, quick)),
        "round_inproc" => Box::new(round::RoundInproc::setup(seed, quick)),
        "fleet_steer" => Box::new(fleet::FleetSteer::setup(seed, quick)),
        "live_overlay" => Box::new(overlay::LiveOverlay::setup(seed, quick)),
        _ => usage(),
    }
}

fn end_to_end_values(e: &EndToEnd) -> [f64; 6] {
    [
        e.setup_s,
        e.work_per_s,
        e.unit_latency_p50_ms,
        e.unit_latency_p90_ms,
        e.cpu_ms_per_unit,
        e.peak_rss_mb,
    ]
}

/// Compares a workload's outcomes with `expected.json` (seed 1, full size
/// only). Returns (attempted, failed).
fn check_expected(w: &dyn Workload, seed: u64) -> (u64, u64) {
    let Some((key, json)) = w.outcome() else {
        return (0, 0);
    };
    if seed != 1 {
        return (0, 0);
    }
    let expected = cb_obs::json::parse(EXPECTED).expect("expected.json parses");
    let got = cb_obs::json::parse(&json).expect("outcome JSON parses");
    let same = expected.get(key) == Some(&got);
    println!(
        "  check outcomes equal expected.json[{key}]  {}",
        if same { "ok" } else { "FAILED" }
    );
    if !same {
        eprintln!("expected.json[{key}] differs; this run's outcomes:\n{json}");
    }
    (1, u64::from(!same))
}

fn result_line(attempted: u64, failed: u64, metrics: &[(&str, f64, &str)]) -> String {
    let m: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{v},\"unit\":\"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted.max(1),
        m.join(",")
    )
}

/// One end-to-end run: set-up, timed passes, checks, the six metrics.
fn run_end_to_end(a: &Args, start: Instant) {
    // Set-up is measured once. Setting up again and keeping the quicker
    // would steady `setup_s`, but 114 driver runs and two builds share 3420
    // seconds, and a second set-up of every run does not fit.
    let mut w = setup(&a.workload, a.seed, false);
    let setup_s = start.elapsed().as_secs_f64();
    if !harness::reset_peak_rss() {
        println!("  note: /proc/self/clear_refs refused; peak_rss_mb includes input generation");
    }
    let passes = run_passes(
        w.as_mut(),
        &mut Recorder::new(false),
        Duration::from_secs(a.seconds),
        harness::MIN_PASSES,
    );
    let e = summarize(&passes, setup_s);
    println!("  {}", w.describe());
    println!(
        "  {} timed passes (median pass {:.3} s), at least {} latency samples in each",
        e.passes,
        harness::over_passes(&passes, |p| p.wall_s),
        e.min_latency_samples
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!("  pass wall times, s: {}", walls.join(" "));
    let values = end_to_end_values(&e);
    for ((name, unit, better, _), v) in END_TO_END.iter().zip(values) {
        println!("  {name:<24} {v:>14.4} {unit:<5} ({better} is better)");
    }
    let (mut attempted, mut failed) = (e.attempted, e.failed);
    for (a2, f2) in [w.final_checks(), check_expected(w.as_ref(), a.seed)] {
        attempted += a2;
        failed += f2;
    }
    println!("  attempted {attempted}, failed {failed}");
    let metrics: Vec<(&str, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((n, u, _, _), v)| (*n, v, *u))
        .collect();
    println!("{}", result_line(attempted, failed, &metrics));
}

/// Where a traced run's chrome trace goes unless `--trace-out` says so:
/// next to the build products, which the repository ignores.
fn default_trace_out(workload: &str) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("benchmark/target"), PathBuf::from);
    dir.join(format!("trace-{workload}.json"))
}

/// One traced run: every per-layer metric, and the chrome trace.
fn run_traced(a: &Args) {
    let p = layers::profile(a.seed, a.seconds);
    let mut missing = 0;
    let mut metrics = Vec::new();
    println!("per-layer metrics:");
    for (name, unit, better) in layers::PER_LAYER {
        match p.values.get(name) {
            Some(v) if v.is_finite() => {
                println!("  {name:<38} {v:>16.4} {unit:<6} ({better} is better)");
                metrics.push((*name, *v, *unit));
            }
            _ => {
                println!("  {name:<38} MISSING");
                missing += 1;
            }
        }
    }
    let out = a
        .trace_out
        .clone()
        .unwrap_or_else(|| default_trace_out(&a.workload));
    match p.rec.write_chrome(&out) {
        Ok(()) => println!(
            "  {} spans ({} beyond the recorder's capacity dropped) -> {}",
            p.rec.len(),
            p.rec.dropped(),
            out.display()
        ),
        Err(e) => {
            eprintln!("writing {} failed: {e}", out.display());
            missing += 1;
        }
    }
    let failed = p.failed + missing;
    println!("  attempted {}, failed {failed}", p.attempted);
    println!("{}", result_line(p.attempted, failed, &metrics));
}

/// Smoke mode: every workload at reduced size, two passes, checks only.
fn run_quick(seed: u64) -> bool {
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        let t = Instant::now();
        let mut w = setup(name, seed, true);
        let passes = run_passes(w.as_mut(), &mut Recorder::new(false), Duration::ZERO, 2);
        println!("{name}: {}", w.describe());
        let failed: u64 = passes.iter().map(|p| p.failed).sum::<u64>() + w.final_checks().1;
        println!(
            "{name}: {} in {:.2} s",
            if failed == 0 { "ok" } else { "FAILED" },
            t.elapsed().as_secs_f64()
        );
        all_ok &= failed == 0;
    }
    all_ok
}

/// Prints `expected.json` for seed 1 from this build's outcomes.
fn print_expected() {
    let mut sections = Vec::new();
    for name in ["predict_seq", "round_inproc", "fleet_steer"] {
        let w = setup(name, 1, false);
        let (key, json) = w.outcome().expect("pins outcomes");
        sections.push(format!("  \"{key}\": {json}"));
    }
    println!("{{\n  \"seed\": 1,\n{}\n}}", sections.join(",\n"));
}

fn main() {
    let start = Instant::now();
    let args = parse_args();
    scrub_env();
    let ok = match args.mode {
        Mode::PrintExpected => {
            print_expected();
            true
        }
        Mode::Aa(runs) => aa::run(runs, args.seconds),
        Mode::Quick => {
            fingerprint(&args);
            run_quick(args.seed)
        }
        Mode::Run => {
            fingerprint(&args);
            if args.trace {
                run_traced(&args);
            } else {
                run_end_to_end(&args, start);
            }
            // A failed check is in the result line (`correct`, `failed`),
            // which is what a caller of a measured run reads.
            true
        }
    };
    if !ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` is written by hand; this keeps it listing exactly
    /// the workloads and metrics the program reports.
    #[test]
    fn benchmark_json_lists_what_the_program_reports() {
        let json = cb_obs::json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            let items = json.get(key).and_then(|v| v.as_arr()).expect("a list");
            let field = |item: &cb_obs::json::Value, f: &str| {
                item.get(f)
                    .and_then(|v| v.as_str())
                    .expect("a string")
                    .to_string()
            };
            items
                .iter()
                .map(|i| fields.iter().map(|f| field(i, f)).collect())
                .collect()
        };
        let rows = |table: &[(&str, &str, &str)]| -> Vec<Vec<String>> {
            let row =
                |r: &(&str, &str, &str)| vec![r.0.to_string(), r.1.to_string(), r.2.to_string()];
            table.iter().map(row).collect()
        };
        let workloads: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.0.to_string(), w.1.to_string()])
            .collect();
        assert_eq!(list("workloads", &["name", "why"]), workloads);
        let end_to_end: Vec<(&str, &str, &str)> =
            END_TO_END.iter().map(|m| (m.0, m.1, m.2)).collect();
        assert_eq!(
            list("end_to_end", &["name", "unit", "better"]),
            rows(&end_to_end)
        );
        assert_eq!(
            list("per_layer", &["name", "unit", "better"]),
            rows(layers::PER_LAYER)
        );
        let listed = json
            .get("end_to_end")
            .and_then(|v| v.as_arr())
            .expect("a list");
        for (metric, listed) in END_TO_END.iter().zip(listed) {
            assert_eq!(listed.get("bound").and_then(|b| b.as_f64()), Some(metric.3));
        }
        assert_eq!(
            json.get("run_seconds").and_then(|v| v.as_u64()),
            Some(RUN_SECONDS)
        );
    }
}
