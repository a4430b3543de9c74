//! `--aa N`: the A/A check. Runs every workload N times in two
//! interleaved sets (A1 B1 A2 B2 …; run *i* of set A with seed *i*, of set
//! B with seed *N + i*: every run another seed, as the acceptance driver
//! varies them) and prints, per workload and
//! end-to-end metric, both medians, the spread inside each set and
//! PASS/FAIL against the bound.
//!
//! A row passes when the two medians differ by no more than the metric's
//! bound and the range over the median inside either set stays within it. The
//! interquartile range over the median (`statistics.quantiles(values,
//! n=4)`, the acceptance driver's measure of spread) is printed beside it.

use std::process::Command;

use crate::{END_TO_END, WORKLOADS};

/// First and third quartile by the exclusive method Python's
/// `statistics.quantiles(values, n=4)` uses.
fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| -> f64 {
        let pos = q as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Runs one workload once in a child process; returns the six metrics.
fn one_run(workload: &str, seed: u64, seconds: u64) -> Option<Vec<f64>> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .ok()?;
    let stdout = String::from_utf8(out.stdout).ok()?;
    let line = stdout.lines().last()?;
    let json = cb_obs::json::parse(line).ok()?;
    if json.get("failed")?.as_u64()? != 0 {
        eprintln!("{workload} seed {seed}: checks failed\n{stdout}");
        return None;
    }
    let metrics = json.get("metrics")?;
    END_TO_END
        .iter()
        .map(|(name, _, _, _)| metrics.get(name)?.get("value")?.as_f64())
        .collect()
}

pub fn run(runs: usize, seconds: u64) -> bool {
    assert!(runs >= 2, "--aa needs at least 2 runs per set");
    println!(
        "A/A: {} workloads x 2 sets x {runs} runs of {seconds} s, sets interleaved, seeds 1..={runs} and {}..={}",
        WORKLOADS.len(),
        runs + 1,
        2 * runs
    );
    let mut all_pass = true;
    let mut rows = Vec::new();
    for (workload, _) in WORKLOADS {
        // sets[s][metric] = values over the set's runs
        let mut sets = vec![vec![Vec::new(); END_TO_END.len()]; 2];
        for i in 1..=runs as u64 {
            for (set, seed) in sets.iter_mut().zip([i, runs as u64 + i]) {
                match one_run(workload, seed, seconds) {
                    Some(values) => {
                        for (m, v) in values.into_iter().enumerate() {
                            set[m].push(v);
                        }
                    }
                    None => {
                        println!("{workload} seed {seed}: run failed");
                        all_pass = false;
                    }
                }
            }
            eprintln!("  {workload}: pair {i}/{runs} done");
        }
        for (m, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            // Every run made, in seed order: the table below summarises these.
            let fmt = |v: &[f64]| {
                v.iter()
                    .map(|x| format!("{x:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            println!("runs {workload} {name}: A [{}]  B [{}]", fmt(a), fmt(b));
            if a.len() < 2 || b.len() < 2 {
                continue;
            }
            let stat = |v: &[f64]| {
                let med = crate::harness::median(v);
                let (q1, q3) = quartiles(v);
                let (lo, hi) = v
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
                (med, (q3 - q1) / med, (hi - lo) / med)
            };
            let (med_a, iqr_a, range_a) = stat(a);
            let (med_b, iqr_b, range_b) = stat(b);
            // How much worse the second set's median is than the first's.
            let worse = if *better == "lower" {
                med_b / med_a - 1.0
            } else {
                1.0 - med_b / med_a
            };
            let pass = range_a <= *bound && range_b <= *bound && worse.abs() <= *bound;
            let iqr_pass = iqr_a <= *bound && iqr_b <= *bound && worse.abs() <= *bound;
            all_pass &= pass;
            rows.push(format!(
                "| {workload} | {name} | {unit} | {med_a:.4} | {med_b:.4} | {:+.1} % | {:.1} % / {:.1} % | {:.1} % / {:.1} % | {:.0} % | {} | {} |",
                worse * 100.0,
                range_a * 100.0,
                range_b * 100.0,
                iqr_a * 100.0,
                iqr_b * 100.0,
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
                if iqr_pass { "PASS" } else { "FAIL" }
            ));
        }
    }
    println!();
    println!(
        "| workload | metric | unit | median A | median B | B worse by | range/median A / B | IQR/median A / B | bound | range within | IQR within |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        println!("{r}");
    }
    println!();
    println!("{}", if all_pass { "A/A PASS" } else { "A/A FAIL" });
    all_pass
}

#[cfg(test)]
mod tests {
    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = super::quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
    }
}
