//! `predict_seq` and `predict_par`: consequence prediction on its own.
//!
//! A pass runs the 120 seeded searches of [`crate::inputs`] on one engine.
//! `cb-mc`'s search, `cb-model`'s apply/enumerate/hash and the
//! `cb-protocols` handlers do all the work; snapshot, core and live do
//! none. The throughput and CPU unit is 1000 states visited, the latency
//! unit is one search.

use std::time::Instant;

use cb_mc::{Engine, ParallelConfig, SearchStats, Searcher, WorkerPool};
use cb_model::Protocol;

use crate::harness::{Pass, Stopwatch, Workload};
use crate::inputs::{
    inputs_hash, search_config, Family, PredictInputs, Verdict, DEEP_BUDGET, SHALLOW_BUDGET,
};
use crate::spans::Recorder;

/// Counters summed over the searches of one pass, for the per-layer legs.
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    pub visited: usize,
    pub enqueued: usize,
    pub duplicates: usize,
    pub search_s: f64,
    pub merge_busy_s: f64,
    pub merge_wait_s: f64,
    pub shard_busy_s: Vec<f64>,
    pub explored_bytes: u64,
    pub explored_states: usize,
    pub deep_ms: Vec<f64>,
    pub shallow_us: Vec<f64>,
    /// (protocol, seconds searching, states visited) per family.
    pub per_family: Vec<(&'static str, f64, usize)>,
}

impl PassStats {
    fn add(&mut self, budget: usize, wall_s: f64, s: &SearchStats) {
        self.visited += s.states_visited;
        self.enqueued += s.states_enqueued;
        self.duplicates += s.duplicates_hit;
        self.search_s += wall_s;
        self.merge_busy_s += s.merge_busy.as_secs_f64();
        self.merge_wait_s += s.merge_wait.as_secs_f64();
        if self.shard_busy_s.len() < s.merge_shard_busy.len() {
            self.shard_busy_s.resize(s.merge_shard_busy.len(), 0.0);
        }
        for (acc, d) in self.shard_busy_s.iter_mut().zip(&s.merge_shard_busy) {
            *acc += d.as_secs_f64();
        }
        if budget == DEEP_BUDGET {
            self.deep_ms.push(wall_s * 1e3);
            self.explored_bytes += s.explored_resident_bytes as u64 + s.explored_spilled_bytes;
            self.explored_states += s.states_enqueued;
        }
        if budget == SHALLOW_BUDGET {
            self.shallow_us.push(wall_s * 1e6);
        }
    }
}

pub struct Predict {
    pub inputs: PredictInputs,
    engine: Engine,
    /// The shared pool a parallel engine draws its second worker from (the
    /// searching thread is the first), as the controller's searches do.
    pool: WorkerPool,
    threads: usize,
    /// Stats of the most recent pass.
    pub last: PassStats,
    verdicts_checked: u64,
    verdicts_wrong: u64,
}

/// The parallel engine exactly as `predict_par` specifies it; nothing is
/// left to `ParallelConfig::default()`, which reads `CB_*` variables.
pub fn parallel_engine(workers: usize) -> Engine {
    Engine::Parallel(ParallelConfig {
        workers,
        merge_shards: 0,
        compact_explored: false,
        explored_spill_bytes: None,
    })
}

impl Predict {
    /// Generates the inputs and runs one untimed warm-up pass.
    pub fn setup(seed: u64, parallel: bool, quick: bool) -> Self {
        let inputs = PredictInputs::generate(seed, quick);
        let (engine, threads) = if parallel {
            (parallel_engine(2), 2)
        } else {
            (Engine::Sequential, 1)
        };
        let mut w = Predict {
            inputs,
            engine,
            pool: WorkerPool::new(threads - 1),
            threads,
            last: PassStats::default(),
            verdicts_checked: 0,
            verdicts_wrong: 0,
        };
        w.pass(&mut Recorder::new(false));
        w
    }

    /// The same inputs on another engine (per-layer legs of the traced run).
    pub fn with_engine(inputs: PredictInputs, engine: Engine, threads: usize) -> Self {
        Predict {
            inputs,
            engine,
            pool: WorkerPool::new(threads - 1),
            threads,
            last: PassStats::default(),
            verdicts_checked: 0,
            verdicts_wrong: 0,
        }
    }

    pub fn into_inputs(self) -> PredictInputs {
        self.inputs
    }
}

/// Runs one family's searches, timing each; returns states visited.
fn run_family<P: Protocol>(
    family: &Family<P>,
    engine: &Engine,
    pool: &WorkerPool,
    rec: &mut Recorder,
    pass: &mut Pass,
    stats: &mut PassStats,
) {
    let (before_s, before_visited) = (stats.search_s, stats.visited);
    for (i, case) in family.cases.iter().enumerate() {
        let searcher = Searcher::new(&case.proto, &family.props, search_config(case.budget));
        let span = rec.begin("mc.search", i as u64);
        let t = Instant::now();
        let out = searcher.search_on(&case.state, engine, Some(pool));
        let wall = t.elapsed().as_secs_f64();
        rec.end(span);
        pass.latencies_ms.push(wall * 1e3);
        pass.units += out.stats.states_visited as f64 / 1e3;
        pass.attempted += 1;
        if Verdict::of(&out) != case.reference {
            pass.failed += 1;
            eprintln!(
                "WRONG VERDICT {} case {i} (budget {}, armed {}): got {}, reference {}",
                family.name,
                case.budget,
                case.armed,
                Verdict::of(&out).short(),
                case.reference.short()
            );
        }
        stats.add(case.budget, wall, &out.stats);
    }
    stats.per_family.push((
        family.name,
        stats.search_s - before_s,
        stats.visited - before_visited,
    ));
}

impl Workload for Predict {
    fn pass(&mut self, rec: &mut Recorder) -> Pass {
        let mut pass = Pass::default();
        let mut stats = PassStats::default();
        let watch = Stopwatch::start();
        let (e, p) = (&self.engine, &self.pool);
        run_family(&self.inputs.randtree, e, p, rec, &mut pass, &mut stats);
        run_family(&self.inputs.paxos, e, p, rec, &mut pass, &mut stats);
        run_family(&self.inputs.chord, e, p, rec, &mut pass, &mut stats);
        run_family(&self.inputs.bullet, e, p, rec, &mut pass, &mut stats);
        (pass.wall_s, pass.cpu_s) = watch.stop();
        self.verdicts_checked += pass.attempted;
        self.verdicts_wrong += pass.failed;
        self.last = stats;
        pass
    }

    fn describe(&self) -> String {
        let i = &self.inputs;
        let families: Vec<String> = self
            .last
            .per_family
            .iter()
            .map(|(name, secs, visited)| format!("{name} {secs:.3} s / {visited} states"))
            .collect();
        let deep: Vec<String> = self
            .last
            .deep_ms
            .iter()
            .map(|ms| format!("{ms:.0}"))
            .collect();
        format!(
            "{} searches per pass on {} thread(s), {} engine: {} states visited ({}); deep searches \
             {} ms; candidate states drawn: randtree {}, paxos {}, chord {}, bullet {}",
            i.searches_per_pass(),
            self.threads,
            match self.engine {
                Engine::Sequential => "sequential",
                Engine::Parallel(_) => "parallel",
                Engine::RandomWalk { .. } => "random-walk",
            },
            self.last.visited,
            families.join(", "),
            deep.join("/"),
            i.randtree.candidates,
            i.paxos.candidates,
            i.chord.candidates,
            i.bullet.candidates,
        )
    }

    fn outcome(&self) -> Option<(&'static str, String)> {
        fn verdicts<P: Protocol>(f: &Family<P>) -> String {
            let v: Vec<String> = f
                .cases
                .iter()
                .map(|c| format!("\"{}\"", c.reference.short()))
                .collect();
            format!("\"{}\":[{}]", f.name, v.join(","))
        }
        fn states<P: Protocol>(f: &Family<P>) -> u64 {
            inputs_hash(f.cases.iter().map(|c| &c.state))
        }
        let i = &self.inputs;
        Some((
            "predict",
            format!(
                "{{\"inputs\":\"{:016x} {:016x} {:016x} {:016x}\",{},{},{},{}}}",
                states(&i.randtree),
                states(&i.paxos),
                states(&i.chord),
                states(&i.bullet),
                verdicts(&i.randtree),
                verdicts(&i.paxos),
                verdicts(&i.chord),
                verdicts(&i.bullet)
            ),
        ))
    }

    fn final_checks(&mut self) -> (u64, u64) {
        println!(
            "  check every search's verdict and shallowest path equal the sequential reference  {}",
            if self.verdicts_wrong == 0 {
                "ok"
            } else {
                "FAILED"
            }
        );
        // Already counted pass by pass.
        (0, 0)
    }
}
