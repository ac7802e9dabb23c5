//! The repository benchmark: four seeded workloads over the public serving
//! and solver APIs, each run in its own process.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures a shorter untraced window and then replays the
//! same queries layer by layer under spans (see `replay.rs`), printing the
//! per-layer metrics. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. A run whose
//! outputs fail validation or whose exact counters do not repeat (the
//! determinism guard) prints `"correct": false` and exits with code 1.
//!
//! Test-only flags: `--tiny` shrinks every pool, and
//! `--inject-time-limit-us N` adds a wall-clock `time_limit` to the
//! ordering options so the determinism guard can be shown to trip.

mod replay;
mod serve;
mod solve;
mod trace;
mod util;

use std::collections::{BTreeMap, HashSet};
use std::process::ExitCode;
use std::time::Duration;

use milpjoin::{EncoderConfig, FingerprintOptions, FingerprintedQuery, OrderingOptions};
use milpjoin_qopt::{Catalog, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};

pub const WORKLOADS: [&str; 4] = ["serve-hot", "serve-churn", "milp-cold", "large-decomp"];

/// Output directory for snapshots and span files, inside the working
/// directory.
pub const OUT_DIR: &str = ".perfbench_out";

/// Equal time windows of a serving run.
pub const WINDOWS: usize = 16;

/// The end-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("plan_cost_ratio", "ratio"),
    ("guarantee_factor", "ratio"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The per-layer metrics, printed by every `--trace 1` run (zero where a
/// workload leaves the layer idle).
pub const PER_LAYER: [(&str, &str); 44] = [
    ("service.queue_wait_us", "us"),
    ("fingerprint.us_per_query", "us"),
    ("fingerprint.fallbacks", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("cache.evictions", "count"),
    ("cache.inflight_waits", "count"),
    ("router.route_us", "us"),
    ("router.arm.greedy", "count"),
    ("router.arm.dp", "count"),
    ("router.arm.dpconv", "count"),
    ("router.arm.hybrid", "count"),
    ("router.arm.decomp", "count"),
    ("persist.load_ms", "ms"),
    ("persist.export_ms", "ms"),
    ("persist.entries", "count"),
    ("dpconv.solve_us", "us"),
    ("dp.solve_us", "us"),
    ("greedy.solve_us", "us"),
    ("encode.ms", "ms"),
    ("encode.vars", "count"),
    ("encode.constraints", "count"),
    ("presolve.ms", "ms"),
    ("presolve.bound_changes", "count"),
    ("root_lp.ms", "ms"),
    ("root_lp.iterations", "count"),
    ("lp.iterations", "count"),
    ("lp.us_per_iteration", "us"),
    ("bnb.nodes", "count"),
    ("bnb.ms", "ms"),
    ("bnb.lp_iterations_per_node", "count"),
    ("decode_recost.us", "us"),
    ("decompose.partition_us", "us"),
    ("decompose.fragments", "count"),
    ("decompose.fragment_solve_ms", "ms"),
    ("decompose.slowest_fragment_ms", "ms"),
    ("decompose.stitch_ms", "ms"),
    ("session.overhead_us", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.replay_node_diff", "count"),
    ("trace.replay_lp_iteration_diff", "count"),
    ("trace.queries", "count"),
];

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub tiny: bool,
    pub inject_time_limit: Option<Duration>,
}

impl Args {
    /// Ordering options of every search arm: a node-metered budget and no
    /// wall-clock limit (unless a test injects one).
    pub fn options(&self, budget: u64) -> OrderingOptions {
        let mut options = OrderingOptions::with_deterministic_budget(budget);
        options.time_limit = self.inject_time_limit;
        options
    }
}

/// A query pool over one shared catalog: `per_cell` random structures
/// (statistics drawn from `stats_seed`) for every (paper topology, size)
/// cell, deduplicated by fingerprint so that every entry is its own
/// plan-cache key. The cells are interleaved round-robin, so every prefix
/// of the pool has the same mix of shapes and sizes whatever the seed; an
/// `order_seed` shuffles the whole pool instead.
pub fn pool(
    stats_seed: u64,
    order_seed: Option<u64>,
    sizes: &[usize],
    per_cell: usize,
) -> (Catalog, Vec<Query>) {
    let mut catalog = Catalog::new();
    let options = FingerprintOptions::default();
    let mut seen = HashSet::new();
    let mut cells = Vec::new();
    for (t, &topology) in Topology::PAPER.iter().enumerate() {
        for (s, &n) in sizes.iter().enumerate() {
            let cell_seed = util::sub_seed(stats_seed, (t * sizes.len() + s) as u64);
            let mut cell = WorkloadSpec::new(topology, n).generate_stream_into(
                &mut catalog,
                cell_seed,
                per_cell,
                1,
            );
            cell.retain(|q| {
                seen.insert(FingerprintedQuery::compute(&catalog, q, &options).fingerprint)
            });
            cells.push(cell.into_iter());
        }
    }
    let mut queries = Vec::new();
    while queries.len() < seen.len() {
        queries.extend(cells.iter_mut().filter_map(Iterator::next));
    }
    if let Some(seed) = order_seed {
        util::Rng::new(util::sub_seed(seed, u64::MAX)).shuffle(&mut queries);
    }
    (catalog, queries)
}

/// The encoder configuration every MILP-based arm runs with (the library
/// default: C_out, medium precision).
pub fn encoder_config() -> EncoderConfig {
    EncoderConfig::default()
}

/// A set-up batch repeats the set-up at least this many times and for at
/// least `SETUP_BATCH_S` seconds.
const SETUP_BATCH_MIN: usize = 3;
const SETUP_BATCH_S: f64 = 0.05;

/// Times a workload's set-up in batches spread over the run: one before
/// timing, then one after every serving window or solver pass, while the
/// clients wait. The host's speed drifts over seconds, so, like the other
/// timings, `setup_s` comes from the least disturbed batch: the median set-up
/// time of the fastest batch.
pub struct Setups<T, F: Fn() -> T> {
    build: F,
    batch_medians: Vec<f64>,
}

impl<T, F: Fn() -> T> Setups<T, F> {
    pub fn new(build: F) -> Self {
        Setups {
            build,
            batch_medians: Vec::new(),
        }
    }

    /// Runs one batch, timing each build but not the drop of the one
    /// before, and returns the last build.
    pub fn batch(&mut self) -> T {
        let mut times = Vec::new();
        let mut built = None;
        let start = std::time::Instant::now();
        while times.len() < SETUP_BATCH_MIN || start.elapsed().as_secs_f64() < SETUP_BATCH_S {
            drop(built.take());
            let t = std::time::Instant::now();
            built = Some((self.build)());
            times.push(t.elapsed().as_secs_f64());
        }
        self.batch_medians.push(util::median(&times));
        built.expect("a batch builds at least once")
    }

    /// The median set-up time of the fastest batch, in seconds.
    pub fn seconds(&self) -> f64 {
        self.batch_medians
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Determinism-guard and set-up check failures (each fails the run).
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn violation(&mut self, message: String) {
        self.violations.push(message);
    }
}

/// How a workload's latencies are grouped before they are summarized. The
/// host's speed drifts by a quarter over spans of seconds, so every timing
/// comes from the least disturbed measurement of the same work.
#[derive(Debug, Clone)]
pub enum Grouping {
    /// Serving workloads: `key` is one of these equal time windows (of the
    /// given length in seconds); p50, tail and throughput come from the
    /// best window.
    Windows(usize, f64),
    /// Solver workloads with this many concurrent clients: `key` is the
    /// pool index; each query's latency is its best solve over the run's
    /// passes, and throughput is the clients times the pool size over the
    /// sum of those.
    PerQuery(usize),
}

/// Accumulates end-to-end samples across clients. Latencies are kept
/// compact (and plan-quality ratios only as log sums) so that the
/// benchmark's own bookkeeping barely moves the process's peak memory.
#[derive(Debug, Clone)]
pub struct Samples {
    pub grouping: Grouping,
    /// `(key, latency in ms)` of every checked query.
    pub timed: Vec<(u32, f32)>,
    ln_ratio: (f64, u64),
    ln_guarantee: (f64, u64),
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    pub fn new(grouping: Grouping) -> Self {
        Samples {
            grouping,
            timed: Vec::new(),
            ln_ratio: (0.0, 0),
            ln_guarantee: (0.0, 0),
            attempted: 0,
            failed: 0,
        }
    }

    pub fn push_latency(&mut self, key: usize, latency_ms: f64) {
        self.timed.push((key as u32, latency_ms as f32));
    }

    /// Adds one outcome's plan quality to the geometric means.
    pub fn push_quality(&mut self, ratio: f64, guarantee: Option<f64>) {
        self.ln_ratio.0 += ratio.ln();
        self.ln_ratio.1 += 1;
        if let Some(g) = guarantee {
            self.ln_guarantee.0 += g.ln();
            self.ln_guarantee.1 += 1;
        }
    }

    pub fn merge(&mut self, other: Samples) {
        self.timed.extend(other.timed);
        self.ln_ratio.0 += other.ln_ratio.0;
        self.ln_ratio.1 += other.ln_ratio.1;
        self.ln_guarantee.0 += other.ln_guarantee.0;
        self.ln_guarantee.1 += other.ln_guarantee.1;
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Mean latency in µs over every checked query.
    pub fn mean_latency_us(&self) -> f64 {
        self.timed.iter().map(|&(_, l)| f64::from(l)).sum::<f64>() * 1e3
            / self.timed.len().max(1) as f64
    }

    /// `(p50, tail, throughput)` under this sample set's grouping.
    fn timings(&self, tail_pct: f64) -> (f64, f64, f64) {
        match self.grouping {
            Grouping::Windows(windows, window_s) => {
                let mut per_window = vec![Vec::new(); windows];
                for &(w, latency) in &self.timed {
                    if let Some(window) = per_window.get_mut(w as usize) {
                        window.push(f64::from(latency));
                    }
                }
                let full: Vec<&Vec<f64>> = per_window.iter().filter(|w| !w.is_empty()).collect();
                let best = |f: &dyn Fn(&[f64]) -> f64| {
                    full.iter().map(|w| f(w)).fold(f64::INFINITY, f64::min)
                };
                let qps = full.iter().map(|w| w.len()).max().unwrap_or(0) as f64 / window_s;
                (
                    best(&util::median),
                    best(&|w| util::percentile(w, tail_pct)),
                    qps,
                )
            }
            Grouping::PerQuery(clients) => {
                let mut best: BTreeMap<u32, f64> = BTreeMap::new();
                for &(q, latency) in &self.timed {
                    let slot = best.entry(q).or_insert(f64::INFINITY);
                    *slot = slot.min(f64::from(latency));
                }
                let best: Vec<f64> = best.into_values().collect();
                let total_s = best.iter().sum::<f64>() / 1e3;
                (
                    util::median(&best),
                    util::percentile(&best, tail_pct),
                    (clients * best.len()) as f64 / total_s,
                )
            }
        }
    }

    /// Fills the end-to-end metrics of `report` from these samples.
    pub fn report(&self, report: &mut Report, tail_pct: f64, setup_s: f64) {
        report.attempted = self.attempted;
        report.failed = self.failed;
        let (p50, tail, qps) = self.timings(tail_pct);
        report.set("latency_p50_ms", p50);
        report.set("latency_tail_ms", tail);
        report.set("throughput_qps", qps);
        // A geometric mean over no values (no outcome carried a bound) is 1.
        let geomean = |(sum, n): (f64, u64)| if n == 0 { 1.0 } else { (sum / n as f64).exp() };
        report.set("plan_cost_ratio", geomean(self.ln_ratio));
        report.set("guarantee_factor", geomean(self.ln_guarantee));
        report.set(
            "success_rate",
            1.0 - self.failed as f64 / self.attempted.max(1) as f64,
        );
        report.set("setup_s", setup_s);
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         [--tiny] [--inject-time-limit-us <n>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        inject_time_limit: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--tiny" => args.tiny = true,
            "--inject-time-limit-us" => {
                let us: u64 = value()?.parse().map_err(|e| format!("{flag}: {e}"))?;
                args.inject_time_limit = Some(Duration::from_micros(us));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "serve-hot" => serve::serve_hot(&args),
        "serve-churn" => serve::serve_churn(&args),
        "milp-cold" => solve::milp_cold(&args),
        _ => solve::large_decomp(&args),
    };
    report.set("peak_rss_mb", util::peak_rss_mb());

    for v in report.violations.iter().take(5) {
        eprintln!("determinism guard: {v}");
    }
    if report.violations.len() > 5 {
        eprintln!("determinism guard: {} more", report.violations.len() - 5);
    }
    let correct = report.failed == 0 && report.violations.is_empty() && report.attempted > 0;
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|&(name, unit)| {
            let value = report.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
