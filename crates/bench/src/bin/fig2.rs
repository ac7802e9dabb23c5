//! Figure 2 reproduction: anytime comparison of dynamic programming vs. the
//! MILP optimizer at three precision configurations. For every join-graph
//! topology and query size, the guaranteed optimality factor (incumbent
//! cost / lower bound, both in the optimizer's cost space) is sampled at
//! regular intervals of the optimization time.
//!
//! DP is not an anytime algorithm: its factor is unavailable until it
//! finishes, then exactly 1 (printed as `-` before completion, matching the
//! paper's description). The default grid is scaled down for the
//! in-workspace solver; `--full` requests the paper's n up to 60 with the
//! 60 s timeout.
//!
//! ```text
//! cargo run -p milpjoin-bench --release --bin fig2 [--full] [--timeout S]
//!     [--queries K] [--seed S]
//! ```

use std::time::{Duration, Instant};

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions};
use milpjoin_bench::{median, ExperimentArgs, PRECISIONS, TOPOLOGIES};
use milpjoin_dp::{optimize as dp_optimize, DpOptions};
use milpjoin_workloads::WorkloadSpec;

const SAMPLES: usize = 10;

fn main() {
    let mut args = ExperimentArgs::parse(std::env::args().skip(1));
    if args.full {
        args.timeout = args.timeout.max(Duration::from_secs(60));
    }
    let timeout = args.timeout;
    let sample_points: Vec<Duration> = (1..=SAMPLES)
        .map(|i| timeout.mul_f64(i as f64 / SAMPLES as f64))
        .collect();

    println!(
        "# Figure 2: guaranteed optimality factor (Cost/LB) over time; timeout {:?}, {} queries/point",
        timeout, args.queries
    );
    let header: Vec<String> = sample_points
        .iter()
        .map(|d| format!("{:>8.1}s", d.as_secs_f64()))
        .collect();
    println!("{:<26} {}", "configuration", header.join(" "));

    for topo in TOPOLOGIES {
        for n in args.fig2_sizes() {
            println!("--- {} join graph, {} tables ---", topo.name(), n);

            // Dynamic programming baseline.
            let mut dp_rows: Vec<Vec<Option<f64>>> = Vec::new();
            for qi in 0..args.queries {
                let (catalog, query) = WorkloadSpec::new(topo, n).generate(args.seed + qi as u64);
                let start = Instant::now();
                let opts = DpOptions {
                    deadline: Some(start + timeout),
                    ..DpOptions::default()
                };
                let finished = dp_optimize(&catalog, &query, &opts)
                    .ok()
                    .map(|_| start.elapsed());
                dp_rows.push(
                    sample_points
                        .iter()
                        .map(|&t| match finished {
                            Some(done) if done <= t => Some(1.0),
                            _ => None,
                        })
                        .collect(),
                );
            }
            print_series("DP", &sample_points, &dp_rows);

            // MILP at the three precisions.
            for precision in PRECISIONS {
                let mut rows: Vec<Vec<Option<f64>>> = Vec::new();
                for qi in 0..args.queries {
                    let (catalog, query) =
                        WorkloadSpec::new(topo, n).generate(args.seed + qi as u64);
                    let optimizer =
                        MilpOptimizer::new(EncoderConfig::default().precision(precision));
                    let outcome = optimizer.optimize(
                        &catalog,
                        &query,
                        &OrderingOptions::with_time_limit(timeout),
                        None,
                    );
                    let row = match &outcome {
                        Ok(out) => sample_points
                            .iter()
                            .map(|&t| out.trace.guaranteed_factor_at(t))
                            .collect(),
                        Err(_) => vec![None; SAMPLES],
                    };
                    rows.push(row);
                }
                print_series(
                    &format!("ILP ({})", precision.name()),
                    &sample_points,
                    &rows,
                );
            }
        }
    }
}

/// Prints the per-sample median factor (`-` where no guarantee exists yet).
fn print_series(label: &str, points: &[Duration], rows: &[Vec<Option<f64>>]) {
    let mut cells = Vec::with_capacity(points.len());
    for i in 0..points.len() {
        let mut vals: Vec<f64> = rows.iter().filter_map(|r| r[i]).collect();
        // The median over queries counts missing guarantees as worst-case:
        // only report a factor once at least half the queries have one.
        if vals.len() * 2 > rows.len() {
            cells.push(format!("{:>9.2}", median(&mut vals)));
        } else {
            cells.push(format!("{:>9}", "-"));
        }
    }
    println!("{:<26} {}", label, cells.join(""));
}
