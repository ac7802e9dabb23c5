//! Figure 2 reproduction: anytime comparison of dynamic programming vs. the
//! MILP optimizer at three precision configurations. For every join-graph
//! topology and query size, it prints the guaranteed optimality factor
//! (incumbent objective / lower bound, both in the MILP's cost space) that
//! the optimizer proves within each budget of a fixed node ladder.
//!
//! The paper's x-axis is optimization time; here it is branch-and-bound
//! nodes. Each budget is its own single-worker solve under
//! `OrderingOptions::with_deterministic_budget` with no time limit, so the
//! table is the same on every run and every host. A MILP cell is the median
//! factor over the configuration's queries, printed only when more than
//! half of them have one; a solve without a plan or without a positive
//! bound has none (`-`). DP is not an anytime algorithm: its row shows 1.00
//! in every column when it finishes within its default memory budget and
//! `-` when it refuses. The default grid is scaled down for the
//! in-workspace solver; `--full` requests the paper's sizes up to 60 tables.
//!
//! ```text
//! cargo run --release --example fig2 -- [--full] [--queries K] [--seed S]
//! ```

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions};
use milpjoin_dp::{optimize as dp_optimize, DpOptions};
use milpjoin_suite::{median, ExperimentArgs, PRECISIONS};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// The node budgets of the table's columns.
const BUDGETS: [u64; 6] = [10, 30, 100, 300, 1000, 3000];

fn main() {
    let args = ExperimentArgs::from_env("fig2");
    let sizes: &[usize] = if args.full {
        &[10, 20, 30, 40, 50, 60]
    } else {
        &[4, 6, 8, 10]
    };
    println!(
        "# Figure 2: guaranteed optimality factor (Cost/LB) per node budget, {} queries/point",
        args.queries
    );
    let header: String = BUDGETS.iter().map(|b| format!("{b:>9}")).collect();
    println!("{:<26} {header}", "configuration \\ nodes");

    for topo in Topology::PAPER {
        for &n in sizes {
            println!("--- {} join graph, {} tables ---", topo.name(), n);
            let workloads: Vec<_> = (0..args.queries)
                .map(|q| WorkloadSpec::new(topo, n).generate(args.seed + q as u64))
                .collect();

            let dp: Vec<Option<f64>> = workloads
                .iter()
                .map(|(catalog, query)| {
                    dp_optimize(catalog, query, &DpOptions::default())
                        .ok()
                        .map(|_| 1.0)
                })
                .collect();
            print_row("DP", &vec![dp; BUDGETS.len()]);

            for precision in PRECISIONS {
                let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(precision));
                let cells: Vec<Vec<Option<f64>>> = BUDGETS
                    .iter()
                    .map(|&budget| {
                        let options = OrderingOptions::with_deterministic_budget(budget);
                        workloads
                            .iter()
                            .map(|(catalog, query)| {
                                optimizer
                                    .optimize(catalog, query, &options, None)
                                    .ok()
                                    .and_then(|out| out.optimality_factor())
                            })
                            .collect()
                    })
                    .collect();
                print_row(&format!("ILP ({})", precision.name()), &cells);
            }
        }
    }
}

/// Prints one row: per budget, the median factor over the queries.
fn print_row(label: &str, cells: &[Vec<Option<f64>>]) {
    let cells: String = cells
        .iter()
        .map(|factors| {
            let mut found: Vec<f64> = factors.iter().flatten().copied().collect();
            // A query without a factor counts as worst-case: the median
            // exists only once more than half the queries have one.
            if found.len() * 2 > factors.len() {
                format!("{:>9.2}", median(&mut found))
            } else {
                format!("{:>9}", "-")
            }
        })
        .collect();
    println!("{label:<26} {cells}");
}
