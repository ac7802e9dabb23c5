//! Side-by-side comparison of every join ordering backend — greedy, DP,
//! MILP at three precisions, and the greedy-warm-started hybrid — each
//! driven through its own [`PlanSession`] on the same workload. This is
//! the experiment behind the paper's Figure 2 on one query, extended with
//! the hybrid strategy of Schönberger & Trummer (2025). Because traces are
//! cost-space by construction, the reported guarantees are directly
//! comparable across backends.
//!
//! Run with: `cargo run --release --example compare_optimizers [n]`. Exits
//! with status 1 when any backend fails.

use std::time::Duration;

use milpjoin::{
    EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer, OrderingOptions, PlanSession,
    Precision,
};
use milpjoin_dp::{DpOptimizer, GreedyOptimizer};
use milpjoin_workloads::{Topology, WorkloadSpec};

fn main() {
    let n = milpjoin_suite::table_count_arg(std::env::args().skip(1), 10)
        .unwrap_or_else(|e| milpjoin_suite::usage_error("compare_optimizers", "[n]", &e));
    let timeout = Duration::from_secs(10);
    let (catalog, query) = WorkloadSpec::new(Topology::Star, n).generate(3);
    let options = OrderingOptions::with_time_limit(timeout);
    println!("star query, {n} tables, C_out cost model, {timeout:?} budget\n");

    let backends: Vec<(String, Box<dyn JoinOrderer>)> = vec![
        ("greedy".into(), Box::new(GreedyOptimizer::default())),
        ("dp".into(), Box::new(DpOptimizer::default())),
        (
            "milp (low)".into(),
            Box::new(MilpOptimizer::new(
                EncoderConfig::default().precision(Precision::Low),
            )),
        ),
        (
            "milp (medium)".into(),
            Box::new(MilpOptimizer::new(
                EncoderConfig::default().precision(Precision::Medium),
            )),
        ),
        (
            "milp (high)".into(),
            Box::new(MilpOptimizer::new(
                EncoderConfig::default().precision(Precision::High),
            )),
        ),
        (
            "hybrid (medium)".into(),
            Box::new(HybridOptimizer::new(
                EncoderConfig::default().precision(Precision::Medium),
            )),
        ),
    ];

    let mut failed = false;
    for (label, backend) in backends {
        let mut session = PlanSession::new(catalog.clone(), backend).with_options(options.clone());
        match session.optimize(&query) {
            Ok(out) => {
                let out = out.outcome;
                let guarantee = match (out.proven_optimal, out.guaranteed_factor()) {
                    (true, Some(f)) => format!("proven optimal ({f:.2}x cost-space)"),
                    (true, None) => "proven optimal".to_string(),
                    (false, Some(f)) => format!("within {f:.2}x of optimal"),
                    (false, None) => "no guarantee".to_string(),
                };
                let first_incumbent = out
                    .trace
                    .points()
                    .first()
                    .and_then(|p| p.incumbent.map(|_| p.elapsed));
                let anytime = match first_incumbent {
                    Some(t) => format!("first incumbent at {t:>10.2?}"),
                    None => "first trace point has no incumbent".to_string(),
                };
                println!(
                    "{label:<16} cost {:>12.4e}  in {:>10.2?}  ({guarantee}; {anytime})",
                    out.cost, out.elapsed
                );
            }
            Err(e) => {
                println!("{label:<16} failed: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
