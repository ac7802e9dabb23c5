//! Anytime optimization: watch incumbents and lower bounds evolve, and read
//! off the guaranteed optimality factor at any point in time — the paper's
//! headline feature over classical dynamic programming.
//!
//! Since the cost-space trace redesign, each MILP incumbent is decoded and
//! projected through the exact cost model at trace-point creation, so the
//! factors printed here are *cost-space* guarantees — directly comparable
//! with any other backend's trace.
//!
//! Run with: `cargo run --release --example anytime`

use std::time::Duration;

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_workloads::{Topology, WorkloadSpec};

fn main() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 8).generate(7);
    println!(
        "optimizing a {}-table star query (seed 7), medium precision, 10 s budget",
        query.num_tables()
    );

    let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Medium));
    let outcome = optimizer
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(10)),
            None,
        )
        .expect("a plan within the budget");

    println!("final plan:   {}", outcome.plan.render(&catalog));
    println!("final status: {}", outcome.status);
    println!("true C_out:   {:.3e}", outcome.true_cost);
    println!(
        "MILP bound:   {:.4e}  -> cost-space bound {}",
        outcome.milp_bound,
        outcome
            .cost_bound
            .map_or("-".into(), |b| format!("{b:.4e}")),
    );
    println!();
    println!(
        "cost-space trace ({} events; incumbents are exact plan costs):",
        outcome.cost_trace.points().len()
    );
    for p in outcome.cost_trace.points() {
        let factor = match (p.incumbent, p.bound) {
            (Some(inc), Some(b)) if b > 0.0 => format!("{:.2}", (inc / b).max(1.0)),
            _ => "-".into(),
        };
        println!(
            "  t={:>9.3}ms  exact cost={:<14} bound={:<14} guaranteed factor={}",
            p.elapsed.as_secs_f64() * 1e3,
            p.incumbent.map_or("-".into(), |v| format!("{v:.4e}")),
            p.bound.map_or("-".into(), |v| format!("{v:.4e}")),
            factor
        );
    }
    println!();
    for t in [0.1, 0.5, 1.0, 5.0, 10.0] {
        let at = Duration::from_secs_f64(t);
        match outcome.cost_trace.guaranteed_factor_at(at) {
            Some(f) => println!("after {t:>4}s the plan was provably within {f:.2}x of optimal"),
            None => println!("after {t:>4}s no guarantee was available yet"),
        }
    }
}
