//! Quickstart: optimize the paper's running example R ⋈ S ⋈ T and print
//! the chosen plan, its cost, and the anytime trace.
//!
//! Run with: `cargo run --release --example quickstart`

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_qopt::{Catalog, Predicate, Query};

fn main() {
    // Catalog: three tables with the cardinalities from the paper's
    // Examples 1-2.
    let mut catalog = Catalog::new();
    let r = catalog.add_table("R", 10.0);
    let s = catalog.add_table("S", 1000.0);
    let t = catalog.add_table("T", 100.0);

    // Query: join all three; one predicate between R and S (sel. 0.1).
    let mut query = Query::new(vec![r, s, t]);
    query.add_predicate(Predicate::binary(r, s, 0.1));

    // Optimize with the high-precision configuration (tolerance factor 3).
    let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High));
    let outcome = optimizer
        .optimize(&catalog, &query, &OrderingOptions::default(), None)
        .expect("optimization succeeds");

    println!("plan:        {}", outcome.plan.render(&catalog));
    println!("status:      {}", outcome.status);
    println!(
        "true cost:   {} (C_out: sum of intermediate result sizes)",
        outcome.true_cost
    );
    println!(
        "MILP obj:    {:.1} (approximate cost space)",
        outcome.milp_objective
    );
    println!("MILP bound:  {:.1}", outcome.milp_bound);
    println!("B&B nodes:   {}", outcome.search.nodes_expanded);
    println!();
    println!(
        "formulation: {} variables, {} constraints",
        outcome.stats.num_vars(),
        outcome.stats.num_constraints()
    );
    println!();
    println!("anytime trace (incumbent / bound over time):");
    for p in outcome.trace.points() {
        println!(
            "  t={:>8.3}ms  incumbent={:<12}  bound={:.1}",
            p.elapsed.as_secs_f64() * 1e3,
            p.incumbent.map_or("-".into(), |v| format!("{v:.1}")),
            p.bound
        );
    }
}
