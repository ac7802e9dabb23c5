//! The §5 extensions in one program: n-ary predicates, correlated predicate
//! groups, and expensive predicates with explicit evaluation scheduling.
//!
//! Run with: `cargo run --release --example extensions`

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_qopt::{Catalog, Predicate, Query};

fn main() {
    let mut catalog = Catalog::new();
    let a = catalog.add_table("A", 1_000.0);
    let b = catalog.add_table("B", 2_000.0);
    let c = catalog.add_table("C", 500.0);
    let d = catalog.add_table("D", 10_000.0);

    let mut query = Query::new(vec![a, b, c, d]);
    // Ordinary binary join predicates.
    let p_ab = query.add_predicate(Predicate::binary(a, b, 0.001));
    let p_bc = query.add_predicate(Predicate::binary(b, c, 0.01));
    // An n-ary predicate over three tables (§5.1).
    query.add_predicate(Predicate::nary(vec![a, b, d], 0.05));
    // A correlated group: p_ab and p_bc overlap, the correction factor 5
    // undoes part of the independence assumption (§5.1).
    query.add_correlated_group(vec![p_ab, p_bc], 5.0);
    // An expensive predicate: costs 2 cost units per input tuple (§5.1).
    query.add_predicate(Predicate::binary(c, d, 0.5).with_eval_cost(2.0));

    let config = EncoderConfig::default().precision(Precision::High);
    let outcome = MilpOptimizer::new(config)
        .optimize(&catalog, &query, &OrderingOptions::default(), None)
        .expect("optimizable");

    println!("plan: {}", outcome.plan.render(&catalog));
    println!("status: {}", outcome.status);
    println!(
        "true cost (C_out + predicate evaluation): {:.3e}",
        outcome.true_cost
    );
    println!();
    println!("predicate evaluation schedule chosen by the MILP:");
    for (pid, at) in outcome.decoded.predicate_schedule.iter().enumerate() {
        let name = &query.predicates[pid].name;
        match at {
            Some(j) => println!("  {name}: evaluated during join {j}"),
            None => println!("  {name}: evaluated at scan time / untracked"),
        }
    }
}
