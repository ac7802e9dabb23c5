//! Operator selection and interesting orders (§5.3–§5.4): the MILP picks a
//! physical join operator per join; a sort-merge join whose outer input is
//! already sorted skips the sort phase.
//!
//! Run with: `cargo run --release --example operator_selection`

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_qopt::{Catalog, CostModelKind, Predicate, Query};

fn main() {
    let mut catalog = Catalog::new();
    catalog.page_size_bytes = 8192.0;
    catalog.default_tuple_bytes = 128.0;
    let orders = catalog.add_table("orders", 50_000.0);
    let customers = catalog.add_table("customers", 5_000.0);
    let nation = catalog.add_table("nation", 25.0);
    // The orders table is stored sorted on its join key.
    catalog.set_table_sorted(orders, true);

    let mut query = Query::new(vec![orders, customers, nation]);
    query.add_predicate(Predicate::binary(orders, customers, 1.0 / 5_000.0));
    query.add_predicate(Predicate::binary(customers, nation, 1.0 / 25.0));

    let config = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash)
        .operator_selection(true)
        .interesting_orders(true);
    let outcome = MilpOptimizer::new(config)
        .optimize(&catalog, &query, &OrderingOptions::default(), None)
        .expect("optimizable");

    println!(
        "plan with per-join operators: {}",
        outcome.plan.render(&catalog)
    );
    println!("status: {}", outcome.status);
    println!("cost (hash-model units): {:.1}", outcome.true_cost);
    for (j, op) in outcome.plan.operators.iter().enumerate() {
        println!("  join {j}: {op}");
    }
    println!();
    println!(
        "formulation: {} variables / {} constraints (includes jos/pjc/ajc/ohp families)",
        outcome.stats.num_vars(),
        outcome.stats.num_constraints()
    );
}
