//! Failure injection: malformed queries, degenerate sizes, and hostile
//! parameters must produce errors, never panics or wrong answers.

use std::time::Duration;

use milpjoin::{encode, EncodeError, EncoderConfig, MilpOptimizer, OrderingOptions};
use milpjoin_dp::{optimize as dp_optimize, DpError, DpOptions};
use milpjoin_qopt::{Catalog, Predicate, Query, QueryError};
use milpjoin_workloads::{Topology, WorkloadSpec};

#[test]
fn empty_query_rejected() {
    let catalog = Catalog::new();
    let query = Query::new(vec![]);
    assert!(matches!(
        encode(&catalog, &query, &EncoderConfig::default()),
        Err(EncodeError::Query(QueryError::NoTables))
    ));
    assert!(dp_optimize(&catalog, &query, &DpOptions::default()).is_err());
}

#[test]
fn single_table_query_is_trivial_everywhere() {
    let mut catalog = Catalog::new();
    let r = catalog.add_table("R", 42.0);
    let query = Query::new(vec![r]);
    // Encoder refuses (no joins to order) ...
    assert!(matches!(
        encode(&catalog, &query, &EncoderConfig::default()),
        Err(EncodeError::TooFewTables(1))
    ));
    // ... but the optimizer facade handles it.
    let out = MilpOptimizer::default()
        .optimize(&catalog, &query, &OrderingOptions::default(), None)
        .unwrap();
    assert_eq!(out.plan.order, vec![r]);
}

#[test]
fn foreign_table_predicate_rejected() {
    let mut catalog = Catalog::new();
    let r = catalog.add_table("R", 10.0);
    let s = catalog.add_table("S", 10.0);
    let alien = catalog.add_table("alien", 10.0);
    let mut query = Query::new(vec![r, s]);
    query.add_predicate(Predicate::binary(r, alien, 0.5));
    assert!(encode(&catalog, &query, &EncoderConfig::default()).is_err());
}

#[test]
fn dp_memory_budget() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 30).generate(0);
    let opts = DpOptions {
        memory_budget_bytes: 1 << 16,
        ..DpOptions::default()
    };
    assert!(matches!(
        dp_optimize(&catalog, &query, &opts),
        Err(DpError::MemoryLimit { .. })
    ));
}

#[test]
fn milp_tiny_time_limit_fails_gracefully() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 10).generate(0);
    let result = MilpOptimizer::default().optimize(
        &catalog,
        &query,
        &OrderingOptions::with_time_limit(Duration::from_millis(1)),
        None,
    );
    // Either a plan (fast machine) or a clean "no plan" error.
    if let Err(e) = result {
        let msg = e.to_string();
        assert!(
            msg.contains("no plan") || msg.contains("limit"),
            "unexpected error: {msg}"
        );
    }
}

#[test]
fn extreme_selectivities_and_cardinalities() {
    let mut catalog = Catalog::new();
    let a = catalog.add_table("A", 1.0); // minimum cardinality
    let b = catalog.add_table("B", 1e9); // huge
    let c = catalog.add_table("C", 17.0);
    let mut query = Query::new(vec![a, b, c]);
    query.add_predicate(Predicate::binary(a, b, 1e-9)); // extreme selectivity
    query.add_predicate(Predicate::binary(b, c, 1.0)); // no-op selectivity
    let out = MilpOptimizer::default()
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    out.plan.validate(&query).unwrap();
    assert!(out.true_cost.is_finite());
}

#[test]
fn workload_validates_across_sizes() {
    for topo in [
        Topology::Chain,
        Topology::Cycle,
        Topology::Star,
        Topology::Clique,
    ] {
        for n in [2usize, 3, 13, 60] {
            let (catalog, query) = WorkloadSpec::new(topo, n).generate(99);
            query.validate(&catalog).unwrap();
        }
    }
}
