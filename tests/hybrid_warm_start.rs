//! Warm-start behaviour of the hybrid optimizer (the acceptance surface of
//! the greedy → MILP pipeline): the anytime trace must open with an
//! incumbent — the greedy seed installed as root incumbent — before any
//! bound-only events, even on queries where cold MILP needs seconds to find
//! its first feasible plan.

use std::time::Duration;

use milpjoin::{
    warm_start_assignment, EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer,
    OrderingOptions, Precision,
};
use milpjoin_dp::GreedyOptimizer;
use milpjoin_workloads::{Topology, WorkloadSpec};

/// The ISSUE's acceptance criterion: on a 10-table star workload the
/// hybrid's trace has an incumbent at its *first* point (warm start
/// observable at t ≈ 0).
#[test]
fn ten_table_star_trace_opens_with_incumbent() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 10).generate(42);
    let hybrid = HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low));
    let out = hybrid
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(8)),
        )
        .unwrap();
    out.plan.validate(&query).unwrap();
    let first = out.trace.points().first().expect("trace must not be empty");
    assert!(
        first.incumbent.is_some(),
        "warm start must install the greedy incumbent before any bound event"
    );
    // The warm start lands before the solve does anything expensive.
    assert!(
        first.elapsed < Duration::from_secs(5),
        "incumbent too late: {:?}",
        first.elapsed
    );
}

/// The root incumbent *is* the greedy plan: with a zero node limit the MILP
/// can do nothing but return the warm-start incumbent, whose exact cost
/// must equal the greedy plan's cost.
#[test]
fn root_incumbent_equals_greedy_objective() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 8).generate(7);
    let config = EncoderConfig::default().precision(Precision::Medium);
    let greedy = GreedyOptimizer::new(config.cost_model)
        .order(&catalog, &query, &OrderingOptions::default())
        .unwrap();

    let options = OrderingOptions::with_deterministic_budget(0);
    let out = MilpOptimizer::new(config)
        .optimize(&catalog, &query, &options, Some(&greedy.plan))
        .unwrap();
    assert_eq!(
        out.search.nodes_expanded, 0,
        "node limit must keep the search at the root"
    );
    assert_eq!(
        out.plan.order, greedy.plan.order,
        "decoded root incumbent is the seed plan"
    );
    assert!(
        (out.true_cost - greedy.cost).abs() <= 1e-6 * (1.0 + greedy.cost.abs()),
        "root incumbent cost {} != greedy cost {}",
        out.true_cost,
        greedy.cost
    );
}

/// The hint covers every binary the plan determines, so the solver accepts
/// it without a single branch-and-bound node — across topologies and
/// precisions.
#[test]
fn warm_start_assignment_is_always_feasible() {
    for topo in Topology::PAPER {
        for precision in [Precision::Low, Precision::High] {
            let (catalog, query) = WorkloadSpec::new(topo, 6).generate(11);
            let config = EncoderConfig::default().precision(precision);
            let encoding = milpjoin::encode(&catalog, &query, &config).unwrap();
            let greedy = GreedyOptimizer::new(config.cost_model)
                .order(&catalog, &query, &OrderingOptions::default())
                .unwrap();
            let hints = warm_start_assignment(&encoding, &catalog, &query, &greedy.plan).unwrap();
            // Hinted values are binary and cover the join-order variables.
            assert!(hints.iter().all(|&(_, v)| v == 0.0 || v == 1.0));
            let n = query.num_tables();
            assert!(hints.len() >= 2 * n * (n - 1));

            let options = OrderingOptions::with_deterministic_budget(0);
            let out = MilpOptimizer::new(config)
                .optimize(&catalog, &query, &options, Some(&greedy.plan))
                .unwrap();
            assert_eq!(
                out.plan.order, greedy.plan.order,
                "{topo:?}/{precision:?}: hint rejected"
            );
        }
    }
}

/// An invalid initial plan is a caller bug and must be reported, not
/// silently ignored.
#[test]
fn invalid_initial_plan_is_an_error() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 4).generate(0);
    let bad = milpjoin_qopt::LeftDeepPlan::from_order(vec![query.tables[0], query.tables[1]]);
    let err = MilpOptimizer::with_defaults()
        .optimize(&catalog, &query, &OrderingOptions::default(), Some(&bad))
        .unwrap_err();
    assert!(err.to_string().contains("invalid initial plan"), "{err}");
}

/// Exhausting the node budget without a time limit is a resource-limit
/// error, not a "timeout" (there was no clock to run out).
#[test]
fn node_budget_exhaustion_is_not_a_timeout() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(0);
    let err = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_deterministic_budget(0),
        )
        .unwrap_err();
    assert!(
        matches!(err, milpjoin::OrderingError::ResourceLimit(_)),
        "expected ResourceLimit, got {err:?}"
    );
}

/// Encoder configuration errors surface as InvalidConfig, not as a problem
/// with the (perfectly fine) query.
#[test]
fn config_errors_are_not_query_errors() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 4).generate(0);
    let config = EncoderConfig {
        interesting_orders: true, // requires operator_selection
        operator_selection: false,
        ..Default::default()
    };
    let err = MilpOptimizer::new(config)
        .order(&catalog, &query, &OrderingOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, milpjoin::OrderingError::InvalidConfig(_)),
        "expected InvalidConfig, got {err:?}"
    );
}

/// An invalid query must surface as an error from the hybrid too — not a
/// panic in the greedy seeding that runs before the MILP's own validation.
#[test]
fn hybrid_rejects_invalid_queries_without_panicking() {
    let catalog = milpjoin_qopt::Catalog::new(); // empty: query tables unknown
    let mut other = milpjoin_qopt::Catalog::new();
    let r = other.add_table("R", 10.0);
    let s = other.add_table("S", 20.0);
    let query = milpjoin_qopt::Query::new(vec![r, s]);
    let err = HybridOptimizer::with_defaults()
        .order(&catalog, &query, &OrderingOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, milpjoin::OrderingError::InvalidQuery(_)),
        "expected InvalidQuery, got {err:?}"
    );
}

/// The hybrid's guaranteed contract, across seeds: its exact cost never
/// exceeds its greedy seed's (the safety net), and the trace always opens
/// with an incumbent. (No bound against a *cold* MILP run is asserted —
/// MILP-space ties can legitimately decode differently between two
/// searches, so that property is not guaranteed.)
#[test]
fn hybrid_contract_across_seeds() {
    for seed in 0..4u64 {
        let (catalog, query) = WorkloadSpec::new(Topology::Chain, 7).generate(seed);
        let config = EncoderConfig::default().precision(Precision::Low);
        let options = OrderingOptions::with_time_limit(Duration::from_secs(20));
        let greedy = GreedyOptimizer::new(config.cost_model)
            .order(&catalog, &query, &options)
            .unwrap();
        let warm = HybridOptimizer::new(config)
            .order(&catalog, &query, &options)
            .unwrap();
        warm.plan.validate(&query).unwrap();
        assert!(
            warm.cost <= greedy.cost * (1.0 + 1e-9),
            "seed {seed}: hybrid {} worse than its greedy seed {}",
            warm.cost,
            greedy.cost
        );
        let first = warm.trace.points().first().expect("non-empty trace");
        assert!(
            first.incumbent.is_some(),
            "seed {seed}: trace must open with the warm start"
        );
    }
}

/// A node LP that stalls again after its perturbed optimum failed on the
/// true costs gives up at that second stall. Re-engaging the deterministic
/// cost perturbation would replay the same walk until the iteration limit:
/// this 5-table cycle spent 20,309 LP iterations in that loop under a
/// 20-node budget, and about 3,600 without it.
#[test]
fn perturbed_stall_does_not_cycle() {
    let (catalog, query) =
        WorkloadSpec::new(Topology::Cycle, 5).generate(6_884_233_016_877_735_413);
    let out = HybridOptimizer::new(EncoderConfig::default())
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_deterministic_budget(20),
        )
        .unwrap();
    out.plan.validate(&query).unwrap();
    let iterations = out.search.total_lp_iterations;
    assert!(
        iterations <= 6_000,
        "{iterations} LP iterations: a perturbed stall cycled"
    );
}
