//! Acceptance tests for the decompose-and-conquer optimizer: stitched
//! plans are valid (every table joined exactly once, every predicate
//! applied by the exact coster) and never cost more than the whole-query
//! greedy construction across mixed topologies; the orchestration is
//! bit-identical at any fragment-worker count; a wall-clock budget bounds
//! the whole solve; and the router's `very-large-decompose` dispatch is
//! bit-identical to a direct solve and passes arm errors through verbatim.

use std::time::{Duration, Instant};

use milpjoin::{
    partition_join_graph, standard_router, BackendArm, DecomposeOptions, DecomposingOptimizer,
    EncoderConfig, HybridOptimizer, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
    Precision, RouterOptimizer, RouterOptions,
};
use milpjoin_dp::{greedy_order, DpOptimizer, DpOptions, GreedyOptimizer};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, Query, TableSet};
use milpjoin_workloads::{Topology, WorkloadSpec};
use proptest::prelude::*;

fn config() -> EncoderConfig {
    EncoderConfig::default().precision(Precision::Low)
}

/// Exact cost of the whole-query greedy plan under the config's model —
/// the baseline the decompose arm must never lose to.
fn greedy_cost(catalog: &Catalog, query: &Query) -> f64 {
    let config = config();
    let dp_options = DpOptions {
        cost_model: config.cost_model,
        params: config.cost_params,
        ..DpOptions::default()
    };
    let plan = greedy_order(catalog, query, &dp_options);
    plan_cost(
        catalog,
        query,
        &plan,
        config.cost_model,
        &config.cost_params,
    )
    .total
}

/// The vendored proptest stub has no `sample::select`; draw an index into
/// [`Topology::PAPER`] instead.
fn topology() -> impl Strategy<Value = Topology> {
    (0..Topology::PAPER.len()).prop_map(|i| Topology::PAPER[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Partition invariants on random large queries: fragments are
    /// disjoint, within the size cap, and cover every table.
    #[test]
    fn partition_covers_disjointly_within_cap(
        (seed, topo, tables, cap) in (0u64..500, topology(), 20usize..=40, 4usize..=10)
    ) {
        let (_, query) = WorkloadSpec::new(topo, tables).generate(seed);
        let fragments = partition_join_graph(&query, cap);
        let mut union = TableSet::EMPTY;
        for frag in &fragments {
            prop_assert!(frag.len() <= cap, "fragment over the cap");
            prop_assert!(!union.intersects(*frag), "fragments overlap");
            union = union | *frag;
        }
        prop_assert_eq!(union, TableSet::full(tables));
    }

    /// The honesty-and-quality contract: on mixed large topologies the
    /// stitched plan validates (a permutation of all tables, so the exact
    /// coster applies every predicate), its reported cost is the exact
    /// plan cost, the outcome claims no optimality or bound, and the cost
    /// never exceeds the whole-query greedy baseline.
    #[test]
    fn stitched_plans_validate_and_never_lose_to_greedy(
        (seed, topo, tables) in (0u64..500, topology(), 20usize..=26)
    ) {
        let (catalog, query) = WorkloadSpec::new(topo, tables).generate(seed);
        let backend = DecomposingOptimizer::new(config());
        let outcome = backend
            .order(&catalog, &query, &OrderingOptions::default().deterministic_budget(40))
            .expect("decompose solves every valid query");
        outcome.plan.validate(&query).expect("stitched plan is valid");
        prop_assert!(!outcome.proven_optimal);
        prop_assert!(outcome.bound.is_none());
        let cfg = config();
        let exact = plan_cost(&catalog, &query, &outcome.plan, cfg.cost_model, &cfg.cost_params).total;
        prop_assert_eq!(outcome.cost.to_bits(), exact.to_bits(), "reported cost is the exact recost");
        let baseline = greedy_cost(&catalog, &query);
        prop_assert!(
            outcome.cost <= baseline * (1.0 + 1e-9),
            "stitched {:e} worse than greedy {:e}", outcome.cost, baseline
        );
    }

    /// Determinism at any fragment-worker count: the worker pool only
    /// changes who solves which fragment, never the result. Outcomes at
    /// 1, 2 and 4 workers match bit for bit.
    #[test]
    fn outcome_bit_identical_across_worker_counts(
        (seed, topo) in (0u64..500, topology())
    ) {
        let (catalog, query) = WorkloadSpec::new(topo, 21).generate(seed);
        let backend = DecomposingOptimizer::new(config())
            .decompose_options(DecomposeOptions::default().fragment_max_tables(6));
        let solve = |workers: usize| {
            backend
                .order(
                    &catalog,
                    &query,
                    &OrderingOptions::default()
                        .deterministic_budget(60)
                        .solver_threads(workers),
                )
                .expect("decompose solves every valid query")
        };
        let one = solve(1);
        for workers in [2usize, 4] {
            let many = solve(workers);
            prop_assert_eq!(&one.plan, &many.plan, "workers={}", workers);
            prop_assert_eq!(one.cost.to_bits(), many.cost.to_bits(), "workers={}", workers);
            prop_assert_eq!(
                one.search.nodes_expanded, many.search.nodes_expanded,
                "workers={}", workers
            );
            prop_assert_eq!(
                one.search.total_lp_iterations, many.search.total_lp_iterations,
                "workers={}", workers
            );
        }
    }
}

/// A wall-clock budget bounds the whole solve, not each fragment: the arm
/// splits it over its fragment solves. Without a budget this star-30 solve
/// takes tens of seconds, so an arm that ignored the budget fails here.
#[test]
fn wall_clock_budget_bounds_the_whole_solve() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 30).generate(7);
    let budget = Duration::from_secs(1);
    let start = Instant::now();
    let outcome = DecomposingOptimizer::new(config())
        .order(&catalog, &query, &OrderingOptions::with_time_limit(budget))
        .expect("decompose solves every valid query");
    // Generous slack: each fragment may overshoot by one node LP, and CI
    // runs other tests beside this one.
    let elapsed = start.elapsed();
    assert!(
        elapsed < budget + Duration::from_secs(10),
        "decompose took {elapsed:?} under a {budget:?} budget"
    );
    outcome
        .plan
        .validate(&query)
        .expect("stitched plan is valid");
    assert!(outcome.cost <= greedy_cost(&catalog, &query) * (1.0 + 1e-9));
}

/// The router's `very-large-decompose` dispatch is pure: the routed
/// outcome matches a direct solve on the decompose arm bit for bit.
#[test]
fn router_decompose_dispatch_is_bit_identical() {
    let router = standard_router(config(), RouterOptions::default());
    let (catalog, query) = WorkloadSpec::new(Topology::Cycle, 22).generate(9);
    let opts = OrderingOptions::default().deterministic_budget(60);
    let routed = router.order(&catalog, &query, &opts).expect("routed solve");
    let decision = routed.route.expect("routed solve records its decision");
    assert_eq!(decision.arm, BackendArm::Decompose);
    assert_eq!(decision.rule, "very-large-decompose");
    let direct: OrderingOutcome = router
        .arm(BackendArm::Decompose)
        .expect("standard router installs the decompose arm")
        .order(&catalog, &query, &opts)
        .expect("direct solve");
    assert_eq!(routed.plan, direct.plan);
    assert_eq!(routed.cost.to_bits(), direct.cost.to_bits());
    assert_eq!(routed.objective.to_bits(), direct.objective.to_bits());
    assert_eq!(routed.proven_optimal, direct.proven_optimal);
    assert!(direct.route.is_none());
}

/// An arm that always fails with a fixed classification.
#[derive(Clone)]
struct FailingArm;

impl JoinOrderer for FailingArm {
    fn name(&self) -> &'static str {
        "failing"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (CostModelKind::Cout, CostParams::default())
    }

    fn order(
        &self,
        _catalog: &Catalog,
        _query: &Query,
        _options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        Err(OrderingError::Backend("decompose arm refused".into()))
    }
}

/// When the decompose arm errors, the router passes the error through
/// verbatim — it never silently retries the query on the greedy arm or
/// any other arm, even though every one of those real arms is installed
/// and would have succeeded.
#[test]
fn router_passes_decompose_errors_through_verbatim() {
    let cfg = config();
    let router = RouterOptimizer::new(RouterOptions::default())
        .with_arm(
            BackendArm::Greedy,
            GreedyOptimizer {
                cost_model: cfg.cost_model,
                params: cfg.cost_params,
            },
        )
        .with_arm(
            BackendArm::Dp,
            DpOptimizer {
                cost_model: cfg.cost_model,
                params: cfg.cost_params,
                ..Default::default()
            },
        )
        .with_arm(BackendArm::Hybrid, HybridOptimizer::new(cfg))
        .with_arm(BackendArm::Decompose, FailingArm);
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 24).generate(3);
    let err = router
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(30)),
        )
        .unwrap_err();
    match err {
        OrderingError::Backend(msg) => assert_eq!(msg, "decompose arm refused"),
        other => panic!("router reclassified the arm error: {other:?}"),
    }
}
