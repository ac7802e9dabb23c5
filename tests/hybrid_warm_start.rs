//! Warm-start behaviour of the hybrid optimizer (the acceptance surface of
//! the greedy → MILP pipeline): the anytime trace must open with an
//! incumbent — the greedy seed installed as root incumbent — before any
//! bound-only events, even on queries where cold MILP needs seconds to find
//! its first feasible plan.

#[path = "common/oracle.rs"]
mod oracle;

use std::time::{Duration, Instant};

use milpjoin::{
    warm_start_assignment, EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer,
    OrderingError, OrderingOptions, Precision,
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

/// A zero wall-clock budget stops the warm-start LP at its deadline, so
/// the solver rejects the seed and finds no plan: the cold MILP reports a
/// timeout, and the hybrid falls back to its greedy plan with honest,
/// guarantee-free certificates instead of propagating the error.
#[test]
fn zero_time_budget_falls_back_to_the_greedy_plan() {
    let options = OrderingOptions::with_time_limit(Duration::ZERO);
    let config = EncoderConfig::default();
    for (topology, tables) in [
        (Topology::Chain, 5),
        (Topology::Star, 6),
        (Topology::Cycle, 8),
    ] {
        let case = format!("{}-{tables}", topology.name());
        let (catalog, query) = WorkloadSpec::new(topology, tables).generate(1);
        let greedy = GreedyOptimizer::new(config.cost_model)
            .order(&catalog, &query, &options)
            .unwrap();
        let out = HybridOptimizer::new(config.clone())
            .order(&catalog, &query, &options)
            .unwrap();
        assert_eq!(out.plan, greedy.plan, "{case}: plan");
        assert_eq!(out.cost.to_bits(), greedy.cost.to_bits(), "{case}: cost");
        assert_eq!(out.objective.to_bits(), out.cost.to_bits(), "{case}");
        assert_eq!(out.bound, None, "{case}: bound");
        assert!(!out.proven_optimal, "{case}: proven_optimal");
        let points = out.trace.points();
        assert_eq!(points.len(), 1, "{case}: trace");
        assert_eq!(points[0].incumbent, Some(out.cost), "{case}: trace");
        assert_eq!(points[0].bound, None, "{case}: trace");
        assert_eq!(out.search.nodes_expanded, 0, "{case}: nodes");

        let cold = MilpOptimizer::new(config.clone()).order(&catalog, &query, &options);
        assert_eq!(cold.unwrap_err(), OrderingError::Timeout, "{case}: cold");
    }
}

/// An invalid initial plan is a caller bug and must be reported, not
/// silently ignored.
#[test]
fn invalid_initial_plan_is_an_error() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 4).generate(0);
    let bad = milpjoin_qopt::LeftDeepPlan::from_order(vec![query.tables[0], query.tables[1]]);
    let err = MilpOptimizer::default()
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
        matches!(err, OrderingError::ResourceLimit(_)),
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
        matches!(err, OrderingError::InvalidConfig(_)),
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
    let err = HybridOptimizer::default()
        .order(&catalog, &query, &OrderingOptions::default())
        .unwrap_err();
    assert!(
        matches!(err, OrderingError::InvalidQuery(_)),
        "expected InvalidQuery, got {err:?}"
    );
}

/// The hybrid's contract past the sizes the oracle enumerates, on 7-table
/// chains: its exact cost never exceeds its greedy seed's (the seed is an
/// argmin candidate), and its trace opens at the greedy cost.
#[test]
fn hybrid_contract_across_seeds() {
    let hybrid = oracle::Arm::Hybrid(milpjoin::ApproxMode::LowerBound, Precision::Low);
    let chains = (0..4).map(|seed| (Topology::Chain, 7, seed));
    oracle::check_rows(&oracle::cout_rows(chains, |r| r.search(&[hybrid])));
}

/// A node LP that stalls again after its perturbed optimum failed on the
/// true costs gives up at that second stall. Re-engaging the deterministic
/// cost perturbation would replay the same walk until the iteration limit:
/// this 5-table cycle spent 20,309 LP iterations in that loop under a
/// 20-node budget, and about 3,600 without it. It now takes 788: two of
/// its LPs stall long enough for Bland's rule (117 pivots in all), and
/// none reaches the perturbation. The simplex unit tests pin each stall stage on
/// synthetic LPs and on the guard itself.
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

/// `elapsed` is the span of the whole backend call, not the solver's own
/// clock: it exceeds `solve_time` by the encoding, hints, decoding and
/// re-costing around the solve, and every cost-trace point lies on the
/// same origin, never after it. The hybrid's span also covers its
/// validation and greedy seed.
#[test]
fn elapsed_spans_the_whole_backend_call() {
    for (topology, tables) in [(Topology::Chain, 6), (Topology::Star, 8)] {
        let case = format!("{}-{tables}", topology.name());
        let (catalog, query) = WorkloadSpec::new(topology, tables).generate(3);
        let options = OrderingOptions::with_deterministic_budget(20);
        let hybrid = HybridOptimizer::new(EncoderConfig::default());
        let seed = hybrid.seed_plan(&catalog, &query);
        let out = MilpOptimizer::new(EncoderConfig::default())
            .optimize(&catalog, &query, &options, Some(&seed))
            .unwrap();
        assert!(
            out.elapsed > out.solve_time,
            "{case}: elapsed {:?}, solve_time {:?}",
            out.elapsed,
            out.solve_time
        );
        let last = out.cost_trace.points().last().expect("non-empty trace");
        assert!(last.elapsed <= out.elapsed, "{case}: trace after elapsed");
        let elapsed = out.elapsed;
        assert_eq!(out.into_ordering_outcome().elapsed, elapsed, "{case}");

        let before = Instant::now();
        let out = hybrid.order(&catalog, &query, &options).unwrap();
        let wall = before.elapsed();
        let last = out.trace.points().last().expect("non-empty trace");
        assert!(
            last.elapsed <= out.elapsed,
            "{case}: hybrid trace after elapsed"
        );
        assert!(out.elapsed <= wall, "{case}: hybrid elapsed past the call");
    }
}

/// The chain-6 query whose root LP used to crawl under Bland's rule: the
/// stall guard compared every pivot against an infinite best, so every
/// pivot counted as a stall and this root LP took 6,159 iterations, the
/// last 5,758 of them under the cost perturbation until `stall_abort`
/// (13,455 over the whole solve). Counting progress, it takes 1,206
/// (2,822 in all). With the infinite best and the perturbed-stall exit,
/// the root LP would stop short at 878, but the solve would take 5,719.
/// Under the threshold hull rows and a dual tolerance above the round-off
/// of the largest cost, it takes 130 (291 in all).
#[test]
fn chain_six_root_lp_does_not_crawl() {
    let (catalog, query) =
        WorkloadSpec::new(Topology::Chain, 6).generate(4_741_404_531_979_287_686);
    let out = HybridOptimizer::new(EncoderConfig::default())
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_deterministic_budget(20),
        )
        .unwrap();
    out.plan.validate(&query).unwrap();
    let (root, total) = (
        out.search.root_lp_iterations,
        out.search.total_lp_iterations,
    );
    assert!(root <= 2_000, "{root} root LP iterations");
    assert!(total <= 4_000, "{total} LP iterations");
}

/// The cycle-6 query whose root LP lost its bound on cost round-off. The
/// encoder's costs reach 3.5e13 after scaling, so the simplex multipliers
/// carry round-off of about 1e-6 on rows whose true dual is 0, and two
/// zero-cost columns priced at −4.2e-7 and −8.9e-7: past a fixed 1e-7
/// dual tolerance. Under the threshold hull rows the root LP reached its
/// optimum near pivot 200 and then traded those two columns through 400
/// degenerate pivots, Bland's rule and the cost perturbation until the
/// perturbed-stall exit at pivot 1,001. The root lost its bound and the
/// search took 13,616 LP iterations. With a dual tolerance above the
/// round-off of the largest cost, the root takes 156 and the search 286
/// (2,535 under the big-M rows).
#[test]
fn cycle_six_root_lp_keeps_its_bound() {
    let (catalog, query) =
        WorkloadSpec::new(Topology::Cycle, 6).generate(14_859_312_362_387_023_205);
    let out = HybridOptimizer::new(EncoderConfig::default())
        .order(
            &catalog,
            &query,
            &OrderingOptions::with_deterministic_budget(20),
        )
        .unwrap();
    out.plan.validate(&query).unwrap();
    assert!(out.bound.is_some(), "no bound reported");
    let (root, total) = (
        out.search.root_lp_iterations,
        out.search.total_lp_iterations,
    );
    assert!(root <= 1_000, "{root} root LP iterations");
    assert!(total <= 2_000, "{total} LP iterations");
}
