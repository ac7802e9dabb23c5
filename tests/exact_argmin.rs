//! The exact-cost argmin contract and the UpperBound bound projection,
//! across the backend/config matrix.
//!
//! Two invariants from the incumbent-pipeline redesign:
//!
//! 1. **Argmin**: the returned plan's exact cost equals the minimum exact
//!    cost over every trace incumbent — the backend returns the best plan
//!    it ever decoded, and the cost-space trace is monotone non-increasing.
//! 2. **Sound UpperBound bound**: under `ApproxMode::UpperBound` the
//!    projected cost-space bound is `Some` for a finished solve and never
//!    exceeds the DP-verified optimum (the window-floor accounting keeps
//!    the projection a true lower bound).

use std::time::Duration;

use milpjoin::{
    ApproxMode, EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer, OrderingOptions,
    OrderingOutcome, Precision,
};
use milpjoin_dp::DpOptimizer;
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};
use proptest::prelude::*;

fn options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(30))
}

/// Invariant 1 for one outcome: cost == min over trace incumbents, trace
/// monotone, tail describes the returned plan.
fn assert_argmin(label: &str, out: &OrderingOutcome) {
    let incumbents: Vec<f64> = out
        .trace
        .points()
        .iter()
        .filter_map(|p| p.incumbent)
        .collect();
    assert!(!incumbents.is_empty(), "{label}: no trace incumbents");
    let min = incumbents.iter().copied().fold(f64::INFINITY, f64::min);
    assert!(
        (out.cost - min).abs() <= 1e-9 * (1.0 + min.abs()),
        "{label}: returned cost {:.6e} != min trace incumbent {min:.6e}",
        out.cost
    );
    for w in incumbents.windows(2) {
        assert!(
            w[1] <= w[0] * (1.0 + 1e-12) + 1e-12,
            "{label}: trace incumbents regressed ({:.6e} -> {:.6e})",
            w[0],
            w[1]
        );
    }
    let tail = out.trace.points().last().unwrap();
    assert_eq!(
        tail.incumbent,
        Some(out.cost),
        "{label}: trace tail must describe the returned plan"
    );
}

/// Invariant 2 for one outcome: any claimed cost-space bound is a true
/// lower bound on the DP-verified optimum.
fn assert_bound_sound(label: &str, out: &OrderingOutcome, dp_optimum: f64) {
    if let Some(b) = out.bound {
        assert!(
            b <= dp_optimum * (1.0 + 1e-6) + 1e-9,
            "{label}: cost-space bound {b:.6e} exceeds the DP optimum {dp_optimum:.6e}"
        );
    }
    for p in out.trace.points() {
        if let Some(b) = p.bound {
            assert!(
                b <= dp_optimum * (1.0 + 1e-6) + 1e-9,
                "{label}: traced bound {b:.6e} exceeds the DP optimum {dp_optimum:.6e}"
            );
        }
    }
}

/// The backend/config matrix of the acceptance criteria: MILP and hybrid
/// under both approximation modes and two precisions.
fn matrix() -> Vec<(String, Box<dyn JoinOrderer>)> {
    let mut backends: Vec<(String, Box<dyn JoinOrderer>)> = Vec::new();
    for mode in [ApproxMode::LowerBound, ApproxMode::UpperBound] {
        for precision in [Precision::Low, Precision::Medium] {
            let config = EncoderConfig {
                approx_mode: mode,
                ..EncoderConfig::default().precision(precision)
            };
            backends.push((
                format!("milp/{mode:?}/{}", precision.name()),
                Box::new(MilpOptimizer::new(config.clone())),
            ));
            backends.push((
                format!("hybrid/{mode:?}/{}", precision.name()),
                Box::new(HybridOptimizer::new(config)),
            ));
        }
    }
    backends
}

fn check_query(label_prefix: &str, catalog: &Catalog, query: &Query) {
    let dp = DpOptimizer::default()
        .order(catalog, query, &options())
        .expect("DP solves tier-1 sizes");
    for (name, backend) in matrix() {
        let label = format!("{label_prefix}/{name}");
        let out = backend
            .order(catalog, query, &options())
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        out.plan.validate(query).unwrap();
        assert_argmin(&label, &out);
        assert_bound_sound(&label, &out, dp.cost);
        // The returned plan can never be worse than what any backend
        // proves: its cost is at least the DP optimum.
        assert!(
            out.cost >= dp.cost * (1.0 - 1e-6) - 1e-9,
            "{label}: cost {:.6e} below the DP optimum {:.6e}?!",
            out.cost,
            dp.cost
        );
    }
}

/// Deterministic matrix sweep on one workload per topology (the acceptance
/// criterion's tier-1 shapes), including the UpperBound `Some`-bound check
/// for finished solves.
#[test]
fn matrix_argmin_and_upper_bound_soundness() {
    for (topo, seed) in [
        (Topology::Chain, 11u64),
        (Topology::Star, 12),
        (Topology::Cycle, 13),
    ] {
        let (catalog, query) = WorkloadSpec::new(topo, 5).generate(seed);
        check_query(topo.name(), &catalog, &query);

        // A finished UpperBound solve must now claim a bound (the previous
        // behavior was an unconditional None).
        let out = MilpOptimizer::new(EncoderConfig {
            approx_mode: ApproxMode::UpperBound,
            ..EncoderConfig::default().precision(Precision::Medium)
        })
        .order(&catalog, &query, &options())
        .unwrap();
        assert!(
            out.bound.is_some(),
            "{topo:?}: UpperBound solve claimed no cost-space bound"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized version over chain/star/cycle shapes and sizes.
    #[test]
    fn random_queries_satisfy_argmin_and_bounds(
        (topo_ix, tables, seed) in (0usize..3, 3usize..=5, 0u64..1000)
    ) {
        let topo = [Topology::Chain, Topology::Star, Topology::Cycle][topo_ix];
        let (catalog, query) = WorkloadSpec::new(topo, tables).generate(seed);
        check_query(&format!("{}/{tables}t/{seed}", topo.name()), &catalog, &query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The seeded contract: under any node budget, a seeded solve never
    /// returns a plan costlier than its seed — the greedy plan or an
    /// arbitrary rotation of the query's tables — and the argmin contract
    /// holds for it.
    #[test]
    fn seeded_solves_never_lose_to_their_seed(
        (topo_ix, tables, seed, budget_ix, rotation) in
            (0usize..4, 4usize..=7, 0u64..1000, 0usize..4, 0usize..8)
    ) {
        let topo = [Topology::Chain, Topology::Star, Topology::Cycle, Topology::Clique][topo_ix];
        let budget = [0u64, 1, 5, 20][budget_ix];
        let (catalog, query) = WorkloadSpec::new(topo, tables).generate(seed);
        let config = EncoderConfig::default();
        let mut rotated = query.tables.clone();
        rotated.rotate_left(rotation % tables);
        let seeds = [
            HybridOptimizer::new(config.clone()).seed_plan(&catalog, &query),
            LeftDeepPlan::from_order(rotated),
        ];
        for (name, start) in ["greedy", "rotated"].into_iter().zip(&seeds) {
            let label = format!("{}/{tables}t/{seed}/budget {budget}/{name}", topo.name());
            let seed_cost =
                plan_cost(&catalog, &query, start, config.cost_model, &config.cost_params).total;
            let out = MilpOptimizer::new(config.clone())
                .optimize(
                    &catalog,
                    &query,
                    &OrderingOptions::with_deterministic_budget(budget),
                    Some(start),
                )
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            out.plan.validate(&query).unwrap();
            assert!(
                out.true_cost <= seed_cost,
                "{label}: returned cost {:.6e} above the seed's {seed_cost:.6e}",
                out.true_cost
            );
            assert_argmin(&label, &out.into_ordering_outcome());
        }
    }
}
