//! Cost-space trace contract: MILP/hybrid trace incumbents are *exact*
//! plan costs (each MILP incumbent decoded and projected through
//! `plan_cost` at trace-point creation), the projected bound is a valid
//! cost-space lower bound, and a hybrid trace always ends describing the
//! plan that is actually returned — including after a safety-net swap.

use std::time::Duration;

use milpjoin::{
    ApproxMode, EncoderConfig, HybridOptimizer, JoinOrderer, MilpOptimizer, OrderingOptions,
    Precision,
};
use milpjoin_dp::GreedyOptimizer;
use milpjoin_qopt::cost::{plan_cost, CostModelKind};
use milpjoin_suite::all_plan_costs;
use milpjoin_workloads::{Topology, WorkloadSpec};

fn matches_some_plan(cost: f64, all: &[f64]) -> bool {
    all.iter()
        .any(|&c| (c - cost).abs() <= 1e-6 * (1.0 + c.abs()))
}

/// The satellite property: every MILP trace incumbent is `plan_cost` of a
/// decoded plan — verified against the exhaustive cost set of all plans —
/// and the projected bound never exceeds the true optimum.
#[test]
fn milp_trace_incumbents_are_exact_plan_costs() {
    for (topo, seed) in [
        (Topology::Star, 0u64),
        (Topology::Chain, 1),
        (Topology::Cycle, 2),
    ] {
        let (catalog, query) = WorkloadSpec::new(topo, 5).generate(seed);
        let all = all_plan_costs(&catalog, &query, CostModelKind::Cout);
        let optimal = all.iter().copied().fold(f64::INFINITY, f64::min);

        let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Medium))
            .optimize(
                &catalog,
                &query,
                &OrderingOptions::with_time_limit(Duration::from_secs(30)),
                None,
            )
            .unwrap();

        assert!(!out.cost_trace.is_empty(), "{topo:?}: no cost trace");
        for p in out.cost_trace.points() {
            if let Some(inc) = p.incumbent {
                assert!(
                    matches_some_plan(inc, &all),
                    "{topo:?} seed {seed}: trace incumbent {inc:.6e} is not \
                     the exact cost of any plan"
                );
            }
            if let Some(b) = p.bound {
                assert!(
                    b <= optimal * (1.0 + 1e-6) + 1e-9,
                    "{topo:?} seed {seed}: cost-space bound {b:.6e} exceeds \
                     the true optimum {optimal:.6e}"
                );
            }
        }
        // The trace tail describes the returned plan.
        let tail = out.cost_trace.points().last().unwrap();
        assert_eq!(tail.incumbent, Some(out.true_cost));
        // The outcome-level projection is at least as strong as the last
        // traced bound (the final bound may tighten at termination without
        // emitting another event).
        if let Some(tb) = tail.bound {
            let fb = out.cost_bound.expect("final bound at least the traced one");
            assert!(fb >= tb - 1e-9 * (1.0 + tb.abs()));
        }
    }
}

/// The hybrid's cost trace opens with the exact greedy seed cost, ends
/// with the exact cost of the returned plan (also when the safety-net swap
/// fired — the swap appends a final point describing the seed), and its
/// bound is valid for the returned plan even after a swap.
#[test]
fn hybrid_trace_describes_the_returned_plan() {
    for seed in 0..6u64 {
        let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(seed);
        let config = EncoderConfig::default().precision(Precision::Low);
        let options = OrderingOptions::with_time_limit(Duration::from_secs(30));

        let greedy = GreedyOptimizer::new(config.cost_model)
            .order(&catalog, &query, &options)
            .unwrap();
        let out = HybridOptimizer::new(config.clone())
            .order(&catalog, &query, &options)
            .unwrap();
        out.plan.validate(&query).unwrap();

        let points = out.trace.points();
        let first = points.first().expect("non-empty trace");
        assert_eq!(
            first.incumbent,
            Some(greedy.cost),
            "seed {seed}: trace must open with the exact greedy seed cost"
        );
        let tail = points.last().unwrap();
        assert_eq!(
            tail.incumbent,
            Some(out.cost),
            "seed {seed}: trace tail must describe the returned plan"
        );
        // Cost-space factor consistency: the outcome factor is cost/bound
        // with cost recomputed from scratch through the exact cost model.
        let recomputed = plan_cost(
            &catalog,
            &query,
            &out.plan,
            config.cost_model,
            &config.cost_params,
        )
        .total;
        assert!(
            (recomputed - out.cost).abs() <= 1e-9 * (1.0 + recomputed.abs()),
            "seed {seed}: outcome cost {:.6e} != plan_cost {recomputed:.6e}",
            out.cost
        );
        if let Some(b) = out.bound {
            assert!(
                b <= recomputed * (1.0 + 1e-6),
                "seed {seed}: cost-space bound {b:.6e} above the returned \
                 plan's exact cost {recomputed:.6e}"
            );
            assert_eq!(
                out.guaranteed_factor(),
                Some((recomputed / b).max(1.0)),
                "seed {seed}: guaranteed factor must be exact-cost / bound"
            );
        }
        // And the anytime accessor agrees with the tail state.
        if let Some(f) = out.trace.guaranteed_factor_at(Duration::from_secs(3600)) {
            let tail_bound = tail.bound.expect("factor requires a bound");
            assert!((f - (out.cost / tail_bound).max(1.0)).abs() <= 1e-9 * (1.0 + f));
        }
    }
}

/// Under `ApproxMode::UpperBound` the window-floor-corrected projection
/// now claims a bound: it must be `Some` for a finished solve, never
/// exceed the exhaustively-verified optimum, and trace incumbents stay
/// exact plan costs with the running-argmin monotonicity.
#[test]
fn upper_bound_projection_is_sound_against_exhaustive_optimum() {
    for (topo, seed) in [
        (Topology::Star, 3u64),
        (Topology::Chain, 4),
        (Topology::Cycle, 5),
    ] {
        let (catalog, query) = WorkloadSpec::new(topo, 5).generate(seed);
        let all = all_plan_costs(&catalog, &query, CostModelKind::Cout);
        let optimal = all.iter().copied().fold(f64::INFINITY, f64::min);

        let config = EncoderConfig {
            approx_mode: ApproxMode::UpperBound,
            ..EncoderConfig::default().precision(Precision::Medium)
        };
        let out = MilpOptimizer::new(config)
            .optimize(
                &catalog,
                &query,
                &OrderingOptions::with_time_limit(Duration::from_secs(30)),
                None,
            )
            .unwrap();

        assert!(
            out.cost_bound.is_some(),
            "{topo:?}: finished UpperBound solve must claim a cost-space bound"
        );
        let mut prev = f64::INFINITY;
        for p in out.cost_trace.points() {
            if let Some(inc) = p.incumbent {
                assert!(
                    matches_some_plan(inc, &all),
                    "{topo:?}: incumbent {inc:.6e} is not an exact plan cost"
                );
                assert!(inc <= prev * (1.0 + 1e-12), "{topo:?}: argmin regressed");
                prev = inc;
            }
            if let Some(b) = p.bound {
                assert!(
                    b <= optimal * (1.0 + 1e-6) + 1e-9,
                    "{topo:?}: UpperBound cost-space bound {b:.6e} exceeds \
                     the true optimum {optimal:.6e}"
                );
            }
        }
    }
}

/// Cross-backend comparability — the point of the redesign: DP's factor is
/// exactly 1, and the MILP's cost-space factor honestly reflects how far
/// its returned plan can be from the DP optimum.
#[test]
fn cost_space_factors_are_cross_backend_comparable() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 5).generate(4);
    let options = OrderingOptions::with_time_limit(Duration::from_secs(30));

    let dp = milpjoin_dp::DpOptimizer::default()
        .order(&catalog, &query, &options)
        .unwrap();
    assert_eq!(dp.guaranteed_factor(), Some(1.0));

    let milp = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High))
        .order(&catalog, &query, &options)
        .unwrap();
    let factor = milp
        .guaranteed_factor()
        .expect("a finished MILP solve proves a positive cost-space bound");
    // The factor is a *valid* guarantee: exact cost within factor of the
    // exact optimum (DP's cost).
    assert!(
        milp.cost <= factor * dp.cost * (1.0 + 1e-6),
        "cost {:.4e} not within {factor:.3}x of optimum {:.4e}",
        milp.cost,
        dp.cost
    );
}
