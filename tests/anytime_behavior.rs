//! Anytime-contract tests: incumbents only improve, bounds only rise, time
//! limits are respected, and the guaranteed factor is monotone, over time
//! and over node budgets.

use std::time::{Duration, Instant};

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_dp::{greedy_order, DpOptions};
use milpjoin_milp::SolveStatus;
use milpjoin_qopt::{Catalog, Predicate, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};

#[test]
fn trace_monotonicity() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(2);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    let mut last_inc = f64::INFINITY;
    let mut last_bound = f64::NEG_INFINITY;
    let mut last_t = Duration::ZERO;
    for p in out.trace.points() {
        assert!(p.elapsed >= last_t, "time went backwards");
        last_t = p.elapsed;
        if let Some(inc) = p.incumbent {
            assert!(inc <= last_inc * (1.0 + 1e-9), "incumbent worsened");
            last_inc = inc;
        }
        assert!(
            p.bound >= last_bound - 1e-9 * (1.0 + last_bound.abs()),
            "bound dropped"
        );
        last_bound = p.bound;
    }
}

#[test]
fn guaranteed_factor_is_nonincreasing_over_time() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 6).generate(4);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    let mut last = f64::INFINITY;
    for ms in [50u64, 200, 1000, 5000, 20000] {
        if let Some(f) = out.trace.guaranteed_factor_at(Duration::from_millis(ms)) {
            assert!(
                f <= last * (1.0 + 1e-9),
                "factor rose from {last} to {f} at {ms}ms"
            );
            last = f;
        }
    }
}

#[test]
fn time_limit_respected() {
    let (catalog, query) = WorkloadSpec::new(Topology::Chain, 12).generate(1);
    let limit = Duration::from_millis(800);
    let start = Instant::now();
    let _ = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Low)).optimize(
        &catalog,
        &query,
        &OrderingOptions::with_time_limit(limit),
        None,
    );
    // Generous slack: one node LP may overshoot slightly.
    assert!(start.elapsed() < limit + Duration::from_secs(10));
}

#[test]
fn final_factor_matches_trace_tail() {
    let (catalog, query) = WorkloadSpec::new(Topology::Star, 4).generate(3);
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::Medium))
        .optimize(
            &catalog,
            &query,
            &OrderingOptions::with_time_limit(Duration::from_secs(20)),
            None,
        )
        .unwrap();
    if let (Some(final_factor), Some(tail)) = (
        out.optimality_factor(),
        out.trace.guaranteed_factor_at(Duration::from_secs(3600)),
    ) {
        assert!((final_factor - tail).abs() <= 0.5 + 0.1 * final_factor.abs());
    }
}

/// `fig2` reads one solve per node budget, so its rows are only meaningful
/// if a larger budget never ends worse: the incumbent objective and the
/// guaranteed factor never rise, the bound never falls (up to the
/// tolerance of `trace_monotonicity`; child re-solves move it by float
/// noise), and a repeated budgeted solve is bit-identical. Cold solves are
/// what `fig2` runs; greedy-seeded ones have a plan at every budget.
#[test]
fn node_budget_anytime_contract() {
    const BUDGETS: [u64; 6] = [0, 1, 3, 10, 30, 100];
    let optimizer = MilpOptimizer::new(EncoderConfig::default());
    for topology in Topology::PAPER {
        for (tables, seed) in [(5, 1), (6, 2)] {
            let (catalog, query) = WorkloadSpec::new(topology, tables).generate(seed);
            let greedy = greedy_order(&catalog, &query, &DpOptions::default());
            for start in [None, Some(&greedy)] {
                let solve = |budget| {
                    optimizer
                        .optimize(
                            &catalog,
                            &query,
                            &OrderingOptions::with_deterministic_budget(budget),
                            start,
                        )
                        .ok()
                };
                let mut last: Option<(f64, f64, f64)> = None;
                for budget in BUDGETS {
                    let case = format!(
                        "{} {tables} seed {seed} seeded {} budget {budget}",
                        topology.name(),
                        start.is_some()
                    );
                    let (out, again) = (solve(budget), solve(budget));
                    assert_eq!(out.is_some(), again.is_some(), "{case}: repeat differs");
                    let (Some(out), Some(again)) = (out, again) else {
                        assert!(last.is_none(), "{case}: lost the plan of a smaller budget");
                        continue;
                    };
                    assert_eq!(out.milp_objective.to_bits(), again.milp_objective.to_bits());
                    assert_eq!(out.milp_bound.to_bits(), again.milp_bound.to_bits());
                    assert_eq!(out.plan.order, again.plan.order, "{case}: repeat differs");

                    let factor = out.optimality_factor().unwrap_or(f64::INFINITY);
                    if let Some((objective, bound, last_factor)) = last {
                        assert!(out.milp_objective <= objective, "{case}: objective rose");
                        assert!(factor <= last_factor, "{case}: factor rose");
                        assert!(
                            out.milp_bound >= bound - 1e-9 * (1.0 + bound.abs()),
                            "{case}: bound fell from {bound} to {}",
                            out.milp_bound
                        );
                    }
                    last = Some((out.milp_objective, out.milp_bound, factor));
                }
                if start.is_some() {
                    assert!(last.is_some(), "a seeded solve always has a plan");
                }
            }
        }
    }
}

/// Under C_out a two-table query has no intermediate result, so its optimum
/// costs 0 and no positive bound can exist below it. The final factor must
/// still report the proof, as the trace and the cost-space outcome do.
#[test]
fn proven_zero_objective_has_factor_one() {
    let mut catalog = Catalog::new();
    let r = catalog.add_table("R", 10.0);
    let s = catalog.add_table("S", 1000.0);
    let mut query = Query::new(vec![r, s]);
    query.add_predicate(Predicate::binary(r, s, 0.1));
    let out = MilpOptimizer::with_defaults()
        .optimize(&catalog, &query, &OrderingOptions::default(), None)
        .unwrap();
    assert_eq!(out.status, SolveStatus::Optimal);
    assert_eq!((out.milp_objective, out.milp_bound), (0.0, 0.0));
    assert_eq!(out.optimality_factor(), Some(1.0));
    let end = Duration::from_secs(3600);
    assert_eq!(out.trace.guaranteed_factor_at(end), Some(1.0));
    assert_eq!(out.cost_trace.guaranteed_factor_at(end), Some(1.0));
    assert_eq!(out.into_ordering_outcome().guaranteed_factor(), Some(1.0));
}
