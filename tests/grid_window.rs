//! Regression coverage for the per-cost-model threshold-window width
//! (`thresholds::max_grid_decades`).
//!
//! The widening is only useful if the solver stays numerically sound on
//! the wide windows it enables: the block-nested-loop conversion factor
//! (~3.9 decades at default parameters) pushes the BNL grid to ~9.5
//! decades of cardinality span, where the `co = Σ δ_r·cto_r` row mixes
//! its extreme coefficients at a ratio beyond the 6-decade cost-space
//! conditioning baseline. These tests pin the empirical behavior the
//! widening was validated against: wide-cardinality BNL queries must
//! solve without phantom infeasibility and land on (or within the
//! documented tolerance of) the DP optimum.

use milpjoin::{EncoderConfig, MilpOptimizer, Precision};
use milpjoin_dp::DpOptimizer;
use milpjoin_qopt::cost::CostModelKind;
use milpjoin_qopt::orderer::{JoinOrderer, OrderingOptions};
use milpjoin_qopt::{Catalog, Predicate, Query};
use std::time::Duration;

fn chain(cards: &[f64], sels: &[f64]) -> (Catalog, Query) {
    let mut c = Catalog::new();
    let ids: Vec<_> = cards
        .iter()
        .enumerate()
        .map(|(i, &x)| c.add_table(format!("t{i}"), x))
        .collect();
    let mut q = Query::new(ids.clone());
    for (i, &s) in sels.iter().enumerate() {
        q.add_predicate(Predicate::binary(ids[i], ids[i + 1], s));
    }
    (c, q)
}

#[test]
fn wide_cardinality_bnl_solves_to_the_dp_optimum() {
    // Cardinalities spanning 7 decades: the BNL window is anchored ~3.9
    // decades above the greedy cost scale and extends ~9.5 decades down —
    // the exact configuration the widened per-model width enables.
    for (cards, sels) in [
        (vec![10.0, 1e3, 1e5, 1e7, 1e8], vec![1e-4, 1e-3, 1e-4, 1e-2]),
        (
            vec![2.0, 1e2, 1e4, 1e6, 1e8, 5e8],
            vec![0.5, 1e-2, 1e-4, 1e-3, 1e-4],
        ),
    ] {
        let (c, q) = chain(&cards, &sels);
        for prec in [Precision::High, Precision::Medium] {
            let cfg = EncoderConfig::new(prec, CostModelKind::BlockNestedLoop);
            let milp = MilpOptimizer::new(cfg);
            let grid = &milp.encode_only(&c, &q).unwrap().grid;
            let span = grid.top_value().log10() - grid.floor_value().log10();
            assert!(
                span > 6.5,
                "{prec:?}: expected a widened window, got {span:.2} decades"
            );
            // Phantom infeasibility / detached-variable failures would
            // surface as Infeasible or NoPlanFound here.
            let out = milp
                .optimize(
                    &c,
                    &q,
                    &OrderingOptions::with_time_limit(Duration::from_secs(30)),
                    None,
                )
                .unwrap();
            let dp = DpOptimizer::new(CostModelKind::BlockNestedLoop)
                .order(&c, &q, &OrderingOptions::default())
                .unwrap();
            assert!(out.true_cost.is_finite());
            // Within the grid's own approximation tolerance of the true
            // optimum (observed: within 1.5% even when the time budget
            // stops the gap proof early).
            let f = prec.tolerance_factor();
            assert!(
                out.true_cost <= dp.cost * f * (1.0 + 1e-9),
                "{prec:?}: milp {:.4e} vs dp {:.4e} (allowed factor {f})",
                out.true_cost,
                dp.cost
            );
            assert!(out.status.has_solution(), "{prec:?}: {:?}", out.status);
        }
    }
}
