//! Focused tests of the decoder and the cardinality-encoding semantics:
//! solve small MILPs, inspect the raw variable assignment, and check that
//! the threshold machinery holds what §4.2 promises.

use std::time::Duration;

use milpjoin::{decode, encode, EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_milp::{Solution, Solver, SolverOptions};
use milpjoin_qopt::{Catalog, Estimator, Predicate, Query, TableSet};

fn example() -> (Catalog, Query) {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 1000.0);
    let t = c.add_table("T", 100.0);
    let mut q = Query::new(vec![r, s, t]);
    q.add_predicate(Predicate::binary(r, s, 0.1));
    (c, q)
}

#[test]
fn decoded_solution_matches_raw_assignment() {
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default().precision(Precision::High)).unwrap();
    let result = Solver::new(SolverOptions {
        time_limit: Some(Duration::from_secs(30)),
        ..SolverOptions::default()
    })
    .solve(&enc.model)
    .unwrap();
    let sol = result.solution.as_ref().unwrap();
    let d = decode(&enc, &q, sol).unwrap();
    d.plan.validate(&q).unwrap();

    // The decoded order must agree with the raw tio/tii assignment.
    let first = d.plan.order[0];
    let first_pos = q.table_position(first).unwrap();
    assert!(sol.is_one(enc.vars.tio[0][first_pos]));
    for (j, &inner) in d.plan.order[1..].iter().enumerate() {
        let pos = q.table_position(inner).unwrap();
        assert!(sol.is_one(enc.vars.tii[j][pos]), "join {j} inner mismatch");
    }
}

#[test]
fn decode_rejects_garbage_assignments() {
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default()).unwrap();
    // All zeros: no outer table selected.
    let zeros = Solution::new(vec![0.0; enc.model.num_vars()]);
    assert!(decode(&enc, &q, &zeros).is_err());
    // Everything one: ambiguous operands.
    let ones = Solution::new(vec![1.0; enc.model.num_vars()]);
    assert!(decode(&enc, &q, &ones).is_err());
}

#[test]
fn lco_equals_estimator_on_solved_plans() {
    // In the solved MILP, lco_j must equal the estimator's log-cardinality
    // of the outer operand implied by the decoded plan prefix (because the
    // solver applies every applicable predicate).
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default().precision(Precision::High)).unwrap();
    let result = Solver::new(SolverOptions::default())
        .solve(&enc.model)
        .unwrap();
    let sol = result.solution.as_ref().unwrap();
    let d = decode(&enc, &q, sol).unwrap();
    let est = Estimator::new(&c, &q);
    for j in 0..enc.num_joins {
        let prefix = d.plan.prefix_set(&q, j);
        let expect = est.log10_cardinality(prefix);
        let got = sol.value(enc.vars.lco[j]);
        assert!(
            (got - expect).abs() < 1e-4,
            "join {j}: lco {got} vs estimator {expect}"
        );
    }
}

#[test]
fn co_respects_tolerance_within_window() {
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default().precision(Precision::High)).unwrap();
    let result = Solver::new(SolverOptions::default())
        .solve(&enc.model)
        .unwrap();
    let sol = result.solution.as_ref().unwrap();
    let d = decode(&enc, &q, sol).unwrap();
    let est = Estimator::new(&c, &q);
    let factor = Precision::High.tolerance_factor();
    for j in 0..enc.num_joins {
        let prefix = d.plan.prefix_set(&q, j);
        let true_card = est.cardinality(prefix);
        let co = sol.value(enc.vars.co[j]);
        // Lower-bound mode: co <= card; within the window, co >= card/factor.
        assert!(
            co <= true_card * (1.0 + 1e-6) + 1.0,
            "join {j}: co {co} > card {true_card}"
        );
        let lc = true_card.log10();
        if lc > enc.grid.log_threshold(0) && lc <= enc.grid.log_threshold(enc.grid.len() - 1) {
            assert!(
                co * factor * (1.0 + 1e-6) >= true_card,
                "join {j}: co {co} below tolerance of {true_card}"
            );
        }
    }
}

#[test]
fn optimizer_is_deterministic_for_fixed_seed() {
    let (c, q) = example();
    let run = || {
        MilpOptimizer::new(EncoderConfig::default().precision(Precision::Medium))
            .optimize(&c, &q, &OrderingOptions::default(), None)
            .unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a.plan.order, b.plan.order);
    assert_eq!(a.milp_objective, b.milp_objective);
}

#[test]
fn threshold_flags_form_prefix_under_ordering() {
    let (c, q) = example();
    let config = EncoderConfig::default().precision(Precision::Medium);
    let enc = encode(&c, &q, &config).unwrap();
    let result = Solver::new(SolverOptions::default())
        .solve(&enc.model)
        .unwrap();
    let sol = result.solution.as_ref().unwrap();
    for j in 0..enc.num_joins {
        let mut seen_zero = false;
        for r in 0..enc.grid.len() {
            let one = sol.is_one(enc.vars.cto[j][r]);
            assert!(!(one && seen_zero), "join {j}: non-prefix threshold flags");
            if !one {
                seen_zero = true;
            }
        }
    }
}

#[test]
fn page_mode_threshold_variant_solves() {
    use milpjoin::PageMode;
    use milpjoin_qopt::CostModelKind;
    let (c, q) = example();
    let config = EncoderConfig {
        cost_model: CostModelKind::Hash,
        page_mode: PageMode::Threshold,
        precision: Precision::High,
        ..Default::default()
    };
    let out = MilpOptimizer::new(config)
        .optimize(
            &c,
            &q,
            &OrderingOptions::with_time_limit(Duration::from_secs(30)),
            None,
        )
        .unwrap();
    out.plan.validate(&q).unwrap();
}

#[test]
fn two_table_cout_objective_is_constant_zero() {
    // With 2 tables there are no intermediate results: every order is
    // Cout-equivalent and the MILP objective is the constant 0.
    let mut c = Catalog::new();
    let a = c.add_table("A", 100.0);
    let b = c.add_table("B", 50.0);
    let mut q = Query::new(vec![a, b]);
    q.add_predicate(Predicate::binary(a, b, 0.25));
    let out = MilpOptimizer::with_defaults()
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    assert_eq!(out.milp_objective, 0.0);
    assert_eq!(out.true_cost, 0.0);
    out.plan.validate(&q).unwrap();
}

#[test]
fn estimator_prefix_consistency() {
    // Sanity: prefix sets grow monotonically and the estimator agrees with
    // direct products for predicate-free prefixes.
    let mut c = Catalog::new();
    let ids: Vec<_> = (0..4)
        .map(|i| c.add_table(format!("T{i}"), 10f64.powi(i + 1)))
        .collect();
    let q = Query::new(ids.clone());
    let est = Estimator::new(&c, &q);
    let mut set = TableSet::EMPTY;
    let mut expect = 0.0;
    for i in 0..4 {
        set = set.insert(i);
        expect += (i as f64) + 1.0;
        assert!((est.log10_cardinality(set) - expect).abs() < 1e-9);
    }
}
