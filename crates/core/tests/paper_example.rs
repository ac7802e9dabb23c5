//! Tests built directly on the paper's running example (Examples 1 and 2):
//! R(10) ⋈ S(1000) ⋈ T(100), one predicate between R and S with
//! selectivity 0.1.

use milpjoin::{
    encode, ApproxMode, ConstrCategory, EncoderConfig, MilpOptimizer, OrderingOptions, Precision,
    VarCategory,
};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Predicate, Query};

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
fn example1_variable_counts() {
    // "We introduce six variables tio_tj ... and six variables tii_tj".
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default()).unwrap();
    assert_eq!(enc.num_joins, 2);
    assert_eq!(enc.stats.vars_in(VarCategory::TableInOuter), 6);
    assert_eq!(enc.stats.vars_in(VarCategory::TableInInner), 6);
    // One binary predicate, two joins -> two pao variables.
    assert_eq!(enc.stats.vars_in(VarCategory::PredicateApplicable), 2);
    // lco / co / ci per join.
    assert_eq!(enc.stats.vars_in(VarCategory::LogCardOuter), 2);
    assert_eq!(enc.stats.vars_in(VarCategory::CardOuter), 2);
    assert_eq!(enc.stats.vars_in(VarCategory::CardInner), 2);
}

#[test]
fn example1_constraint_structure() {
    let (c, q) = example();
    let enc = encode(&c, &q, &EncoderConfig::default()).unwrap();
    // One first-outer constraint + one per inner operand.
    assert_eq!(enc.stats.constrs_in(ConstrCategory::SingleTableOperand), 3);
    // Chaining: (n tables) x (jn - 1 joins).
    assert_eq!(enc.stats.constrs_in(ConstrCategory::OperandChaining), 3);
    // Predicate applicability: 2 tables x 2 joins.
    assert_eq!(
        enc.stats.constrs_in(ConstrCategory::PredicateApplicability),
        4
    );
    // Overlap on all joins (default config): 3 tables x 2 joins.
    assert_eq!(enc.stats.constrs_in(ConstrCategory::NoOverlap), 6);
}

#[test]
fn optimizer_finds_a_good_plan_cout() {
    let (c, q) = example();
    for precision in [Precision::High, Precision::Medium, Precision::Low] {
        let opt = MilpOptimizer::new(EncoderConfig::default().precision(precision));
        let out = opt
            .optimize(&c, &q, &OrderingOptions::default(), None)
            .unwrap();
        out.plan.validate(&q).unwrap();
        // Optimal Cout is 1000 (either R⋈S or R⋈T first); the worst plan
        // (S⋈T first) costs 100000. Even the lowest precision (factor 100)
        // must avoid the worst plan here since 1000 * 100 <= 100000 is
        // tight; high/medium certainly must.
        let tolerance = precision.tolerance_factor();
        assert!(
            out.true_cost <= 1000.0 * tolerance,
            "{}: cost {} exceeds {}",
            precision.name(),
            out.true_cost,
            1000.0 * tolerance
        );
    }
}

#[test]
fn optimizer_matches_brute_force_exactly_at_high_precision() {
    let (c, q) = example();
    let opt = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High));
    let out = opt
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    // Enumerate all left-deep plans.
    let mut best = f64::INFINITY;
    let perms = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    for p in perms {
        let plan = LeftDeepPlan::from_order(p.iter().map(|&i| q.tables[i]).collect());
        let cost = plan_cost(&c, &q, &plan, CostModelKind::Cout, &CostParams::default()).total;
        best = best.min(cost);
    }
    assert!(
        out.true_cost <= best * Precision::High.tolerance_factor(),
        "cost {} vs best {best}",
        out.true_cost
    );
}

#[test]
fn hash_cost_model_end_to_end() {
    let (c, q) = example();
    let config = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash);
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
    assert!(out.true_cost > 0.0);
    // The worst hash plan joins S⋈T first; verify we beat it.
    let worst = LeftDeepPlan::from_order(vec![q.tables[1], q.tables[2], q.tables[0]]);
    let worst_cost = plan_cost(&c, &q, &worst, CostModelKind::Hash, &CostParams::default()).total;
    assert!(
        out.true_cost < worst_cost,
        "{} !< {worst_cost}",
        out.true_cost
    );
}

#[test]
fn anytime_trace_is_monotone() {
    let (c, q) = example();
    let out = MilpOptimizer::default()
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    let mut last_inc = f64::INFINITY;
    let mut last_bound = f64::NEG_INFINITY;
    for p in out.cost_trace.points() {
        if let Some(inc) = p.incumbent {
            assert!(inc <= last_inc + 1e-9, "incumbent went up");
            last_inc = inc;
        }
        // Once proven, a cost-space bound never falls or disappears.
        let bound = p.bound.unwrap_or(f64::NEG_INFINITY);
        assert!(bound >= last_bound - 1e-9, "bound went down");
        last_bound = bound;
    }
    assert_eq!(last_inc, out.true_cost);
}

#[test]
fn upper_bound_mode_still_finds_good_plans() {
    let (c, q) = example();
    let config = EncoderConfig {
        approx_mode: ApproxMode::UpperBound,
        precision: Precision::High,
        ..Default::default()
    };
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    assert!(out.true_cost <= 1000.0 * 3.0, "{}", out.true_cost);
}

#[test]
fn single_table_query_trivial() {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let q = Query::new(vec![r]);
    let out = MilpOptimizer::default()
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    assert_eq!(out.plan.order, vec![r]);
    assert_eq!(out.true_cost, 0.0);
}

#[test]
fn two_table_query() {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 20.0);
    let mut q = Query::new(vec![r, s]);
    q.add_predicate(Predicate::binary(r, s, 0.5));
    let out = MilpOptimizer::default()
        .optimize(&c, &q, &OrderingOptions::default(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
    assert_eq!(out.plan.order.len(), 2);
}
