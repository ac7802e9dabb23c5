//! Tests of the §5 extensions: operator selection, interesting orders,
//! projection, expensive predicates, correlated groups, n-ary predicates.

use std::time::Duration;

use milpjoin::{
    encode, ConfigError, EncodeError, EncoderConfig, MilpOptimizer, OrderingOptions, Precision,
};
use milpjoin_qopt::cost::{operator_cost, CostModelKind, CostParams, JoinContext};
use milpjoin_qopt::{Catalog, JoinOp, Predicate, Query};

fn opts() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(30))
}

fn three_tables() -> (Catalog, Query) {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 1000.0);
    let t = c.add_table("T", 100.0);
    let mut q = Query::new(vec![r, s, t]);
    q.add_predicate(Predicate::binary(r, s, 0.1));
    (c, q)
}

#[test]
fn operator_selection_decodes_one_operator_per_join() {
    let (c, q) = three_tables();
    let config = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash)
        .operator_selection(true);
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    assert_eq!(out.plan.operators.len(), q.num_joins());
    out.plan.validate(&q).unwrap();
}

#[test]
fn operator_selection_beats_or_matches_single_operator() {
    // Choosing per-join operators can only improve on forcing hash joins
    // everywhere (compare exact costs of the decoded plans).
    let (c, q) = three_tables();
    let params = CostParams::default();
    let hash_only = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash);
    let with_sel = hash_only.clone().operator_selection(true);
    let out_hash = MilpOptimizer::new(hash_only)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    let out_sel = MilpOptimizer::new(with_sel)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    // Cost the operator-selected plan exactly with its chosen operators.
    let sel_cost =
        milpjoin_qopt::cost::plan_cost(&c, &q, &out_sel.plan, CostModelKind::Hash, &params).total;
    // Allow approximation slack of the tolerance factor.
    assert!(
        sel_cost <= out_hash.true_cost * 3.5 + 1e4,
        "selection {sel_cost} vs hash-only {}",
        out_hash.true_cost
    );
}

#[test]
#[allow(clippy::field_reassign_with_default)] // deliberately bypasses the builder
fn interesting_orders_requires_operator_selection() {
    let (c, q) = three_tables();
    let mut config = EncoderConfig::default();
    config.interesting_orders = true; // bypass the builder's auto-enable
    config.operator_selection = false;
    assert!(matches!(
        encode(&c, &q, &config),
        Err(EncodeError::Config(
            ConfigError::OrdersNeedOperatorSelection
        ))
    ));
}

#[test]
fn interesting_orders_enable_cheaper_sort_merge() {
    // A sorted outer table makes the sort-merge-reuse operator available;
    // the formulation must include property variables and stay solvable.
    let (mut c, q) = three_tables();
    c.set_table_sorted(q.tables[0], true);
    let config = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash)
        .interesting_orders(true);
    let enc = encode(&c, &q, &config).unwrap();
    assert!(enc.stats.vars_in(milpjoin::VarCategory::Property) > 0);
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
}

#[test]
fn projection_requires_columns() {
    let (c, q) = three_tables();
    let config = EncoderConfig::default().projection(true);
    assert!(matches!(
        encode(&c, &q, &config),
        Err(EncodeError::Config(ConfigError::ProjectionNeedsColumns))
    ));
}

#[test]
fn projection_rejects_unsupported_models() {
    let (c, q) = three_tables();
    let config = EncoderConfig::default()
        .projection(true)
        .cost_model(CostModelKind::SortMerge);
    assert!(matches!(
        encode(&c, &q, &config),
        Err(EncodeError::Config(
            ConfigError::ProjectionUnsupportedModel(_)
        ))
    ));
}

#[test]
fn projection_tracks_columns_end_to_end() {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 1000.0);
    let t = c.add_table("T", 100.0);
    let r_key = c.add_column(r, "r_key", 8.0);
    c.add_column(r, "r_pay", 120.0);
    let s_key = c.add_column(s, "s_key", 8.0);
    c.add_column(s, "s_pay", 64.0);
    let t_key = c.add_column(t, "t_key", 8.0);
    let mut q = Query::new(vec![r, s, t]);
    let mut p = Predicate::binary(r, s, 0.1);
    p.columns = vec![r_key, s_key];
    q.add_predicate(p);
    // Project only the keys.
    q.output_columns = vec![r_key, s_key, t_key];
    let config = EncoderConfig::default()
        .precision(Precision::High)
        .cost_model(CostModelKind::Hash)
        .projection(true);
    let enc = encode(&c, &q, &config).unwrap();
    assert!(enc.stats.vars_in(milpjoin::VarCategory::Column) > 0);
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
}

#[test]
fn expensive_predicates_get_scheduled() {
    let mut c = Catalog::new();
    let a = c.add_table("A", 100.0);
    let b = c.add_table("B", 100.0);
    let d = c.add_table("D", 100.0);
    let mut q = Query::new(vec![a, b, d]);
    q.add_predicate(Predicate::binary(a, b, 0.1));
    q.add_predicate(Predicate::binary(b, d, 0.2).with_eval_cost(5.0));
    let config = EncoderConfig::default().precision(Precision::High);
    let enc = encode(&c, &q, &config).unwrap();
    assert!(
        enc.stats
            .vars_in(milpjoin::VarCategory::PredicateEvaluation)
            > 0
    );
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    // The expensive predicate's schedule must be reported.
    assert_eq!(out.decoded.predicate_schedule.len(), 2);
    assert!(out.decoded.predicate_schedule[1].is_some());
}

#[test]
fn correlated_groups_change_cardinalities() {
    let mut c = Catalog::new();
    let a = c.add_table("A", 1000.0);
    let b = c.add_table("B", 1000.0);
    let d = c.add_table("D", 1000.0);
    let mut q = Query::new(vec![a, b, d]);
    let p1 = q.add_predicate(Predicate::binary(a, b, 0.01));
    let p2 = q.add_predicate(Predicate::binary(a, b, 0.01));
    // Fully correlated: p2 adds nothing beyond p1.
    q.add_correlated_group(vec![p1, p2], 100.0);
    let config = EncoderConfig::default().precision(Precision::High);
    let enc = encode(&c, &q, &config).unwrap();
    assert!(enc.stats.vars_in(milpjoin::VarCategory::GroupApplicable) > 0);
    let out = MilpOptimizer::new(config)
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
}

#[test]
fn nary_predicates_encode_and_solve() {
    let mut c = Catalog::new();
    let a = c.add_table("A", 50.0);
    let b = c.add_table("B", 60.0);
    let d = c.add_table("D", 70.0);
    let e = c.add_table("E", 80.0);
    let mut q = Query::new(vec![a, b, d, e]);
    q.add_predicate(Predicate::nary(vec![a, b, d], 0.001));
    q.add_predicate(Predicate::binary(d, e, 0.1));
    let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High))
        .optimize(&c, &q, &opts(), None)
        .unwrap();
    out.plan.validate(&q).unwrap();
}

#[test]
fn unary_predicates_fold_into_scans() {
    // A unary predicate gets no pao variables; its selectivity still
    // reduces the effective cardinality.
    let mut c = Catalog::new();
    let a = c.add_table("A", 1000.0);
    let b = c.add_table("B", 1000.0);
    let mut q = Query::new(vec![a, b]);
    q.add_predicate(Predicate {
        tables: vec![a],
        ..Predicate::binary(a, b, 0.001)
    });
    let enc = encode(&c, &q, &EncoderConfig::default()).unwrap();
    assert_eq!(
        enc.stats
            .vars_in(milpjoin::VarCategory::PredicateApplicable),
        0
    );
    assert_eq!(enc.vars.pred_index[0], None);
}

#[test]
fn sort_merge_reuse_is_cheaper_than_full_sort_merge() {
    // Unit-level sanity of the §5.4 cost decomposition.
    let params = CostParams::default();
    let ctx = JoinContext {
        outer_card: 10_000.0,
        inner_card: 5_000.0,
        output_card: 1_000.0,
        join_index: 0,
        num_joins: 1,
    };
    let full = operator_cost(JoinOp::SortMerge, &ctx, &params);
    // Reuse skips the outer sort term: 2 * P_o * ceil(log2 P_o).
    let po = params.pages(ctx.outer_card);
    let reuse = full - 2.0 * po * po.log2().ceil();
    assert!(reuse < full);
}
