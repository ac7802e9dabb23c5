//! The classical DP prices a join exactly as `plan_cost` does: the inner
//! operand at its raw catalog cardinality, and each expensive predicate
//! charged `eval_cost × outer cardinality` at the join that first applies
//! it. `DpOptimizer`'s cost is therefore `plan_cost` of its plan, and the
//! minimum over every left-deep plan, under all four cost models.

use milpjoin::JoinOrderer;
use milpjoin_dp::{DpConvOptimizer, DpOptimizer};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, OrderingOptions, Predicate, Query};
use milpjoin_suite::all_plan_costs;
use milpjoin_workloads::{Topology, WorkloadSpec};
use proptest::prelude::*;

/// Runs `DpOptimizer` and asserts, bit for bit, that its cost is
/// `plan_cost` of its plan and the brute-force minimum. Returns the cost.
fn check_dp(label: &str, catalog: &Catalog, query: &Query, model: CostModelKind) -> f64 {
    let out = DpOptimizer::new(model)
        .order(catalog, query, &OrderingOptions::default())
        .unwrap();
    assert!(out.proven_optimal, "{label}");
    let priced = plan_cost(catalog, query, &out.plan, model, &CostParams::default()).total;
    assert_eq!(
        out.cost, priced,
        "{label}: DP cost vs plan_cost of its plan"
    );
    let optimum = all_plan_costs(catalog, query, model)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    assert_eq!(priced, optimum, "{label}: DP plan vs brute-force optimum");
    priced
}

/// The expensive S–T predicate's evaluation charge is part of every
/// plan's cost: a DP that leaves it out reports 2000 for a plan whose
/// `plan_cost` is 7000.
#[test]
fn dp_charges_expensive_predicates() {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 1000.0);
    let t = c.add_table("T", 100.0);
    let u = c.add_table("U", 50.0);
    let mut q = Query::new(vec![r, s, t, u]);
    q.add_predicate(Predicate::binary(r, s, 0.1));
    q.add_predicate(Predicate::binary(s, t, 0.01).with_eval_cost(50.0));
    q.add_predicate(Predicate::binary(t, u, 0.5));
    check_dp("expensive", &c, &q, CostModelKind::Cout);
}

/// S(100000) as an inner operand costs its raw 782 pages: a DP that folds
/// the unary predicate into it (one page) reports 12 for a plan whose
/// `plan_cost` is 2355. The optimum, 12, keeps S in the first operand.
#[test]
fn dp_prices_the_inner_operand_at_its_raw_cardinality() {
    let mut c = Catalog::new();
    let r = c.add_table("R", 10.0);
    let s = c.add_table("S", 100_000.0);
    let t = c.add_table("T", 100.0);
    let mut q = Query::new(vec![r, s, t]);
    q.add_predicate(Predicate::binary(r, s, 0.1));
    q.add_predicate(Predicate::nary(vec![s], 0.001));
    q.add_predicate(Predicate::binary(s, t, 0.01));
    assert_eq!(check_dp("unary", &c, &q, CostModelKind::Hash), 12.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random 3–6-table queries of every topology, with a unary predicate
    /// on about a third of the tables and an evaluation cost on about a
    /// third of all predicates, under every cost model. Without the
    /// evaluation costs, DPconv reaches the DP's C_out optimum.
    #[test]
    fn dp_cost_is_the_plan_cost_minimum(
        (topo, tables, seed, draws) in
            (0usize..4, 3usize..=6, 0u64..1000, prop::collection::vec(0.0f64..1.0, 64))
    ) {
        let topo = [Topology::Chain, Topology::Cycle, Topology::Star, Topology::Clique][topo];
        let (catalog, mut query) = WorkloadSpec::new(topo, tables).generate(seed);
        let mut draws = draws.into_iter();
        let mut draw = move || draws.next().unwrap_or(0.5);
        for t in query.tables.clone() {
            if draw() < 1.0 / 3.0 {
                query.add_predicate(Predicate::nary(vec![t], 10f64.powf(-3.0 * draw())));
            }
        }
        for p in &mut query.predicates {
            if draw() < 1.0 / 3.0 {
                p.eval_cost_per_tuple = 0.5 + 50.0 * draw();
            }
        }
        for model in [
            CostModelKind::Cout,
            CostModelKind::Hash,
            CostModelKind::SortMerge,
            CostModelKind::BlockNestedLoop,
        ] {
            check_dp(&format!("{topo:?}/{tables}/{seed}/{model:?}"), &catalog, &query, model);
        }

        for p in &mut query.predicates {
            p.eval_cost_per_tuple = 0.0;
        }
        let dp = check_dp("no expensive predicates", &catalog, &query, CostModelKind::Cout);
        let conv = DpConvOptimizer::new()
            .order(&catalog, &query, &OrderingOptions::default())
            .unwrap();
        prop_assert!(
            (conv.cost - dp).abs() <= 1e-9 * (1.0 + dp),
            "DPconv {} vs DP {}", conv.cost, dp
        );
    }
}
