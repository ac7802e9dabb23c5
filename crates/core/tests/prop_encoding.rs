//! Property-based tests of the encoding pipeline on random small queries.

use std::time::Duration;

use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Predicate, Query, TableId};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandomQuery {
    cards: Vec<f64>,
    edges: Vec<(usize, usize, f64)>,
}

fn random_query() -> impl Strategy<Value = RandomQuery> {
    (2usize..=5).prop_flat_map(|n| {
        let cards = prop::collection::vec(1.0f64..5.0, n); // log10 cards
        let edges = prop::collection::vec(
            (0..n, 0..n, -3.0f64..0.0), // log10 selectivity
            0..=n,
        );
        (cards, edges).prop_map(|(cards, edges)| RandomQuery {
            cards: cards
                .into_iter()
                .map(|l| 10f64.powf(l).round().max(1.0))
                .collect(),
            edges: edges
                .into_iter()
                .filter(|(a, b, _)| a != b)
                .map(|(a, b, s)| (a, b, 10f64.powf(s)))
                .collect(),
        })
    })
}

fn build(rq: &RandomQuery) -> (Catalog, Query) {
    let mut catalog = Catalog::new();
    let ids: Vec<TableId> = rq
        .cards
        .iter()
        .enumerate()
        .map(|(i, &c)| catalog.add_table(format!("T{i}"), c))
        .collect();
    let mut query = Query::new(ids.clone());
    for &(a, b, sel) in &rq.edges {
        query.add_predicate(Predicate::binary(ids[a], ids[b], sel));
    }
    (catalog, query)
}

/// Exact optimum by enumerating all left-deep permutations.
fn brute_force_cout(catalog: &Catalog, query: &Query) -> f64 {
    fn permute(items: &mut Vec<TableId>, k: usize, best: &mut f64, c: &Catalog, q: &Query) {
        if k == items.len() {
            let plan = LeftDeepPlan::from_order(items.clone());
            let cost = plan_cost(c, q, &plan, CostModelKind::Cout, &CostParams::default()).total;
            *best = best.min(cost);
            return;
        }
        for i in k..items.len() {
            items.swap(k, i);
            permute(items, k + 1, best, c, q);
            items.swap(k, i);
        }
    }
    let mut order = query.tables.clone();
    let mut best = f64::INFINITY;
    permute(&mut order, 0, &mut best, catalog, query);
    best
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn milp_plan_within_tolerance_of_optimum(rq in random_query()) {
        let (catalog, query) = build(&rq);
        let optimal = brute_force_cout(&catalog, &query);
        let out = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High))
            .optimize(
                &catalog,
                &query,
                &OrderingOptions::with_time_limit(Duration::from_secs(30)),
                None,
            )
            .unwrap();
        // Decoder invariant: always a valid permutation.
        out.plan.validate(&query).unwrap();
        // Approximation guarantee with slack for the window floor.
        let factor = Precision::High.tolerance_factor();
        let limit = (optimal * factor * 1.5).max(optimal + 1e4);
        prop_assert!(
            out.true_cost <= limit,
            "MILP {} vs optimal {} (limit {})", out.true_cost, optimal, limit
        );
    }

    #[test]
    fn encoding_stats_are_consistent(rq in random_query()) {
        let (catalog, query) = build(&rq);
        let enc = milpjoin::encode(&catalog, &query, &EncoderConfig::default()).unwrap();
        // Stats must agree with the actual model.
        prop_assert_eq!(enc.stats.num_vars(), enc.model.num_vars());
        prop_assert_eq!(enc.stats.num_constraints(), enc.model.num_constrs());
        // Structural invariants.
        let n = query.num_tables();
        let jn = n - 1;
        prop_assert_eq!(enc.vars.tio.len(), jn);
        prop_assert_eq!(enc.vars.tii.len(), jn);
        prop_assert_eq!(enc.vars.lco.len(), jn);
        prop_assert_eq!(enc.vars.cto.len(), jn);
        prop_assert!(enc.model.validate().is_ok());
    }
}
