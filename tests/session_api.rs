//! Acceptance surface of the `PlanSession` service API: batched query
//! streams share backend solves through the structure-keyed plan cache,
//! outcomes stay exact-cost truthful, and the hybrid's guarantees are
//! computed in cost space.

use std::time::Duration;

use milpjoin::{
    EncoderConfig, HybridOptimizer, JoinOrderer, OrderingError, OrderingOptions, PlanSession,
    Precision,
};
use milpjoin_dp::{DpOptimizer, GreedyOptimizer};
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::{Catalog, ColumnId, Predicate, Query};
use milpjoin_workloads::{Topology, WorkloadSpec};

fn session_options() -> OrderingOptions {
    OrderingOptions::with_time_limit(Duration::from_secs(20))
}

/// The ISSUE's acceptance criterion: 20 structurally identical star
/// queries through `optimize_batch` perform exactly one backend solve —
/// the rest are cache hits — and the hybrid outcome's guaranteed factor is
/// computed in exact-cost space (verified against `plan_cost`).
#[test]
fn twenty_identical_star_queries_solve_once() {
    let spec = WorkloadSpec::new(Topology::Star, 8);
    let (catalog, queries) = spec.generate_stream(42, 1, 20);
    assert_eq!(queries.len(), 20);

    let config = EncoderConfig::default().precision(Precision::Low);
    let backend = HybridOptimizer::new(config.clone());
    let mut session = PlanSession::new(catalog, Box::new(backend)).with_options(session_options());

    let results = session.optimize_batch(&queries);
    let stats = session.explain();
    assert_eq!(stats.queries, 20);
    assert_eq!(stats.backend_solves, 1, "exactly one backend solve");
    assert_eq!(stats.cache_hits, 19, "all other queries are cache hits");
    assert_eq!(stats.exact_hits, 19, "identical copies hit exactly");
    assert_eq!(session.cache_len(), 1);

    let mut costs = Vec::new();
    for (query, result) in queries.iter().zip(&results) {
        let out = result.as_ref().expect("hybrid never fails with a seed");
        out.outcome.plan.validate(query).unwrap();
        // Outcome costs are always exact — recomputed through plan_cost.
        let exact = plan_cost(
            session.catalog(),
            query,
            &out.outcome.plan,
            config.cost_model,
            &config.cost_params,
        )
        .total;
        assert!(
            (out.outcome.cost - exact).abs() <= 1e-9 * (1.0 + exact.abs()),
            "outcome cost {:.6e} != plan_cost {exact:.6e}",
            out.outcome.cost
        );
        costs.push(out.outcome.cost);
    }
    // Structurally identical queries: identical exact costs.
    for &c in &costs[1..] {
        assert!((c - costs[0]).abs() <= 1e-9 * (1.0 + costs[0].abs()));
    }
    assert!(!results[0].as_ref().unwrap().cache_hit);
    assert!(results[1..].iter().all(|r| r.as_ref().unwrap().cache_hit));

    // Cost-space guarantee regression: if the solve proved a bound, the
    // factor is exact-cost / cost-space bound — identical maths to the
    // recomputed plan_cost — and exact hits carry it unchanged.
    let solved = &results[0].as_ref().unwrap().outcome;
    if let Some(bound) = solved.bound {
        assert!(bound > 0.0);
        assert_eq!(
            solved.guaranteed_factor(),
            Some((costs[0] / bound).max(1.0)),
            "guaranteed factor must be computed from the exact cost"
        );
        let hit = &results[7].as_ref().unwrap().outcome;
        assert_eq!(hit.bound, solved.bound);
        assert_eq!(hit.guaranteed_factor(), solved.guaranteed_factor());
    }
}

/// Mixed streams: distinct structures get distinct solves, repeats share
/// them, per-topology.
#[test]
fn mixed_stream_solves_once_per_structure() {
    for topology in [Topology::Chain, Topology::Cycle] {
        let spec = WorkloadSpec::new(topology, 6);
        let (catalog, queries) = spec.generate_stream(7, 3, 4); // 12 queries
        let backend = HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low));
        let mut session =
            PlanSession::new(catalog, Box::new(backend)).with_options(session_options());
        for r in session.optimize_batch(&queries) {
            r.unwrap();
        }
        let stats = session.explain();
        assert_eq!(stats.backend_solves, 3, "{topology:?}");
        assert_eq!(stats.cache_hits, 9, "{topology:?}");
        assert_eq!(session.cache_len(), 3, "{topology:?}");
    }
}

/// DP-backed sessions carry proven optimality across exact hits.
#[test]
fn dp_session_carries_certificates() {
    let spec = WorkloadSpec::new(Topology::Star, 6);
    let (catalog, queries) = spec.generate_stream(5, 1, 3);
    let mut session =
        PlanSession::new(catalog, Box::new(DpOptimizer::default())).with_options(session_options());
    let results = session.optimize_batch(&queries);
    for r in &results {
        let out = &r.as_ref().unwrap().outcome;
        assert!(out.proven_optimal);
        assert_eq!(out.guaranteed_factor(), Some(1.0));
    }
    assert_eq!(session.explain().backend_solves, 1);
}

/// Sessions are deterministic: the same stream against two fresh sessions
/// produces the same plans, costs and hit pattern.
#[test]
fn sessions_are_deterministic() {
    let spec = WorkloadSpec::new(Topology::Cycle, 6);
    let run = || {
        let (catalog, queries) = spec.generate_stream(9, 2, 3);
        let backend = HybridOptimizer::new(EncoderConfig::default().precision(Precision::Low));
        let mut session =
            PlanSession::new(catalog, Box::new(backend)).with_options(session_options());
        let results = session.optimize_batch(&queries);
        results
            .into_iter()
            .map(|r| {
                let r = r.unwrap();
                (r.cache_hit, r.outcome.cost, r.outcome.plan.order.clone())
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run());
}

/// Greedy-backed sessions: cache hits of a guarantee-free backend stay
/// guarantee-free (no phantom certificates appear).
#[test]
fn greedy_session_stays_honest() {
    let spec = WorkloadSpec::new(Topology::Chain, 7);
    let (catalog, queries) = spec.generate_stream(2, 1, 4);
    let mut session = PlanSession::new(catalog, Box::new(GreedyOptimizer::default()));
    for r in session.optimize_batch(&queries) {
        let out = r.unwrap().outcome;
        assert!(out.bound.is_none());
        assert!(!out.proven_optimal);
        assert!(out.guaranteed_factor().is_none());
    }
    assert_eq!(session.explain().backend_solves, 1);
}

/// The backend's configured cost model is visible through the trait — the
/// session uses it to re-cost cached plans, so it must match the config.
#[test]
fn cost_model_accessor_reflects_configuration() {
    use milpjoin_qopt::cost::CostModelKind;
    let hybrid = HybridOptimizer::new(EncoderConfig::default().cost_model(CostModelKind::Hash));
    assert_eq!(hybrid.cost_model().0, CostModelKind::Hash);
    let dp = DpOptimizer::new(CostModelKind::SortMerge);
    assert_eq!(dp.cost_model().0, CostModelKind::SortMerge);
}

/// A carried column — output or predicate column — that its table does
/// not have, or that lives on a table outside the query, makes the query
/// invalid before it is fingerprinted.
#[test]
fn invalid_carried_columns_are_invalid_queries() {
    let mut catalog = Catalog::new();
    let (r, s) = (catalog.add_table("R", 10.0), catalog.add_table("S", 1000.0));
    let t = catalog.add_table("T", 100.0);
    let outside = catalog.add_table("U", 5.0);
    let foreign = catalog.add_column(outside, "u", 8.0);
    let missing = ColumnId {
        table: r,
        column: 7,
    };
    let mut session = PlanSession::new(catalog, Box::new(DpOptimizer::default()));
    for (name, column) in [("missing", missing), ("outside the query", foreign)] {
        let mut query = Query::new(vec![r, s, t]);
        query.add_predicate(Predicate::binary(r, s, 0.1));
        let mut carried = query.clone();
        carried.predicates[0].columns.push(column);
        query.output_columns.push(column);
        for (role, query) in [("output", query), ("predicate", carried)] {
            let got = session.optimize(&query);
            let invalid = matches!(got, Err(OrderingError::InvalidQuery(_)));
            assert!(invalid, "{role} column {name}: {got:?}");
        }
    }
    assert_eq!(session.cache_len(), 0);
}
