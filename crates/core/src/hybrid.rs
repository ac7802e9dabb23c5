//! Hybrid optimizer: greedy construction warm-starting the MILP.
//!
//! Following the hybrid strategy of Schönberger & Trummer ("Hybrid Mixed
//! Integer Linear Programming for Large-Scale Join Order Optimisation",
//! 2025): a linear-time greedy heuristic produces a feasible plan in
//! microseconds; that plan is injected into the MILP solver as the root
//! incumbent (the `seed` of [`MilpOptimizer::optimize`]), so the anytime
//! trace opens with a finite incumbent at t ≈ 0 — and a finite *guaranteed
//! optimality factor* as soon as the root LP bound lands — instead of
//! waiting for branch and bound to stumble on its first integral solution.
//! The search also prunes against the greedy bound from the first node.
//!
//! The hybrid is a [`JoinOrderer`] only: greedy seed, then
//! [`MilpOptimizer::optimize`], whose exact-cost argmin has the seed as its
//! last candidate — so the hybrid never returns a plan costlier than its
//! greedy plan, and a seed that wins is reported with demoted certificates
//! like any other argmin swap (see `milpjoin::optimizer`). When the
//! warm-started MILP produces *no* plan at all within its budget
//! ([`OrderingError::Timeout`] or [`OrderingError::ResourceLimit`] —
//! possible only when the solver rejects the warm start, e.g. because its
//! LP hit the deadline), `order` falls back to a greedy-only outcome
//! instead of propagating the error: honest `bound: None`,
//! `proven_optimal: false`, exactly like the greedy backend. Every other
//! error, including an unbounded verdict (a solver or encoder bug),
//! reaches the caller.

use milpjoin_dp::{greedy_order, DpOptions};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::orderer::{
    CostTrace, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query};

use crate::config::EncoderConfig;
use crate::optimizer::MilpOptimizer;

/// Greedy-seeded MILP optimizer (the recommended entry point).
///
/// ```
/// use milpjoin::{HybridOptimizer, JoinOrderer, OrderingOptions};
/// use milpjoin_qopt::{Catalog, Predicate, Query};
///
/// let mut catalog = Catalog::new();
/// let r = catalog.add_table("R", 10.0);
/// let s = catalog.add_table("S", 1000.0);
/// let t = catalog.add_table("T", 100.0);
/// let mut query = Query::new(vec![r, s, t]);
/// query.add_predicate(Predicate::binary(r, s, 0.1));
///
/// let outcome = HybridOptimizer::default()
///     .order(&catalog, &query, &OrderingOptions::default())
///     .unwrap();
/// outcome.plan.validate(&query).unwrap();
/// // The warm start guarantees an incumbent from the very first event.
/// assert!(outcome.trace.points().first().unwrap().incumbent.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HybridOptimizer {
    milp: MilpOptimizer,
}

impl HybridOptimizer {
    pub fn new(config: EncoderConfig) -> Self {
        HybridOptimizer {
            milp: MilpOptimizer::new(config),
        }
    }

    pub fn config(&self) -> &EncoderConfig {
        self.milp.config()
    }

    /// The greedy plan this optimizer would seed the MILP with.
    pub fn seed_plan(&self, catalog: &Catalog, query: &Query) -> LeftDeepPlan {
        let config = self.config();
        let dp_options = DpOptions {
            cost_model: config.cost_model,
            params: config.cost_params,
            ..DpOptions::default()
        };
        greedy_order(catalog, query, &dp_options)
    }

    /// The greedy-only outcome returned when the warm-started MILP finds
    /// no plan at all: the seed with honest guarantee-free certificates,
    /// exactly what the greedy backend would report. The trace point is
    /// stamped at `seed_elapsed` — the moment the seed existed — not at
    /// the end of the exhausted MILP budget, so anytime consumers see the
    /// incumbent from t ≈ 0 as the warm-start story promises.
    fn greedy_fallback_outcome(
        &self,
        catalog: &Catalog,
        query: &Query,
        seed: LeftDeepPlan,
        seed_elapsed: std::time::Duration,
        elapsed: std::time::Duration,
    ) -> OrderingOutcome {
        let (cost_model, params) = self.cost_model();
        let seed_cost = plan_cost(catalog, query, &seed, cost_model, &params).total;
        OrderingOutcome {
            plan: seed,
            cost: seed_cost,
            objective: seed_cost,
            bound: None,
            proven_optimal: false,
            trace: CostTrace::single(seed_elapsed.min(elapsed), seed_cost, None),
            elapsed,
            search: Default::default(),
            route: None,
        }
    }
}

// Concurrency audit: like `MilpOptimizer`, the hybrid is configuration-only
// (greedy seed + MILP scratch are per-call), so one instance serves every
// worker thread of a `QueryService` and every fragment thread of the
// decompose arm.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HybridOptimizer>();
};

impl JoinOrderer for HybridOptimizer {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        self.milp.cost_model()
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        let start = milpjoin_shim::time::now();
        // Validation must come first: the greedy construction (and the
        // warm-start hint builder) index the catalog directly and would
        // panic on a query the MILP path rejects with a proper error.
        query.validate(catalog)?;
        let seed = self.seed_plan(catalog, query);
        let seed_elapsed = start.elapsed();
        match self
            .milp
            .optimize_since(start, catalog, query, options, Some(&seed))
        {
            Ok(outcome) => Ok(outcome.into_ordering_outcome()),
            // A feasible seed exists, so "no plan within the budget" never
            // reaches the caller (see the module docs).
            Err(OrderingError::Timeout | OrderingError::ResourceLimit(_)) => Ok(
                self.greedy_fallback_outcome(catalog, query, seed, seed_elapsed, start.elapsed())
            ),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use milpjoin_qopt::Predicate;

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
    fn hybrid_solves_the_paper_example() {
        let (c, q) = example();
        let out = HybridOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        out.plan.validate(&q).unwrap();
        // Greedy alone already reaches 1000 here, so the hybrid must too.
        assert!(out.cost <= 1000.0 + 1e-6, "cost {}", out.cost);
    }

    #[test]
    fn trace_opens_with_an_incumbent() {
        let (c, q) = example();
        let out = HybridOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        let first = out.trace.points().first().expect("non-empty trace");
        assert!(
            first.incumbent.is_some(),
            "first trace point must carry the warm start"
        );
    }

    #[test]
    fn single_table_query_shortcut() {
        let mut c = Catalog::new();
        let r = c.add_table("R", 42.0);
        let q = Query::new(vec![r]);
        let out = HybridOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        assert_eq!(out.plan.order, vec![r]);
        assert_eq!(out.cost, 0.0);
    }

    #[test]
    fn greedy_fallback_outcome_is_honest() {
        use std::time::Duration;
        let (c, q) = example();
        let hybrid = HybridOptimizer::default();
        let seed = hybrid.seed_plan(&c, &q);
        let out = hybrid.greedy_fallback_outcome(
            &c,
            &q,
            seed.clone(),
            Duration::from_micros(50),
            Duration::from_secs(10),
        );
        assert_eq!(out.plan, seed);
        assert!(out.bound.is_none());
        assert!(!out.proven_optimal);
        assert!(out.guaranteed_factor().is_none());
        assert_eq!(out.elapsed, Duration::from_secs(10));
        let points = out.trace.points();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].incumbent, Some(out.cost));
        assert_eq!(points[0].bound, None);
        // The incumbent is stamped when the seed existed, not at the end
        // of the exhausted MILP budget.
        assert_eq!(points[0].elapsed, Duration::from_micros(50));
    }

    #[test]
    fn trait_object_usage() {
        let (c, q) = example();
        let backends: Vec<Box<dyn JoinOrderer>> = vec![
            Box::new(HybridOptimizer::default()),
            Box::new(MilpOptimizer::default()),
        ];
        for b in backends {
            let out = b.order(&c, &q, &OrderingOptions::default()).unwrap();
            out.plan.validate(&q).unwrap();
            assert!(out.cost.is_finite());
        }
    }
}
