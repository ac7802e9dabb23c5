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
//! The hybrid additionally keeps the greedy plan as a safety net: when the
//! decoded MILP plan is worse than the greedy one under the *exact* cost
//! model (possible when the threshold window collapses costs below its
//! floor into ties), the greedy plan is returned instead. Since the MILP
//! pipeline itself returns the exact-cost **argmin over every decoded
//! incumbent** (see `milpjoin::optimizer`) and the accepted warm-start
//! seed is the root incumbent, the safety net fires only in corner cases
//! the argmin cannot see — a seed the solver rejected, or an incumbent
//! whose mid-solve decode failed. And when the warm-started MILP produces
//! *no* plan at all (`NoPlanFound` — possible only when the solver rejects
//! the warm start, e.g. numerically, and then exhausts its budget), the
//! [`JoinOrderer::order`] surface falls back to a greedy-only outcome
//! instead of propagating the error: honest `bound: None`,
//! `proven_optimal: false`, exactly like the greedy backend. A caller with
//! a feasible seed never sees `NoPlanFound`.

use milpjoin_dp::{greedy_order, DpOptions};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::orderer::{
    CostTrace, CostTracePoint, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query};

use crate::config::EncoderConfig;
use crate::decode::DecodedPlan;
use crate::optimizer::{MilpOptimizer, OptimizeError, OptimizeOutcome};

/// Greedy-seeded MILP optimizer (the recommended entry point).
///
/// ```
/// use std::time::Duration;
/// use milpjoin::{EncoderConfig, HybridOptimizer, OrderingOptions};
/// use milpjoin_qopt::{Catalog, Predicate, Query};
///
/// let mut catalog = Catalog::new();
/// let r = catalog.add_table("R", 10.0);
/// let s = catalog.add_table("S", 1000.0);
/// let t = catalog.add_table("T", 100.0);
/// let mut query = Query::new(vec![r, s, t]);
/// query.add_predicate(Predicate::binary(r, s, 0.1));
///
/// let outcome = HybridOptimizer::with_defaults()
///     .optimize(&catalog, &query, &OrderingOptions::default())
///     .unwrap();
/// outcome.plan.validate(&query).unwrap();
/// // The warm start guarantees an incumbent from the very first event.
/// assert!(outcome.trace.points().first().unwrap().incumbent.is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct HybridOptimizer {
    config: EncoderConfig,
}

impl HybridOptimizer {
    pub fn new(config: EncoderConfig) -> Self {
        HybridOptimizer { config }
    }

    pub fn with_defaults() -> Self {
        Self::default()
    }

    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// The greedy plan this optimizer would seed the MILP with.
    pub fn seed_plan(&self, catalog: &Catalog, query: &Query) -> LeftDeepPlan {
        let dp_options = DpOptions {
            cost_model: self.config.cost_model,
            params: self.config.cost_params,
            ..DpOptions::default()
        };
        greedy_order(catalog, query, &dp_options)
    }

    /// Runs greedy, then the MILP pipeline warm-started with the greedy
    /// plan ([`Self::seed_plan`]).
    ///
    /// Caveat when the safety net fires (the seed beats the decoded MILP
    /// plan under the exact cost model): `plan` / `decoded` / `true_cost`
    /// describe the seed, while `status`, `milp_objective`, `milp_bound`
    /// and the MILP-space `trace` keep describing the MILP *search* — a
    /// valid record of what was proven in MILP space, but not a
    /// certificate for the returned plan. The [`JoinOrderer::order`]
    /// projection reports that case with `proven_optimal: false` but
    /// *keeps* the cost-space `bound`: the projected bound holds for every
    /// plan, the seed included, so `guaranteed_factor` stays valid.
    ///
    /// This native surface also propagates [`OptimizeError::NoPlanFound`]
    /// unchanged (an [`OptimizeOutcome`] cannot describe a greedy-only
    /// result); the [`JoinOrderer::order`] surface falls back to the seed
    /// instead.
    pub fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OptimizeOutcome, OptimizeError> {
        let seed = self.validated_seed(catalog, query)?;
        Ok(self.optimize_tracked(catalog, query, options, seed)?.0)
    }

    /// Validates the query, then builds the greedy seed. Validation must
    /// come first: the greedy construction (and the warm-start hint
    /// builder) index the catalog directly and would panic on a query the
    /// MILP path rejects with a proper error.
    fn validated_seed(
        &self,
        catalog: &Catalog,
        query: &Query,
    ) -> Result<LeftDeepPlan, OptimizeError> {
        query
            .validate(catalog)
            .map_err(|e| OptimizeError::Encode(crate::encode::EncodeError::Query(e)))?;
        Ok(self.seed_plan(catalog, query))
    }

    /// Like [`Self::optimize`], additionally reporting whether the seed
    /// plan replaced the decoded MILP plan (`true` when the safety net
    /// fired, meaning the MILP certificate does not describe the returned
    /// plan). The query must already be validated and `seed` built
    /// ([`Self::validated_seed`]).
    fn optimize_tracked(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
        seed: LeftDeepPlan,
    ) -> Result<(OptimizeOutcome, bool), OptimizeError> {
        let mut outcome = MilpOptimizer::new(self.config.clone()).optimize(
            catalog,
            query,
            options,
            Some(&seed),
        )?;

        // Safety net: never return a plan worse than the seed under the
        // exact cost model. `plan`, `decoded` and `true_cost` then describe
        // the seed; `status` / `milp_objective` / `milp_bound` keep
        // describing the MILP-space certificate (still a valid statement
        // about the MILP search, but no longer about the returned plan).
        // Skipped under operator selection: the seed carries no per-join
        // operator choices, so swapping it in would hand back an
        // operator-less plan from an optimizer configured to choose them
        // (and its canonical-operator cost is not comparable anyway).
        let seed_cost = plan_cost(
            catalog,
            query,
            &seed,
            self.config.cost_model,
            &self.config.cost_params,
        )
        .total;
        let swapped = !self.config.operator_selection && seed_cost < outcome.true_cost;
        if swapped {
            outcome.decoded = DecodedPlan::for_plan(query, seed);
            outcome.plan = outcome.decoded.plan.clone();
            outcome.true_cost = seed_cost;
        }
        Ok((outcome, swapped))
    }
}

impl HybridOptimizer {
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
        let seed_cost = plan_cost(
            catalog,
            query,
            &seed,
            self.config.cost_model,
            &self.config.cost_params,
        )
        .total;
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
// (greedy seed + MILP scratch are per-call), so one instance is shareable
// across worker threads and `Clone` makes it an `OrdererFactory`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HybridOptimizer>();
};

impl JoinOrderer for HybridOptimizer {
    fn name(&self) -> &'static str {
        "hybrid"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (self.config.cost_model, self.config.cost_params)
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        // Build the seed here so it survives a MILP failure (the
        // greedy-only fallback below needs it).
        let start = milpjoin_shim::time::now();
        let seed = self
            .validated_seed(catalog, query)
            .map_err(crate::optimizer::ordering_error)?;
        let seed_elapsed = start.elapsed();
        match self.optimize_tracked(catalog, query, options, seed.clone()) {
            Ok((outcome, swapped)) => {
                let mut ordering = outcome.into_ordering_outcome();
                if swapped {
                    // The MILP-space certificate belongs to the discarded
                    // plan: report the seed like the greedy backend would —
                    // exact cost as the objective, nothing proven about
                    // *this plan's* optimality. The cost-space bound is
                    // global (it holds for every plan, the seed included)
                    // and is kept; a final trace point makes the trace tail
                    // describe the plan actually returned.
                    ordering.objective = ordering.cost;
                    ordering.proven_optimal = false;
                    ordering.trace.push(CostTracePoint {
                        elapsed: ordering.elapsed,
                        incumbent: Some(ordering.cost),
                        bound: ordering.bound,
                    });
                }
                Ok(ordering)
            }
            // Deferred fallback (see the module docs): a feasible seed
            // exists, so "no plan" must never propagate to the caller.
            Err(OptimizeError::NoPlanFound { .. }) => Ok(self.greedy_fallback_outcome(
                catalog,
                query,
                seed,
                seed_elapsed,
                start.elapsed(),
            )),
            Err(e) => Err(crate::optimizer::ordering_error(e)),
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
        let out = HybridOptimizer::with_defaults()
            .optimize(&c, &q, &OrderingOptions::default())
            .unwrap();
        out.plan.validate(&q).unwrap();
        // Greedy alone already reaches 1000 here, so the hybrid must too.
        assert!(out.true_cost <= 1000.0 + 1e-6, "cost {}", out.true_cost);
    }

    #[test]
    fn trace_opens_with_an_incumbent() {
        let (c, q) = example();
        let out = HybridOptimizer::with_defaults()
            .optimize(&c, &q, &OrderingOptions::default())
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
        let out = HybridOptimizer::with_defaults()
            .optimize(&c, &q, &OrderingOptions::default())
            .unwrap();
        assert_eq!(out.plan.order, vec![r]);
        assert_eq!(out.true_cost, 0.0);
    }

    #[test]
    fn greedy_fallback_outcome_is_honest() {
        use std::time::Duration;
        let (c, q) = example();
        let hybrid = HybridOptimizer::with_defaults();
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
            Box::new(HybridOptimizer::with_defaults()),
            Box::new(MilpOptimizer::with_defaults()),
        ];
        for b in backends {
            let out = b.order(&c, &q, &OrderingOptions::default()).unwrap();
            out.plan.validate(&q).unwrap();
            assert!(out.cost.is_finite());
        }
    }
}
