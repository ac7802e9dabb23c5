//! [`JoinOrderer`] wrappers over the DP baseline and the greedy heuristic.
//!
//! Both carry their cost model as construction-time configuration (matching
//! how [`milpjoin_qopt::JoinOrderer`] splits concerns: options are runtime
//! limits only) and translate between the trait's unified types and the
//! crate-native [`DpOptions`] / [`DpError`].

use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::orderer::{
    CostTrace, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
};
use milpjoin_qopt::{Catalog, Query};

use crate::{greedy_order, optimize, DpError, DpOptions, DpResult};

/// Classifies a DP failure: a deadline expiry is a timeout, a table-budget
/// blowup a resource limit.
impl From<DpError> for OrderingError {
    fn from(e: DpError) -> Self {
        match e {
            DpError::Timeout => OrderingError::Timeout,
            DpError::MemoryLimit { .. } => OrderingError::ResourceLimit(e.to_string()),
            DpError::InvalidQuery => OrderingError::InvalidQuery(e.to_string()),
        }
    }
}

/// Exhaustive Selinger-style dynamic programming as a [`JoinOrderer`].
/// Optimal or nothing: on success the returned plan is proven optimal under
/// the configured cost model.
#[derive(Debug, Clone)]
pub struct DpOptimizer {
    pub cost_model: CostModelKind,
    pub params: CostParams,
    /// Memory budget for the DP arrays (default 4 GiB).
    pub memory_budget_bytes: u64,
}

impl Default for DpOptimizer {
    fn default() -> Self {
        let defaults = DpOptions::default();
        DpOptimizer {
            cost_model: defaults.cost_model,
            params: defaults.params,
            memory_budget_bytes: defaults.memory_budget_bytes,
        }
    }
}

impl DpOptimizer {
    pub fn new(cost_model: CostModelKind) -> Self {
        DpOptimizer {
            cost_model,
            ..Default::default()
        }
    }

    /// Runs the exact `kernel` (this DP or DPconv's) under this
    /// configuration, with a deadline from `options.time_limit`. The
    /// outcome is proven optimal, so its exact cost is also the cost-space
    /// lower bound: a one-point trace with factor 1.
    pub(crate) fn solve_with(
        &self,
        kernel: fn(&Catalog, &Query, &DpOptions) -> Result<DpResult, DpError>,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        let dp_options = DpOptions {
            deadline: options
                .time_limit
                .map(|limit| milpjoin_shim::time::now() + limit),
            memory_budget_bytes: self.memory_budget_bytes,
            cost_model: self.cost_model,
            params: self.params,
        };
        let res = kernel(catalog, query, &dp_options)?;
        Ok(OrderingOutcome {
            trace: CostTrace::single(res.elapsed, res.cost, Some(res.cost)),
            plan: res.plan,
            cost: res.cost,
            objective: res.cost,
            bound: Some(res.cost),
            proven_optimal: true,
            elapsed: res.elapsed,
            search: Default::default(),
            route: None,
        })
    }
}

impl JoinOrderer for DpOptimizer {
    fn name(&self) -> &'static str {
        "dp"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (self.cost_model, self.params)
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        // The DP kernel indexes the catalog directly; reject a query it
        // does not match before the estimator can panic.
        query.validate(catalog)?;
        self.solve_with(optimize, catalog, query, options)
    }
}

/// Greedy nearest-neighbor construction as a [`JoinOrderer`]. Instant and
/// guarantee-free: `bound` is `None` and `proven_optimal` is `false`.
#[derive(Debug, Clone)]
pub struct GreedyOptimizer {
    pub cost_model: CostModelKind,
    pub params: CostParams,
}

impl Default for GreedyOptimizer {
    fn default() -> Self {
        let defaults = DpOptions::default();
        GreedyOptimizer {
            cost_model: defaults.cost_model,
            params: defaults.params,
        }
    }
}

impl GreedyOptimizer {
    pub fn new(cost_model: CostModelKind) -> Self {
        GreedyOptimizer {
            cost_model,
            ..Default::default()
        }
    }
}

impl JoinOrderer for GreedyOptimizer {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        (self.cost_model, self.params)
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        _options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        if query.num_tables() == 0 {
            return Err(OrderingError::InvalidQuery("query has no tables".into()));
        }
        query.validate(catalog)?;
        let start = milpjoin_shim::time::now();
        let dp_options = DpOptions {
            cost_model: self.cost_model,
            params: self.params,
            ..DpOptions::default()
        };
        let plan = greedy_order(catalog, query, &dp_options);
        let cost = plan_cost(catalog, query, &plan, self.cost_model, &self.params).total;
        let elapsed = start.elapsed();
        // No bound: a greedy construction proves nothing, so
        // `guaranteed_factor_at` honestly stays `None`.
        Ok(OrderingOutcome {
            trace: CostTrace::single(elapsed, cost, None),
            plan,
            cost,
            objective: cost,
            bound: None,
            proven_optimal: false,
            elapsed,
            search: Default::default(),
            route: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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
    fn dp_through_the_trait() {
        let (c, q) = example();
        let out = DpOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        out.plan.validate(&q).unwrap();
        assert!(out.proven_optimal);
        assert_eq!(out.bound, Some(out.cost));
        assert_eq!(out.guaranteed_factor(), Some(1.0));
        assert!((out.cost - 1000.0).abs() < 1e-6);
        assert_eq!(out.trace.points().len(), 1);
    }

    #[test]
    fn greedy_through_the_trait() {
        let (c, q) = example();
        let out = GreedyOptimizer::default()
            .order(&c, &q, &OrderingOptions::default())
            .unwrap();
        out.plan.validate(&q).unwrap();
        assert!(!out.proven_optimal);
        assert_eq!(out.bound, None);
        assert_eq!(out.guaranteed_factor(), None);
        // Greedy is never better than the DP optimum.
        assert!(out.cost >= 1000.0 - 1e-9);
    }

    #[test]
    fn dp_timeout_maps_to_ordering_error() {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..24)
            .map(|i| c.add_table(format!("T{i}"), 10.0))
            .collect();
        let q = Query::new(ids);
        let out = DpOptimizer::default().order(
            &c,
            &q,
            &OrderingOptions::with_time_limit(Duration::from_nanos(1)),
        );
        match out {
            Err(OrderingError::Timeout) => {}
            Ok(r) => r.plan.validate(&q).unwrap(), // absurdly fast machine
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dp_memory_limit_maps_to_resource_error() {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..30)
            .map(|i| c.add_table(format!("T{i}"), 10.0))
            .collect();
        let q = Query::new(ids);
        let dp = DpOptimizer {
            memory_budget_bytes: 1 << 20,
            ..Default::default()
        };
        match dp.order(&c, &q, &OrderingOptions::default()) {
            Err(OrderingError::ResourceLimit(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
