//! Shared helpers for the workspace-level integration tests and examples.

use std::time::Duration;

use milpjoin::{EncoderConfig, MilpOptimizer, OptimizeOutcome, OrderingOptions, Precision};
use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
use milpjoin_qopt::{Catalog, LeftDeepPlan, Query, TableId};
use milpjoin_workloads::{Topology, WorkloadSpec};

/// Generates a seeded random workload (re-exported convenience).
pub fn workload(topology: Topology, num_tables: usize, seed: u64) -> (Catalog, Query) {
    WorkloadSpec::new(topology, num_tables).generate(seed)
}

/// Runs the MILP optimizer with a precision and time limit.
pub fn optimize_with(
    catalog: &Catalog,
    query: &Query,
    precision: Precision,
    time_limit: Duration,
) -> Result<OptimizeOutcome, milpjoin::OptimizeError> {
    let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(precision));
    optimizer.optimize(
        catalog,
        query,
        &OrderingOptions::with_time_limit(time_limit),
        None,
    )
}

/// `plan_cost` of every left-deep plan of `query` under `model` and the
/// default cost parameters: the brute-force optimality oracle (n! plans;
/// keep n small).
pub fn all_plan_costs(catalog: &Catalog, query: &Query, model: CostModelKind) -> Vec<f64> {
    fn permute(order: &mut [TableId], k: usize, visit: &mut dyn FnMut(&[TableId])) {
        if k == order.len() {
            return visit(order);
        }
        for i in k..order.len() {
            order.swap(k, i);
            permute(order, k + 1, visit);
            order.swap(k, i);
        }
    }
    let mut costs = Vec::new();
    permute(&mut query.tables.clone(), 0, &mut |order| {
        let plan = LeftDeepPlan::from_order(order.to_vec());
        costs.push(plan_cost(catalog, query, &plan, model, &CostParams::default()).total);
    });
    costs
}

/// Formats a duration as fractional seconds.
pub fn secs(d: Duration) -> String {
    format!("{:.2}s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_work() {
        let (c, q) = workload(Topology::Chain, 4, 0);
        let out = optimize_with(&c, &q, Precision::Low, Duration::from_secs(10)).unwrap();
        out.plan.validate(&q).unwrap();
        assert_eq!(secs(Duration::from_millis(1500)), "1.50s");
    }
}
