//! Wiring the full workspace backend roster into a
//! [`RouterOptimizer`].
//!
//! The router itself lives in `milpjoin_qopt` (below every backend crate
//! in the dependency graph); this module is the one place that can see
//! greedy, DP, DPconv, hybrid and decompose at once and therefore owns the
//! standard assembly. [`standard_router`] derives every arm from a single
//! [`EncoderConfig`], so all arms provably share one cost model — the
//! router's consistency requirement — and the result drops into
//! `PlanSession` and `QueryService` like any single backend.

use milpjoin_dp::{DpConvOptimizer, DpOptimizer, GreedyOptimizer};
use milpjoin_qopt::cost::CostModelKind;
use milpjoin_qopt::router::{BackendArm, RouterOptimizer, RouterOptions};

use crate::config::EncoderConfig;
use crate::decompose::DecomposingOptimizer;
use crate::hybrid::HybridOptimizer;

/// Builds the standard five-arm router from one encoder configuration:
/// greedy, classical DP, DPconv (only under the C_out cost model — its
/// objective-shape requirement; see `milpjoin_dp::dpconv`), the
/// greedy-seeded hybrid as the search arm, and the decompose-and-conquer
/// arm for very large queries. The cold [`crate::MilpOptimizer`] is not an
/// arm: the hybrid serves every query the search rule routes, with a warm
/// start. Routing thresholds come from `options`
/// ([`RouterOptions::default`] encodes the measured defaults).
pub fn standard_router(config: EncoderConfig, options: RouterOptions) -> RouterOptimizer {
    let mut router = RouterOptimizer::new(options)
        .with_arm(
            BackendArm::Greedy,
            GreedyOptimizer {
                cost_model: config.cost_model,
                params: config.cost_params,
            },
        )
        .with_arm(
            BackendArm::Dp,
            DpOptimizer {
                cost_model: config.cost_model,
                params: config.cost_params,
                ..Default::default()
            },
        );
    // DPconv is only a valid arm where its objective shape applies; under
    // any other cost model the slot stays empty and the policy's
    // `small-exact` rule covers small queries with the classical DP.
    if config.cost_model == CostModelKind::Cout {
        router = router.with_arm(
            BackendArm::DpConv,
            DpConvOptimizer {
                params: config.cost_params,
                ..Default::default()
            },
        );
    }
    router
        .with_arm(BackendArm::Hybrid, HybridOptimizer::new(config.clone()))
        .with_arm(BackendArm::Decompose, DecomposingOptimizer::new(config))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use milpjoin_qopt::orderer::{JoinOrderer, OrderingOptions};
    use milpjoin_qopt::router::{QueryFeatures, RouteCounts};
    use milpjoin_qopt::{Catalog, GraphShape, Predicate, Query};

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
    fn cout_config_installs_every_arm() {
        let router = standard_router(EncoderConfig::default(), RouterOptions::default());
        for arm in BackendArm::ALL {
            assert!(router.has_arm(arm), "missing {arm}");
        }
        let (c, q) = example();
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.expect("routed solve records its decision");
        assert_eq!(route.arm, BackendArm::DpConv);
        assert!(out.proven_optimal);
        assert!((out.cost - 1000.0).abs() < 1e-6);
    }

    #[test]
    fn non_cout_config_omits_dpconv_and_still_routes() {
        let config = EncoderConfig::default().cost_model(CostModelKind::Hash);
        let router = standard_router(config, RouterOptions::default());
        assert!(!router.has_arm(BackendArm::DpConv));
        let (c, q) = example();
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        assert_eq!(out.route.unwrap().arm, BackendArm::Dp);
    }

    /// Sweeps every feature the standard policy reads through the pure
    /// `route()`: each documented rule fires somewhere, no other rule
    /// (the fallback included) ever does, and every installed arm serves
    /// some query — a rule or arm the policy cannot reach fails here.
    #[test]
    fn standard_policy_has_no_dead_rules_or_arms() {
        let options = RouterOptions::default();
        let router = standard_router(EncoderConfig::default(), options.clone());
        let (cost_model, _) = router.cost_model();
        let shapes = [
            GraphShape::Chain,
            GraphShape::Cycle,
            GraphShape::Star,
            GraphShape::Clique,
            GraphShape::Other,
        ];
        let mut rules = BTreeSet::new();
        let mut arms = RouteCounts::default();
        for tables in 1..=64 {
            for shape in shapes {
                for expensive_predicates in [false, true] {
                    for time_limit in [None, Some(options.greedy_budget)] {
                        let features = QueryFeatures {
                            tables,
                            shape,
                            cost_model,
                            expensive_predicates,
                            time_limit,
                            deterministic_budget: None,
                        };
                        let decision = router
                            .route(&features)
                            .expect("the standard router routes every query");
                        rules.insert(decision.rule);
                        arms.record(decision.arm);
                    }
                }
            }
        }
        assert_eq!(
            rules,
            BTreeSet::from([
                "tight-budget",
                "very-large-decompose",
                "small-cout",
                "small-exact",
                "large-search",
            ])
        );
        for arm in BackendArm::ALL {
            if router.has_arm(arm) {
                assert!(arms.count(arm) > 0, "installed arm {arm} never fires");
            }
        }
    }
}
