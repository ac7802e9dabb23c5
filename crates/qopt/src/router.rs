//! The adaptive backend router: per-query backend choice as a *policy*.
//!
//! Every [`JoinOrderer`] in the workspace answers the same question at a
//! very different price point: greedy is microseconds and guarantee-free,
//! the subset DPs (`milpjoin_dp::DpOptimizer`, `milpjoin_dp::DpConvOptimizer`)
//! are exact but exponential in the table count, and the MILP pipeline pays
//! an encoding + branch-and-bound toll that only amortizes on queries the
//! DPs cannot touch. At serving traffic most queries are small — the
//! observation behind Simpli-Squared (arXiv 2111.00163): a cheap
//! "good-enough" arm covers almost everything, and the expensive solvers
//! should pay rent only on the tail. [`RouterOptimizer`] makes that choice
//! *per query*, from a deterministic, explainable policy over query
//! features ([`QueryFeatures`]): table count, join-graph topology class,
//! cost model, runtime budget, and objective applicability.
//!
//! The router is itself a [`JoinOrderer`], so both serving surfaces —
//! [`crate::session::PlanSession`] and [`crate::service::QueryService`] —
//! adopt it with zero API change, and like any other backend one router
//! instance serves every service worker. It is also cheap to `Clone`: the
//! arms are shared [`Arc`]s.
//!
//! ## Contract
//!
//! * The routed outcome is **bit-identical** to running the chosen arm
//!   directly: the router dispatches, it never post-processes. The only
//!   difference is the stamped [`OrderingOutcome::route`].
//! * Errors and limit classifications pass through **unchanged**: a DP
//!   memory blow-up stays [`OrderingError::ResourceLimit`], a deadline
//!   stays [`OrderingError::Timeout`]. The router never silently retries a
//!   failed arm — callers see exactly what the arm saw.
//! * Every arm must be configured for the **same cost model**; a mismatch
//!   is reported as [`OrderingError::InvalidConfig`] (outcomes of
//!   differently-configured backends must never be silently compared).
//!
//! ## Default policy
//!
//! Rules fire in order; each only fires when its arm is installed (see
//! [`RouterOptions`] for the thresholds):
//!
//! 1. `tight-budget` — a wall-clock budget at or below
//!    [`RouterOptions::greedy_budget`] routes to **greedy**: no exact arm
//!    finishes reliably in microseconds.
//! 2. `very-large-decompose` — queries with at least
//!    [`RouterOptions::decompose_min_tables`] tables route to
//!    **decompose**: the join graph is partitioned into fragments, each
//!    fragment is solved by the hybrid pipeline, and the fragment plans
//!    are stitched over the quotient graph. No whole-query root LP is
//!    ever attempted, so the BENCH_0005 root-LP stall cannot occur.
//! 3. `small-cout` — at most [`RouterOptions::exact_max_tables`] tables
//!    with a subset-decomposable objective (C_out, no expensive
//!    predicates) routes to **dpconv**: the exact optimum in microseconds
//!    to low milliseconds.
//! 4. `small-exact` — at most [`RouterOptions::exact_max_tables`] tables
//!    otherwise routes to **dp** (classical Selinger enumeration; exact
//!    for every cost model).
//! 5. `large-search` — everything else routes to **hybrid** (greedy-seeded
//!    MILP).
//!
//! If a rule's arm is missing the next rule is tried; if no rule fires,
//! a deterministic fallback picks the first installed arm that can serve
//! the query (rule `"fallback"`). The decision — arm, rule, features — is
//! recorded in a [`RouteDecision`] on the outcome and aggregated into
//! [`crate::session::SessionStats::routes`], so "did any small query ever
//! reach branch-and-bound?" is answerable from `explain()` alone.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::catalog::Catalog;
use crate::cost::{CostModelKind, CostParams};
use crate::graph::{GraphShape, JoinGraph};
use crate::orderer::{JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome};
use crate::query::Query;

/// The backend families a router can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendArm {
    /// Nearest-neighbor heuristic: instant, guarantee-free.
    Greedy,
    /// Classical Selinger subset DP: exact under any cost model.
    Dp,
    /// Subset-convolution-style layered DP: exact, C_out-shaped
    /// objectives only (see `milpjoin_dp::DpConvOptimizer`).
    DpConv,
    /// Greedy-seeded warm-started MILP: the search arm.
    Hybrid,
    /// Decompose-and-conquer: partition the join graph into fragments,
    /// solve each with the hybrid pipeline, stitch over the quotient
    /// graph (see `milpjoin::DecomposingOptimizer`).
    Decompose,
}

impl BackendArm {
    pub const ALL: [BackendArm; 5] = [
        BackendArm::Greedy,
        BackendArm::Dp,
        BackendArm::DpConv,
        BackendArm::Hybrid,
        BackendArm::Decompose,
    ];

    pub fn name(self) -> &'static str {
        match self {
            BackendArm::Greedy => "greedy",
            BackendArm::Dp => "dp",
            BackendArm::DpConv => "dpconv",
            BackendArm::Hybrid => "hybrid",
            BackendArm::Decompose => "decomp",
        }
    }

    fn index(self) -> usize {
        match self {
            BackendArm::Greedy => 0,
            BackendArm::Dp => 1,
            BackendArm::DpConv => 2,
            BackendArm::Hybrid => 3,
            BackendArm::Decompose => 4,
        }
    }
}

impl fmt::Display for BackendArm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The query features the routing policy looks at. Deliberately small and
/// cheap: everything here is derivable from the query and the runtime
/// options in linear time, so the router adds microseconds, not solves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryFeatures {
    /// Number of tables `n`.
    pub tables: usize,
    /// Join-graph topology class (from [`JoinGraph::shape`]).
    pub shape: GraphShape,
    /// The cost model every arm is configured to optimize.
    pub cost_model: CostModelKind,
    /// Whether any predicate carries a per-tuple evaluation cost — such
    /// queries break C_out subset-decomposability, so the DPconv arm does
    /// not apply.
    pub expensive_predicates: bool,
    /// The per-solve wall-clock budget, when one is configured.
    pub time_limit: Option<Duration>,
    /// The deterministic node budget, when one is configured.
    pub deterministic_budget: Option<u64>,
}

impl QueryFeatures {
    /// Extracts the routing features of one (validated) query under the
    /// given cost model and runtime options.
    pub fn compute(query: &Query, cost_model: CostModelKind, options: &OrderingOptions) -> Self {
        QueryFeatures {
            tables: query.num_tables(),
            shape: JoinGraph::from_query(query).shape(),
            cost_model,
            expensive_predicates: query.predicates.iter().any(|p| p.eval_cost_per_tuple > 0.0),
            time_limit: options.time_limit,
            deterministic_budget: options.deterministic_budget,
        }
    }

    /// Whether the subset-convolution DP's objective shape applies: C_out
    /// with no expensive predicates (the per-subset weight must not depend
    /// on how the subset was reached).
    pub fn dpconv_applicable(&self) -> bool {
        self.cost_model == CostModelKind::Cout && !self.expensive_predicates
    }
}

/// What the router decided for one query, surfaced on
/// [`OrderingOutcome::route`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteDecision {
    /// The arm that ran (the outcome is bit-identical to running it
    /// directly).
    pub arm: BackendArm,
    /// The policy rule that fired (`"tight-budget"`,
    /// `"very-large-decompose"`, `"small-cout"`, `"small-exact"`,
    /// `"large-search"`, `"fallback"`).
    pub rule: &'static str,
    /// The features the rule fired on.
    pub features: QueryFeatures,
}

impl fmt::Display for RouteDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}: {} tables, {:?}, {}]",
            self.arm,
            self.rule,
            self.features.tables,
            self.features.shape,
            self.features.cost_model.name(),
        )
    }
}

/// Per-arm dispatch counters, aggregated by the session layers into
/// [`crate::session::SessionStats::routes`]. Counted once per *backend
/// solve* that carried a [`RouteDecision`] — cache hits never re-route, so
/// a duplicate-heavy stream shows arm counts equal to its unique-structure
/// solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouteCounts {
    pub greedy: u64,
    pub dp: u64,
    pub dpconv: u64,
    pub hybrid: u64,
    pub decompose: u64,
}

impl RouteCounts {
    pub fn count(&self, arm: BackendArm) -> u64 {
        match arm {
            BackendArm::Greedy => self.greedy,
            BackendArm::Dp => self.dp,
            BackendArm::DpConv => self.dpconv,
            BackendArm::Hybrid => self.hybrid,
            BackendArm::Decompose => self.decompose,
        }
    }

    pub fn record(&mut self, arm: BackendArm) {
        match arm {
            BackendArm::Greedy => self.greedy += 1,
            BackendArm::Dp => self.dp += 1,
            BackendArm::DpConv => self.dpconv += 1,
            BackendArm::Hybrid => self.hybrid += 1,
            BackendArm::Decompose => self.decompose += 1,
        }
    }

    /// Total routed solves.
    pub fn total(&self) -> u64 {
        BackendArm::ALL.iter().map(|&a| self.count(a)).sum()
    }

    /// How many distinct arms fired at least once.
    pub fn distinct_arms(&self) -> usize {
        BackendArm::ALL
            .iter()
            .filter(|&&a| self.count(a) > 0)
            .count()
    }

    /// Routed solves that reached the branch-and-bound arm (hybrid) — the
    /// expensive tail the router exists to protect. The decompose arm is
    /// *not* counted: its fragment solves never run a bare whole-query
    /// root LP, which is exactly what this counter polices.
    pub fn search_solves(&self) -> u64 {
        self.hybrid
    }

    pub(crate) fn absorb(&mut self, other: &RouteCounts) {
        self.greedy += other.greedy;
        self.dp += other.dp;
        self.dpconv += other.dpconv;
        self.hybrid += other.hybrid;
        self.decompose += other.decompose;
    }
}

/// Lists only the arms that fired: `greedy:2 dpconv:9 hybrid:3`.
impl fmt::Display for RouteCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for arm in BackendArm::ALL {
            let n = self.count(arm);
            if n > 0 {
                if !first {
                    f.write_str(" ")?;
                }
                write!(f, "{}:{n}", arm.name())?;
                first = false;
            }
        }
        if first {
            f.write_str("none")?;
        }
        Ok(())
    }
}

/// Static thresholds of the default routing policy. All tunable; the
/// defaults encode the workspace's own measurements (BENCH_0001/0005):
/// subset DPs win outright through ~12 tables, and very large queries
/// starve the whole-query MILP root LP.
#[derive(Debug, Clone)]
pub struct RouterOptions {
    /// Wall-clock budgets at or below this route to the greedy arm
    /// (rule `tight-budget`). Default 500 µs.
    pub greedy_budget: Duration,
    /// Largest table count served by the exact subset DPs (rules
    /// `small-cout` / `small-exact`). Default 12 (4096 subsets — well
    /// under a millisecond; the MILP encoding alone costs more).
    pub exact_max_tables: usize,
    /// Queries with at least this many tables route to the decompose arm
    /// (rule `very-large-decompose`), which partitions the join graph and
    /// solves fragments instead of running one whole-query root LP (which
    /// stalls at this size: BENCH_0005's star-20). Default 20.
    pub decompose_min_tables: usize,
}

impl Default for RouterOptions {
    fn default() -> Self {
        RouterOptions {
            greedy_budget: Duration::from_micros(500),
            exact_max_tables: 12,
            decompose_min_tables: 20,
        }
    }
}

impl RouterOptions {
    /// Builder-style setter for [`Self::exact_max_tables`].
    pub fn exact_max_tables(mut self, n: usize) -> Self {
        self.exact_max_tables = n;
        self
    }

    /// Builder-style setter for [`Self::greedy_budget`].
    pub fn greedy_budget(mut self, budget: Duration) -> Self {
        self.greedy_budget = budget;
        self
    }

    /// Builder-style setter for [`Self::decompose_min_tables`].
    pub fn decompose_min_tables(mut self, n: usize) -> Self {
        self.decompose_min_tables = n;
        self
    }
}

/// An adaptive multi-backend [`JoinOrderer`]: picks one arm per query from
/// the deterministic policy described in the [module docs](self), runs it,
/// and stamps the [`RouteDecision`] on the outcome.
///
/// Built empty and populated with [`Self::with_arm`]; the first arm fixes
/// the router's cost model and later arms must match it. Most callers want
/// `milpjoin::standard_router`, which wires all five workspace arms from
/// one encoder configuration.
#[derive(Clone)]
pub struct RouterOptimizer {
    arms: [Option<Arc<dyn JoinOrderer>>; 5],
    options: RouterOptions,
    model: Option<(CostModelKind, CostParams)>,
    /// First configuration inconsistency seen while installing arms;
    /// reported as [`OrderingError::InvalidConfig`] on every `order` call.
    config_error: Option<String>,
}

impl RouterOptimizer {
    pub fn new(options: RouterOptions) -> Self {
        RouterOptimizer {
            arms: [None, None, None, None, None],
            options,
            model: None,
            config_error: None,
        }
    }

    /// Installs (or replaces) an arm. The first installed arm fixes the
    /// router's cost model; installing an arm configured for a different
    /// model records a configuration error that every subsequent
    /// [`JoinOrderer::order`] call reports as
    /// [`OrderingError::InvalidConfig`].
    pub fn with_arm(mut self, arm: BackendArm, backend: impl JoinOrderer + 'static) -> Self {
        let (model, params) = backend.cost_model();
        match self.model {
            None => self.model = Some((model, params)),
            Some((m, p)) => {
                let params_match = p.tuple_bytes == params.tuple_bytes
                    && p.page_bytes == params.page_bytes
                    && p.buffer_pages == params.buffer_pages;
                if m != model || !params_match {
                    self.config_error.get_or_insert_with(|| {
                        format!(
                            "arm {} is configured for cost model {} but the router \
                             routes over {}; all arms must share one cost model",
                            arm.name(),
                            model.name(),
                            m.name(),
                        )
                    });
                }
            }
        }
        self.arms[arm.index()] = Some(Arc::new(backend));
        self
    }

    /// The routing thresholds this router was built with.
    pub fn options(&self) -> &RouterOptions {
        &self.options
    }

    /// Whether an arm is installed.
    pub fn has_arm(&self, arm: BackendArm) -> bool {
        self.arms[arm.index()].is_some()
    }

    /// Direct access to an installed arm (tests compare routed outcomes
    /// against the arm run directly).
    pub fn arm(&self, arm: BackendArm) -> Option<&dyn JoinOrderer> {
        self.arms[arm.index()].as_deref()
    }

    /// The pure policy: which arm would serve a query with these features?
    /// `None` only when no arms are installed. Deterministic — same
    /// features, same installed arms, same decision — and side-effect
    /// free, so callers can ask "where would this go?" without solving.
    pub fn route(&self, features: &QueryFeatures) -> Option<RouteDecision> {
        let decision = |arm: BackendArm, rule: &'static str| {
            self.has_arm(arm).then_some(RouteDecision {
                arm,
                rule,
                features: *features,
            })
        };

        // Rule 1: budgets too tight for any exact arm.
        if let Some(limit) = features.time_limit {
            if limit <= self.options.greedy_budget {
                if let Some(d) = decision(BackendArm::Greedy, "tight-budget") {
                    return Some(d);
                }
            }
        }
        // Rule 2: very large queries never run a whole-query root LP —
        // the decompose arm partitions the join graph, solves fragments,
        // and stitches.
        if features.tables >= self.options.decompose_min_tables {
            if let Some(d) = decision(BackendArm::Decompose, "very-large-decompose") {
                return Some(d);
            }
        }
        // Rules 3/4: the exact fast path.
        if features.tables <= self.options.exact_max_tables {
            if features.dpconv_applicable() {
                if let Some(d) = decision(BackendArm::DpConv, "small-cout") {
                    return Some(d);
                }
            }
            if let Some(d) = decision(BackendArm::Dp, "small-exact") {
                return Some(d);
            }
        }
        // Rule 5: the search tail.
        if let Some(d) = decision(BackendArm::Hybrid, "large-search") {
            return Some(d);
        }
        // Deterministic fallback over whatever is installed: exact arms
        // first when the query is small enough for them, heuristics before
        // out-of-range DPs otherwise. DPconv is only ever picked when its
        // objective shape applies; decompose serves any query, but only as
        // the last resort below its threshold.
        let small = features.tables <= self.options.exact_max_tables;
        let order: [BackendArm; 4] = if small {
            [
                BackendArm::DpConv,
                BackendArm::Dp,
                BackendArm::Greedy,
                BackendArm::Decompose,
            ]
        } else {
            [
                BackendArm::Greedy,
                BackendArm::Dp,
                BackendArm::DpConv,
                BackendArm::Decompose,
            ]
        };
        for arm in order {
            if arm == BackendArm::DpConv && !features.dpconv_applicable() {
                continue;
            }
            if let Some(d) = decision(arm, "fallback") {
                return Some(d);
            }
        }
        None
    }

    /// Features + policy in one step for a validated query.
    pub fn route_query(&self, query: &Query, options: &OrderingOptions) -> Option<RouteDecision> {
        let model = self.model.map(|(m, _)| m)?;
        self.route(&QueryFeatures::compute(query, model, options))
    }
}

impl JoinOrderer for RouterOptimizer {
    fn name(&self) -> &'static str {
        "router"
    }

    fn cost_model(&self) -> (CostModelKind, CostParams) {
        self.model
            .unwrap_or((CostModelKind::Cout, CostParams::default()))
    }

    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError> {
        if let Some(err) = &self.config_error {
            return Err(OrderingError::InvalidConfig(err.clone()));
        }
        // Feature extraction walks the predicate list through
        // `JoinGraph::from_query`, which requires a validated query.
        query
            .validate(catalog)
            .map_err(|e| OrderingError::InvalidQuery(e.to_string()))?;
        let (model, _) = self
            .model
            .ok_or_else(|| OrderingError::InvalidConfig("router has no arms installed".into()))?;
        let features = QueryFeatures::compute(query, model, options);
        let decision = self
            .route(&features)
            // audit-allow(no-panic): construction validates that a router with
            // a cost model installs at least one arm.
            .expect("router with a cost model has at least one arm");
        let backend = self.arms[decision.arm.index()]
            .as_ref()
            // audit-allow(no-panic): `route` draws from the installed-arm set
            // by construction.
            .expect("route() only returns installed arms");
        // Dispatch. Errors (and their Timeout/ResourceLimit/InvalidConfig
        // classification) pass through unchanged; on success the outcome is
        // the arm's outcome with the decision stamped on.
        let mut outcome = backend.order(catalog, query, options)?;
        outcome.route = Some(decision);
        Ok(outcome)
    }
}

impl fmt::Debug for RouterOptimizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let installed: Vec<&'static str> = BackendArm::ALL
            .iter()
            .filter(|&&a| self.has_arm(a))
            .map(|&a| a.name())
            .collect();
        f.debug_struct("RouterOptimizer")
            .field("arms", &installed)
            .field("options", &self.options)
            .field("model", &self.model.map(|(m, _)| m.name()))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::plan_cost;
    use crate::plan::LeftDeepPlan;
    use crate::query::Predicate;
    use std::time::Duration;

    /// A stub arm that tags its plans by sorting tables and reports a
    /// distinctive elapsed time so tests can tell arms apart.
    #[derive(Clone)]
    struct StubArm {
        tag: &'static str,
        model: CostModelKind,
    }

    impl JoinOrderer for StubArm {
        fn name(&self) -> &'static str {
            self.tag
        }

        fn cost_model(&self) -> (CostModelKind, CostParams) {
            (self.model, CostParams::default())
        }

        fn order(
            &self,
            catalog: &Catalog,
            query: &Query,
            _options: &OrderingOptions,
        ) -> Result<OrderingOutcome, OrderingError> {
            let mut order = query.tables.clone();
            order.sort_by(|&a, &b| catalog.cardinality(a).total_cmp(&catalog.cardinality(b)));
            let plan = LeftDeepPlan::from_order(order);
            let cost = plan_cost(catalog, query, &plan, self.model, &CostParams::default()).total;
            Ok(OrderingOutcome {
                plan,
                cost,
                objective: cost,
                bound: None,
                proven_optimal: false,
                trace: crate::orderer::CostTrace::default(),
                elapsed: Duration::ZERO,
                search: Default::default(),
                route: None,
            })
        }
    }

    fn arm(model: CostModelKind) -> StubArm {
        StubArm { tag: "stub", model }
    }

    fn small_query() -> (Catalog, Query) {
        let mut c = Catalog::new();
        let r = c.add_table("R", 10.0);
        let s = c.add_table("S", 1000.0);
        let t = c.add_table("T", 100.0);
        let mut q = Query::new(vec![r, s, t]);
        q.add_predicate(Predicate::binary(r, s, 0.1));
        q.add_predicate(Predicate::binary(s, t, 0.1));
        (c, q)
    }

    fn star_query(n: usize) -> (Catalog, Query) {
        let mut c = Catalog::new();
        let ids: Vec<_> = (0..n)
            .map(|i| c.add_table(format!("T{i}"), 100.0 + i as f64))
            .collect();
        let mut q = Query::new(ids.clone());
        for i in 1..n {
            q.add_predicate(Predicate::binary(ids[0], ids[i], 0.1));
        }
        (c, q)
    }

    fn full_router() -> RouterOptimizer {
        let mut r = RouterOptimizer::new(RouterOptions::default());
        for a in BackendArm::ALL {
            r = r.with_arm(a, arm(CostModelKind::Cout));
        }
        r
    }

    #[test]
    fn small_cout_routes_to_dpconv() {
        let (c, q) = small_query();
        let router = full_router();
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.expect("router stamps a decision");
        assert_eq!(route.arm, BackendArm::DpConv);
        assert_eq!(route.rule, "small-cout");
        assert_eq!(route.features.tables, 3);
    }

    #[test]
    fn expensive_predicates_disqualify_dpconv() {
        let (c, mut q) = small_query();
        q.predicates[0].eval_cost_per_tuple = 2.0;
        let router = full_router();
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.unwrap();
        assert_eq!(route.arm, BackendArm::Dp);
        assert_eq!(route.rule, "small-exact");
        assert!(route.features.expensive_predicates);
    }

    #[test]
    fn non_cout_model_routes_to_dp() {
        let (c, q) = small_query();
        let mut router = RouterOptimizer::new(RouterOptions::default());
        for a in BackendArm::ALL {
            router = router.with_arm(a, arm(CostModelKind::Hash));
        }
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        assert_eq!(out.route.unwrap().arm, BackendArm::Dp);
    }

    #[test]
    fn tight_budget_routes_to_greedy() {
        let (c, q) = small_query();
        let router = full_router();
        let out = router
            .order(
                &c,
                &q,
                &OrderingOptions::with_time_limit(Duration::from_micros(100)),
            )
            .unwrap();
        let route = out.route.unwrap();
        assert_eq!(route.arm, BackendArm::Greedy);
        assert_eq!(route.rule, "tight-budget");
    }

    #[test]
    fn large_queries_route_to_hybrid_and_very_large_to_decompose() {
        let router = full_router();
        let (c, q) = star_query(15);
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.unwrap();
        assert_eq!(route.arm, BackendArm::Hybrid);
        assert_eq!(route.rule, "large-search");
        assert_eq!(route.features.shape, GraphShape::Star);

        // At the decompose threshold the decompose arm wins.
        let (c, q) = star_query(20);
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.unwrap();
        assert_eq!(route.arm, BackendArm::Decompose);
        assert_eq!(route.rule, "very-large-decompose");
    }

    #[test]
    fn missing_arms_fall_through_deterministically() {
        let (c, q) = small_query();
        // No DPconv installed: the small-cout rule cannot fire.
        let router = RouterOptimizer::new(RouterOptions::default())
            .with_arm(BackendArm::Dp, arm(CostModelKind::Cout))
            .with_arm(BackendArm::Hybrid, arm(CostModelKind::Cout));
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        assert_eq!(out.route.unwrap().arm, BackendArm::Dp);
        // Only a greedy arm: everything falls back to it.
        let router = RouterOptimizer::new(RouterOptions::default())
            .with_arm(BackendArm::Greedy, arm(CostModelKind::Cout));
        let out = router.order(&c, &q, &OrderingOptions::default()).unwrap();
        let route = out.route.unwrap();
        assert_eq!(route.arm, BackendArm::Greedy);
        assert_eq!(route.rule, "fallback");
    }

    #[test]
    fn mismatched_cost_models_are_invalid_config() {
        let (c, q) = small_query();
        let router = RouterOptimizer::new(RouterOptions::default())
            .with_arm(BackendArm::Dp, arm(CostModelKind::Cout))
            .with_arm(BackendArm::Hybrid, arm(CostModelKind::Hash));
        match router.order(&c, &q, &OrderingOptions::default()) {
            Err(OrderingError::InvalidConfig(msg)) => {
                assert!(msg.contains("cost model"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn no_arms_is_invalid_config() {
        let (c, q) = small_query();
        let router = RouterOptimizer::new(RouterOptions::default());
        assert!(matches!(
            router.order(&c, &q, &OrderingOptions::default()),
            Err(OrderingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_queries_are_rejected_before_routing() {
        let catalog = Catalog::new();
        let mut other = Catalog::new();
        let r = other.add_table("R", 10.0);
        let q = Query::new(vec![r]);
        let router = full_router();
        assert!(matches!(
            router.order(&catalog, &q, &OrderingOptions::default()),
            Err(OrderingError::InvalidQuery(_))
        ));
    }

    #[test]
    fn route_counts_accounting() {
        let mut counts = RouteCounts::default();
        assert_eq!(counts.distinct_arms(), 0);
        assert_eq!(format!("{counts}"), "none");
        counts.record(BackendArm::DpConv);
        counts.record(BackendArm::DpConv);
        counts.record(BackendArm::Hybrid);
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.distinct_arms(), 2);
        assert_eq!(counts.search_solves(), 1);
        assert_eq!(format!("{counts}"), "dpconv:2 hybrid:1");
        let mut other = RouteCounts::default();
        other.record(BackendArm::Greedy);
        other.record(BackendArm::Decompose);
        counts.absorb(&other);
        assert_eq!(counts.total(), 5);
        assert_eq!(counts.greedy, 1);
        assert_eq!(counts.decompose, 1);
        // Decompose never runs a bare whole-query root LP, so it does not
        // count as a search solve.
        assert_eq!(counts.search_solves(), 1);
    }

    #[test]
    fn routed_outcome_is_bit_identical_to_the_arm() {
        let (c, q) = small_query();
        let router = full_router();
        let options = OrderingOptions::default();
        let routed = router.order(&c, &q, &options).unwrap();
        let arm = routed.route.unwrap().arm;
        let direct = router.arm(arm).unwrap().order(&c, &q, &options).unwrap();
        assert_eq!(routed.plan.order, direct.plan.order);
        assert_eq!(routed.cost, direct.cost);
        assert_eq!(routed.bound, direct.bound);
        assert_eq!(routed.proven_optimal, direct.proven_optimal);
        assert!(direct.route.is_none());
    }
}
