//! Backend-agnostic join ordering interface.
//!
//! Every optimizer in the workspace — the MILP encoder/solver pipeline, the
//! Selinger DP baseline, the greedy heuristic, and the hybrid that chains
//! greedy into a warm-started MILP — answers the same question: *given a
//! catalog and a query, which left-deep plan should run?* [`JoinOrderer`]
//! is that question as a trait, with unified [`OrderingOptions`] (runtime
//! limits) and a unified [`OrderingOutcome`] (plan, costs, bounds, anytime
//! trace). Cost-model choice stays a per-backend *construction* concern
//! (exposed read-only through [`JoinOrderer::cost_model`]) so outcomes of
//! differently-configured backends are never silently compared.
//!
//! ## Cost-space traces
//!
//! The [`CostTrace`] is **cost-space by construction**: incumbents are
//! *exact* plan costs under the backend's configured cost model, and the
//! bound is a cost-space lower bound proven to hold for every plan. Exact
//! backends (DP, greedy) emit exact costs natively; MILP-based backends
//! decode each MILP incumbent and project it through `plan_cost` at
//! trace-point creation, and project their MILP-space dual bound into cost
//! space (see `milpjoin::optimizer`). The payoff is that
//! [`CostTrace::guaranteed_factor_at`] means the *same thing* for DP,
//! greedy, MILP, and hybrid — the paper's Figure 2 metric is directly
//! comparable across backends.
//!
//! The cost trace is the pipeline's only anytime record. A MILP-based
//! backend still reports its final MILP-space certificate (objective and
//! bound) on its native outcome, and every factor — cost-space or
//! MILP-space — follows the one rule of [`guaranteed_factor`].

use std::time::Duration;

use crate::catalog::Catalog;
use crate::cost::{CostModelKind, CostParams};
use crate::plan::LeftDeepPlan;
use crate::query::{Query, QueryError};

/// The guaranteed optimality factor `incumbent / bound`, at least 1, in a
/// non-negative objective space — the one rule behind
/// [`CostTrace::guaranteed_factor_at`],
/// [`OrderingOutcome::guaranteed_factor`] and the MILP-space factor of
/// `milpjoin::OptimizeOutcome`.
///
/// A **zero incumbent** is trivially optimal (no objective value lies
/// below zero) and yields `Some(1.0)` whatever the bound: the naive
/// `0 / bound` would demand a positive bound that cannot exist below zero.
/// Otherwise the factor needs a positive bound and is `None` without one.
pub fn guaranteed_factor(incumbent: f64, bound: Option<f64>) -> Option<f64> {
    if incumbent == 0.0 {
        return Some(1.0);
    }
    match bound {
        Some(b) if b > 0.0 => Some((incumbent / b).max(1.0)),
        _ => None,
    }
}

/// One sample of the cost-space anytime state.
#[derive(Debug, Clone, Copy)]
pub struct CostTracePoint {
    pub elapsed: Duration,
    /// *Exact* cost (backend's configured cost model) of the incumbent plan
    /// known at this point, if any.
    pub incumbent: Option<f64>,
    /// Cost-space lower bound proven to hold for *every* plan at this
    /// point; `None` while nothing is proven.
    pub bound: Option<f64>,
}

/// The incumbent/bound history of one optimization run, in exact cost
/// space. See the module docs: incumbents are exact plan costs for every
/// backend, so anytime plots of different backends are directly
/// comparable.
///
/// The incumbent at each point is the exact cost of the plan the backend
/// *currently holds* (and would return if stopped there). Because the
/// MILP-based backends keep a running **exact-cost argmin** over every
/// decoded incumbent and return that plan (a MILP-space improvement can
/// decode to an exactly-worse plan; the argmin guards against it), this
/// sequence is monotone non-increasing for every backend.
#[derive(Debug, Clone, Default)]
pub struct CostTrace {
    points: Vec<CostTracePoint>,
}

impl CostTrace {
    /// A one-point trace (heuristics and cached results: a single
    /// incumbent, optionally with a carried bound).
    pub fn single(elapsed: Duration, incumbent: f64, bound: Option<f64>) -> Self {
        let mut t = CostTrace::default();
        t.push(CostTracePoint {
            elapsed,
            incumbent: Some(incumbent),
            bound,
        });
        t
    }

    pub fn push(&mut self, p: CostTracePoint) {
        self.points.push(p);
    }

    pub fn points(&self) -> &[CostTracePoint] {
        &self.points
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The anytime state at `elapsed`: the last point at or before it.
    pub fn state_at(&self, elapsed: Duration) -> Option<CostTracePoint> {
        self.points
            .iter()
            .take_while(|p| p.elapsed <= elapsed)
            .last()
            .copied()
    }

    /// The [`guaranteed_factor`] (exact incumbent cost / cost-space lower
    /// bound) provable at `elapsed`; `None` while no incumbent exists or,
    /// for a non-zero incumbent, no positive bound is proven.
    pub fn guaranteed_factor_at(&self, elapsed: Duration) -> Option<f64> {
        let state = self.state_at(elapsed)?;
        guaranteed_factor(state.incumbent?, state.bound)
    }
}

/// Runtime limits shared by every backend. Limits a backend cannot honor
/// are ignored (greedy and DP have no nodes to limit).
#[derive(Debug, Clone, Default)]
pub struct OrderingOptions {
    /// Wall-clock budget for the whole optimization.
    ///
    /// **Caveat under CPU oversubscription:** a wall-clock budget that
    /// binds measures machine load, not work done — on a host running more
    /// solver threads than cores, the same solve terminates earlier (with
    /// a weaker incumbent or bound) than it would alone. Use
    /// [`Self::deterministic_budget`] where result identity under load
    /// matters.
    pub time_limit: Option<Duration>,
    /// Deterministic per-solve budget, metered in branch-and-bound nodes
    /// instead of wall-clock time — the one node budget. It is a hard cap:
    /// checked before every node LP, so a single-worker solve expands at
    /// most this many nodes. Unlike [`Self::time_limit`], node metering is
    /// invariant under CPU contention: the same query and backend
    /// configuration stop at the same search-tree state whether one solve
    /// runs or sixteen — so budget-limited outcomes are identical at any
    /// service worker count. Exhaustion before any plan is found
    /// classifies as [`OrderingError::ResourceLimit`], never
    /// [`OrderingError::Timeout`]. Backends without a node-metered search
    /// (greedy, DP) ignore it.
    pub deterministic_budget: Option<u64>,
    /// Branch-and-bound workers *inside* each single solve (search
    /// backends only; greedy and DP ignore it). The MILP backend runs one
    /// search with this many workers, one of them on the calling thread;
    /// `0` counts as `1` (the default), which spawns nothing and is
    /// deterministic. Composes multiplicatively with service concurrency:
    /// a `QueryService` with `w` workers each solving with `t` solver
    /// threads can occupy up to `w × t` cores — budget both knobs together,
    /// and keep this at the default `1` whenever bit-identical results
    /// matter (more workers preserve optimal costs and certificates but
    /// not node-by-node determinism).
    pub solver_threads: usize,
}

impl OrderingOptions {
    pub fn with_time_limit(limit: Duration) -> Self {
        OrderingOptions {
            time_limit: Some(limit),
            ..Default::default()
        }
    }

    /// Options with only a deterministic node budget (see
    /// [`Self::deterministic_budget`]): results are identical under any
    /// CPU load, at the price of a solve time that varies with the
    /// hardware instead of a deadline that varies the result.
    pub fn with_deterministic_budget(nodes: u64) -> Self {
        OrderingOptions {
            deterministic_budget: Some(nodes),
            ..Default::default()
        }
    }

    /// Builder-style setter for [`Self::deterministic_budget`].
    pub fn deterministic_budget(mut self, nodes: u64) -> Self {
        self.deterministic_budget = Some(nodes);
        self
    }

    /// Builder-style setter for [`Self::solver_threads`].
    pub fn solver_threads(mut self, threads: usize) -> Self {
        self.solver_threads = threads;
        self
    }
}

/// Per-solve search observability counters, aggregated by the session
/// layer into [`crate::session::SessionStats`]. Backends without a
/// node-based search (greedy, DP, cache hits) report all-zero stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Branch-and-bound nodes whose relaxation was solved.
    pub nodes_expanded: u64,
    /// Workers the search ran with (`1` for a single-worker search, `0`
    /// when the backend has no search at all).
    pub workers_used: usize,
    /// Nodes expanded whose justifying bound already exceeded the final
    /// optimum — work a clairvoyant search would have pruned; the natural
    /// measure of speculative overhead in a multi-worker search.
    pub speculative_nodes: u64,
    /// Simplex iterations spent on the root relaxation's LP solve. A
    /// solve where this dominates `total_lp_iterations` is root-LP-bound:
    /// node-level parallelism cannot help it, only a faster simplex or
    /// fragment decomposition can.
    pub root_lp_iterations: u64,
    /// Simplex iterations across every LP the solve ran (warm start, node
    /// relaxations, heuristics). Zero for backends without an LP.
    pub total_lp_iterations: u64,
}

/// What every backend reports for one query.
#[derive(Debug, Clone)]
pub struct OrderingOutcome {
    /// The chosen left-deep plan.
    pub plan: LeftDeepPlan,
    /// Exact cost of `plan` under the backend's configured cost model.
    pub cost: f64,
    /// Objective of `plan` in the backend's own objective space — equal to
    /// `cost` for exact backends (DP, greedy), the approximate MILP-space
    /// objective for MILP-based backends.
    pub objective: f64,
    /// Cost-space lower bound proven to hold for *every* plan; `None` when
    /// the backend proves nothing (greedy). MILP-based backends project
    /// their MILP-space dual bound into cost space (see
    /// `milpjoin::optimizer`), so `cost / bound` is a valid guarantee even
    /// when the returned plan did not come out of the MILP search (a seed
    /// plan that won the exact-cost argmin).
    pub bound: Option<f64>,
    /// Whether the backend proved `plan` optimal in its own objective
    /// space. Note for approximating backends this does *not* mean
    /// `cost == bound`: a MILP-space proof pins the plan within the
    /// configured tolerance factor of the cost-space optimum.
    pub proven_optimal: bool,
    /// Incumbent/bound history in exact cost space.
    pub trace: CostTrace,
    /// Wall-clock time the backend spent.
    pub elapsed: Duration,
    /// Search observability counters (all-zero for non-search backends).
    pub search: SearchStats,
    /// Which backend arm served this query and why, when the solve was
    /// dispatched by a [`crate::router::RouterOptimizer`]; `None` for
    /// directly-invoked backends and for session cache hits (a hit never
    /// re-routes).
    pub route: Option<crate::router::RouteDecision>,
}

impl OrderingOutcome {
    /// Final [`guaranteed_factor`] `cost / bound` in exact cost space;
    /// `None` without a positive bound. A zero-cost plan yields `Some(1.0)`
    /// (cross-product-free single-join queries under C_out have no
    /// intermediate results and cost `0.0`).
    pub fn guaranteed_factor(&self) -> Option<f64> {
        guaranteed_factor(self.cost, self.bound)
    }
}

/// Unified failure modes across backends.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderingError {
    /// The backend could not produce any plan within its time limit.
    Timeout,
    /// A resource budget (memory, nodes, ...) was exhausted before a plan
    /// was found.
    ResourceLimit(String),
    /// The query cannot be optimized (empty, unknown tables, ...).
    InvalidQuery(String),
    /// The backend's configuration is inconsistent (independent of the
    /// query, e.g. an encoder extension without its prerequisite).
    InvalidConfig(String),
    /// A backend-internal failure (solver bug surface).
    Backend(String),
}

impl std::fmt::Display for OrderingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OrderingError::Timeout => write!(f, "no plan found within the time limit"),
            OrderingError::ResourceLimit(m) => write!(f, "resource limit exhausted: {m}"),
            OrderingError::InvalidQuery(m) => write!(f, "invalid query: {m}"),
            OrderingError::InvalidConfig(m) => write!(f, "invalid configuration: {m}"),
            OrderingError::Backend(m) => write!(f, "backend failure: {m}"),
        }
    }
}

impl std::error::Error for OrderingError {}

/// A query that fails validation is [`OrderingError::InvalidQuery`].
impl From<QueryError> for OrderingError {
    fn from(e: QueryError) -> Self {
        OrderingError::InvalidQuery(e.to_string())
    }
}

/// A join ordering backend: anything that maps a (catalog, query) pair to a
/// costed left-deep plan under shared runtime limits.
///
/// Backends are `Send + Sync`: every implementation in the workspace is an
/// immutable configuration whose per-solve scratch lives on the call stack
/// (`order` takes `&self`), so one backend may be shared across threads and
/// `Box<dyn JoinOrderer>` values may move between them. The service's
/// worker pool ([`crate::service::QueryService`]) relies on this: every
/// worker answers through one shared instance. A backend needing
/// per-solve mutable state must keep it in a per-call context, not in
/// `self`.
pub trait JoinOrderer: Send + Sync {
    /// Short human-readable backend name (`"milp"`, `"dp"`, `"greedy"`,
    /// `"hybrid"`, ...).
    fn name(&self) -> &'static str;

    /// The exact cost model this backend is configured to optimize — the
    /// space in which [`OrderingOutcome::cost`] and the [`CostTrace`] are
    /// expressed. Services layered on top (the plan cache in
    /// `crate::session`) use this to cost reused plans without re-running
    /// the backend.
    fn cost_model(&self) -> (CostModelKind, CostParams);

    /// Produces a plan for `query` within the limits of `options`.
    fn order(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
    ) -> Result<OrderingOutcome, OrderingError>;
}

// Compile-time audit of the concurrency story: everything a worker thread
// touches — the shared catalog, per-query outcomes (plans, traces), options,
// errors, and boxed backends — is `Send + Sync`. A regression
// (say, an `Rc` slipping into a trace) fails compilation here, not at a
// distant service call site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Catalog>();
    assert_send_sync::<crate::plan::LeftDeepPlan>();
    assert_send_sync::<crate::query::Query>();
    assert_send_sync::<crate::fingerprint::FingerprintedQuery>();
    assert_send_sync::<OrderingOptions>();
    assert_send_sync::<OrderingOutcome>();
    assert_send_sync::<OrderingError>();
    assert_send_sync::<CostTrace>();
    assert_send_sync::<Box<dyn JoinOrderer>>();
    assert_send_sync::<crate::router::RouteDecision>();
    assert_send_sync::<crate::router::RouterOptimizer>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cost_state_at_before_first_point_is_none() {
        let mut trace = CostTrace::default();
        assert!(trace.state_at(Duration::from_secs(10)).is_none());
        trace.push(CostTracePoint {
            elapsed: Duration::from_millis(500),
            incumbent: Some(10.0),
            bound: Some(2.0),
        });
        assert!(trace.state_at(Duration::from_millis(499)).is_none());
        assert!(trace.state_at(Duration::from_millis(500)).is_some());
    }

    #[test]
    fn guaranteed_factor_requires_positive_bound() {
        let mut trace = CostTrace::default();
        trace.push(CostTracePoint {
            elapsed: Duration::ZERO,
            incumbent: Some(10.0),
            bound: None,
        });
        trace.push(CostTracePoint {
            elapsed: Duration::from_secs(1),
            incumbent: Some(10.0),
            bound: Some(-3.0),
        });
        assert_eq!(trace.guaranteed_factor_at(Duration::from_secs(2)), None);
        trace.push(CostTracePoint {
            elapsed: Duration::from_secs(3),
            incumbent: Some(10.0),
            bound: Some(5.0),
        });
        assert_eq!(
            trace.guaranteed_factor_at(Duration::from_secs(3)),
            Some(2.0)
        );
    }

    #[test]
    fn factor_is_clamped_to_one() {
        let trace = CostTrace::single(Duration::ZERO, 4.0, Some(5.0));
        assert_eq!(trace.guaranteed_factor_at(Duration::ZERO), Some(1.0));
    }

    #[test]
    fn zero_cost_incumbent_is_trivially_optimal() {
        // Exact costs are non-negative: a zero-cost plan is the global
        // minimum whatever the bound says (even None or 0.0 — no positive
        // bound can exist below cost zero).
        for bound in [None, Some(0.0), Some(-1.0)] {
            let trace = CostTrace::single(Duration::ZERO, 0.0, bound);
            assert_eq!(trace.guaranteed_factor_at(Duration::ZERO), Some(1.0));
        }
        let outcome = OrderingOutcome {
            plan: LeftDeepPlan::from_order(vec![]),
            cost: 0.0,
            objective: 0.0,
            bound: Some(0.0),
            proven_optimal: true,
            trace: CostTrace::default(),
            elapsed: Duration::ZERO,
            search: SearchStats::default(),
            route: None,
        };
        assert_eq!(outcome.guaranteed_factor(), Some(1.0));
        // The shared rule, as the MILP-space factor applies it.
        for bound in [None, Some(0.0), Some(f64::NEG_INFINITY)] {
            assert_eq!(guaranteed_factor(0.0, bound), Some(1.0));
        }
        assert_eq!(guaranteed_factor(3.0, Some(f64::NEG_INFINITY)), None);
    }

    #[test]
    fn factor_without_incumbent_is_none() {
        let mut trace = CostTrace::default();
        trace.push(CostTracePoint {
            elapsed: Duration::ZERO,
            incumbent: None,
            bound: Some(5.0),
        });
        assert_eq!(trace.guaranteed_factor_at(Duration::ZERO), None);
    }

    #[test]
    fn single_point_trace() {
        let trace = CostTrace::single(Duration::from_millis(3), 7.0, None);
        assert_eq!(trace.points().len(), 1);
        assert_eq!(trace.points()[0].incumbent, Some(7.0));
        assert!(trace.points()[0].bound.is_none());
    }

    #[test]
    fn outcome_factor_is_cost_over_cost_space_bound() {
        let outcome = OrderingOutcome {
            plan: LeftDeepPlan::from_order(vec![]),
            cost: 10.0,
            objective: 8.0, // backend space, not used for the guarantee
            bound: Some(4.0),
            proven_optimal: false,
            trace: CostTrace::default(),
            elapsed: Duration::ZERO,
            search: SearchStats::default(),
            route: None,
        };
        assert_eq!(outcome.guaranteed_factor(), Some(2.5));
        let unbounded = OrderingOutcome {
            bound: None,
            ..outcome
        };
        assert_eq!(unbounded.guaranteed_factor(), None);
    }
}
