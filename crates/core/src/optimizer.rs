//! High-level anytime optimizer: encode → solve → decode → cost.
//!
//! [`MilpOptimizer::optimize`] runs the full pipeline of the paper: the
//! query is transformed into a MILP, handed to the branch-and-bound solver,
//! and every incumbent / bound improvement is recorded — the data behind
//! the paper's Figure 2, where algorithms are compared by the *guaranteed
//! optimality factor* (incumbent cost / lower bound) they can prove at
//! each point in time. It takes the [`OrderingOptions`] every
//! [`JoinOrderer`] takes, plus an optional warm-start plan (the hybrid
//! passes its greedy plan there).
//!
//! Two traces are kept per solve:
//!
//! * the MILP-native [`AnytimeTrace`] (`trace`): incumbents and dual
//!   bounds in the MILP's approximate objective space — the raw search
//!   record;
//! * the cost-space [`CostTrace`] (`cost_trace`): each MILP incumbent is
//!   **decoded once at trace-point creation** and projected through
//!   `plan_cost` (projections cached per decoded plan), and the dual bound
//!   is projected by [`cost_space_bound`], so incumbents are *exact* plan
//!   costs and `guaranteed_factor_at` means the same thing as for the DP
//!   and greedy backends.
//!
//! ## The exact-cost argmin guarantee
//!
//! The MILP searches an *approximate* objective space: a MILP-space
//! improvement can decode to a plan whose *exact* cost is worse than an
//! incumbent decoded earlier (the threshold window collapses nearby costs
//! into ties). Since every incumbent is decoded and exactly costed at
//! trace-point creation anyway, the pipeline keeps a running **exact-cost
//! argmin** over all decoded incumbents and returns that plan — the best
//! plan ever decoded, at zero extra solve cost. Consequences:
//!
//! * cost-space trace incumbents are the running argmin, so they are
//!   **monotone non-increasing** — the plan the optimizer would hand back
//!   if stopped at that moment;
//! * when the argmin is not the final MILP incumbent
//!   ([`OptimizeOutcome::argmin_swapped`]), the MILP-space certificates
//!   (`status` / `milp_objective` / `milp_bound`) keep describing the
//!   search, not the returned plan: the [`JoinOrderer::order`] projection
//!   then reports `proven_optimal: false` (exactly like the hybrid's
//!   seed-swap path) while keeping the cost-space `bound`, which holds for
//!   every plan — the argmin included.
//!
//! ## Cost-space bound projection
//!
//! [`bound_projection`] computes the per-query [`CostSpaceProjection`]
//! that turns a MILP dual bound into a cost-space lower bound valid for
//! every plan; [`cost_space_bound`] applies it. Under the default
//! lower-bounding approximation the projection is the identity; under
//! [`ApproxMode::UpperBound`] it divides by a per-model factor after
//! subtracting the **window-floor inflation** (see the function docs for
//! the derivation).

use std::time::Duration;

use milpjoin_milp::branch_bound::SolverEvent;
use milpjoin_milp::{SolveStatus, Solver, SolverOptions};
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::orderer::{
    CostTrace, CostTracePoint, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
    SearchStats,
};
use milpjoin_qopt::{Catalog, CostModelKind, CostParams, LeftDeepPlan, Query};

use crate::config::EncoderConfig;
use crate::decode::{decode, DecodedPlan};
use crate::encode::{encode, warm_start_assignment, EncodeError, Encoding};
use crate::stats::FormulationStats;
use crate::thresholds::{ApproxMode, CostSpaceProjection, ThresholdGrid};

// The anytime trace is backend-agnostic and lives with the `JoinOrderer`
// trait; re-exported here for source compatibility.
pub use milpjoin_qopt::orderer::{AnytimeTrace, TracePoint};

/// Computes the per-query [`CostSpaceProjection`] that turns a MILP dual
/// bound into a cost-space lower bound valid for **every** plan, or `None`
/// when no sound projection exists for the configuration.
///
/// Under the default [`ApproxMode::LowerBound`], every approximate
/// cardinality under-estimates the true one (thresholds snap down, the
/// window floor is zero, saturation caps at the top threshold) and every
/// cost formula is monotone in those cardinalities, so the MILP objective
/// of *any* plan under-estimates its exact cost — the projection is the
/// identity.
///
/// Under [`ApproxMode::UpperBound`], every outer-operand level satisfies
/// `level <= max(F·c, θ_0) <= F·c + θ_0` where `c` is the exact operand
/// cardinality, `F` the tolerance factor and `θ_0` the window floor
/// ([`ThresholdGrid::upper_level_bound`]). Naively dividing the dual bound
/// by `F` would be unsound: operands *below* the floor approximate to θ_0
/// — an over-estimate with no bounded multiplicative factor — so a query
/// whose optimum lives below the floor could be handed a false
/// certificate. Instead, the additive floor term is accounted per
/// objective term and subtracted before dividing. Per cost model (`po`/`pi`
/// = exact outer/inner pages, `φ = θ_0·tupleBytes/pageBytes + 1` the
/// per-join outer-page inflation, covering both page modes' ceilings):
///
/// * **C_out** — terms `co_j <= F·c_j + θ_0`: divisor `F`, inflation `θ_0`
///   per counted intermediate (`num_joins - 1` terms);
/// * **hash** — `3(pgo + pgi) <= F·3(po + pi) + 3φ`: divisor `F`,
///   inflation `3φ` per join;
/// * **sort-merge** — the log-linear term is super-linear, so a constant
///   extra factor is paid: with `Lmax = ⌈log2 pages(θ_top)⌉` the largest
///   log factor any representable level reaches,
///   `2·plpo + 2·plpi + pgo + pgi <= F(2Lmax+1)·exact + (2Lmax+1)·φ`:
///   divisor `F·(2Lmax+1)`, inflation `(2Lmax+1)·φ` per join;
/// * **block-nested-loop** — `(pgo/B)·pgi <= F·exact + (φ/B)·max_t pgi_t`:
///   divisor `F`, inflation `(φ/B)·max_t pages(t)` per join;
/// * **operator selection** — the MILP may pick any enabled operator per
///   join: the weakest divisor and largest per-join inflation across the
///   enabled set apply;
/// * **expensive predicates** — each scheduled predicate pays
///   `evalCost·co` at one join: `evalCost·θ_0` added once per predicate.
///
/// Byte-based projection pages (`projection` with the hash model) change
/// the objective's *units* — carried-column bytes versus the exact model's
/// fixed tuple width — so no sound projection exists in either mode and
/// `None` is returned (the previous identity claim under `LowerBound` was
/// unsound there).
pub fn bound_projection(
    config: &EncoderConfig,
    catalog: &Catalog,
    query: &Query,
    grid: &ThresholdGrid,
) -> Option<CostSpaceProjection> {
    use milpjoin_qopt::CostModelKind;

    if config.projection && config.cost_model == CostModelKind::Hash {
        return None;
    }
    match config.approx_mode {
        ApproxMode::LowerBound => Some(CostSpaceProjection::identity()),
        ApproxMode::UpperBound => {
            let f = config.precision.tolerance_factor();
            let params = &config.cost_params;
            let num_joins = query.num_tables().saturating_sub(1);
            let floor = grid.floor_value();
            // φ: pgo_milp <= F·po + φ in both page modes (ratio mode needs
            // no ceiling slack; threshold mode's ⌈·⌉ adds at most 1 page).
            let page_inflation = floor * params.tuple_bytes / params.page_bytes + 1.0;
            let lmax = params.pages(grid.top_value()).log2().ceil().max(1.0);
            let sm_factor = 2.0 * lmax + 1.0;
            // Raw catalog cardinalities upper-bound the effective (unary
            // predicates folded) inner-operand pages.
            let max_inner_pages = query
                .tables
                .iter()
                .map(|&t| params.pages(catalog.cardinality(t)))
                .fold(1.0, f64::max);

            let per_model = |model: CostModelKind| -> (f64, f64) {
                match model {
                    CostModelKind::Cout => (f, floor),
                    CostModelKind::Hash => (f, 3.0 * page_inflation),
                    CostModelKind::SortMerge => (f * sm_factor, sm_factor * page_inflation),
                    CostModelKind::BlockNestedLoop => {
                        (f, page_inflation / params.buffer_pages * max_inner_pages)
                    }
                }
            };
            let operator_selection =
                config.operator_selection && config.cost_model != CostModelKind::Cout;
            let (divisor, per_join) = if operator_selection {
                // Enabled set is hash + sort-merge + BNL (+ the sorted-outer
                // sort-merge variant, dominated by plain sort-merge).
                [
                    CostModelKind::Hash,
                    CostModelKind::SortMerge,
                    CostModelKind::BlockNestedLoop,
                ]
                .into_iter()
                .map(per_model)
                .fold((1.0f64, 0.0f64), |(d, i), (dm, im)| (d.max(dm), i.max(im)))
            } else {
                per_model(config.cost_model)
            };
            let terms = if config.cost_model == CostModelKind::Cout && !operator_selection {
                // Σ_{j >= 1} co_j: only intermediates are counted.
                num_joins.saturating_sub(1)
            } else {
                num_joins
            };
            // Scheduled expensive predicates: evalCost·θ_0 each.
            let pred_inflation: f64 = query
                .predicates
                .iter()
                .filter(|p| p.tables.len() >= 2 && p.eval_cost_per_tuple > 0.0)
                .map(|p| p.eval_cost_per_tuple * floor)
                .sum();
            Some(CostSpaceProjection {
                divisor,
                inflation: per_join * terms as f64 + pred_inflation,
            })
        }
    }
}

/// Projects a MILP-space dual bound into exact-cost space through the
/// per-query projection of [`bound_projection`]: `None` when no sound
/// projection exists for the configuration or the search proved nothing.
/// The projected value is a lower bound on the exact cost of *every* plan
/// (it may be non-positive, in which case it proves nothing beyond the
/// trivial `cost >= 0`).
pub fn cost_space_bound(projection: Option<&CostSpaceProjection>, milp_bound: f64) -> Option<f64> {
    projection.and_then(|p| p.project(milp_bound))
}

/// Everything the optimizer returns for one query.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The returned plan: the **exact-cost argmin** over every decoded
    /// incumbent (with operators when operator selection was on).
    pub plan: LeftDeepPlan,
    /// Full decoded information (predicate schedule, ...).
    pub decoded: DecodedPlan,
    pub status: SolveStatus,
    /// Objective of the best incumbent in the MILP's (approximate) cost
    /// space.
    pub milp_objective: f64,
    /// Final lower bound in the MILP's cost space.
    pub milp_bound: f64,
    /// [`cost_space_bound`] projection of `milp_bound`: a lower bound, in
    /// exact cost space, on the cost of *every* plan. `None` when the
    /// search proved nothing.
    pub cost_bound: Option<f64>,
    /// Exact cost of the returned plan under the configured cost model.
    pub true_cost: f64,
    /// Whether the returned plan is an *earlier* decoded incumbent whose
    /// exact cost beats the final MILP incumbent (possible because the
    /// threshold-window approximation can rank plans differently from the
    /// exact cost model). When set, `status` / `milp_objective` /
    /// `milp_bound` keep describing the MILP *search* — still a valid
    /// record of what was proven in MILP space, but not a certificate for
    /// the returned plan; the [`JoinOrderer::order`] projection reports
    /// `proven_optimal: false` accordingly while keeping the global
    /// cost-space `bound`.
    pub argmin_swapped: bool,
    /// MILP-space search record.
    pub trace: AnytimeTrace,
    /// Cost-space trace: exact costs of the decoded incumbents plus the
    /// projected bound (see the module docs).
    pub cost_trace: CostTrace,
    pub stats: FormulationStats,
    pub solve_time: Duration,
    /// Search counters (nodes expanded, LP iterations, workers used,
    /// speculative work), mapped from the solver's own record.
    pub search: SearchStats,
}

impl OptimizeOutcome {
    /// Final guaranteed optimality factor `objective / bound` in MILP
    /// space, at least 1; `None` without a positive bound. A zero objective
    /// is trivially optimal in the non-negative MILP cost space and yields
    /// `Some(1.0)`, as [`AnytimeTrace::guaranteed_factor_at`] rules.
    pub fn optimality_factor(&self) -> Option<f64> {
        if self.milp_objective == 0.0 {
            Some(1.0)
        } else if self.milp_bound > 0.0 {
            Some((self.milp_objective / self.milp_bound).max(1.0))
        } else {
            None
        }
    }
}

/// Optimization failures.
#[derive(Debug)]
pub enum OptimizeError {
    Encode(EncodeError),
    /// The solver proved infeasibility — impossible for a well-formed
    /// encoding and therefore a bug surface, reported loudly.
    Infeasible,
    /// No incumbent was found within the limits. `stop` records which
    /// budget actually cut the search short (solver-reported, not guessed
    /// from the configured options), so callers can tell a deterministic
    /// node-budget stop from a wall-clock deadline.
    NoPlanFound {
        status: SolveStatus,
        stop: milpjoin_milp::StopReason,
    },
    Solver(String),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Encode(e) => write!(f, "{e}"),
            OptimizeError::Infeasible => {
                write!(f, "encoding is infeasible (this indicates a bug)")
            }
            OptimizeError::NoPlanFound { status, stop } => {
                write!(
                    f,
                    "no plan found within limits (solver status: {status}; stopped on: {stop})"
                )
            }
            OptimizeError::Solver(e) => write!(f, "solver error: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<EncodeError> for OptimizeError {
    fn from(e: EncodeError) -> Self {
        OptimizeError::Encode(e)
    }
}

/// The smallest relative gap the optimizer will target. A request below
/// this value (including the default `0.0`) is clamped up to it: the
/// floating-point simplex cannot certify gaps tighter than its own
/// tolerances, so "0" operationally means "proven optimal within numerical
/// tolerance" — which is also how [`SolveStatus::Optimal`] is reported.
pub const MIN_RELATIVE_GAP: f64 = 1e-6;

/// The MILP-based join order optimizer (the paper's system).
///
/// ```
/// use milpjoin::{MilpOptimizer, OrderingOptions};
/// use milpjoin_qopt::{Catalog, Query, Predicate};
///
/// let mut catalog = Catalog::new();
/// let r = catalog.add_table("R", 10.0);
/// let s = catalog.add_table("S", 1000.0);
/// let t = catalog.add_table("T", 100.0);
/// let mut query = Query::new(vec![r, s, t]);
/// query.add_predicate(Predicate::binary(r, s, 0.1));
///
/// let outcome = MilpOptimizer::with_defaults()
///     .optimize(&catalog, &query, &OrderingOptions::default(), None)
///     .unwrap();
/// outcome.plan.validate(&query).unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct MilpOptimizer {
    config: EncoderConfig,
}

impl MilpOptimizer {
    pub fn new(config: EncoderConfig) -> Self {
        MilpOptimizer { config }
    }

    pub fn with_defaults() -> Self {
        Self::default()
    }

    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Builds the MILP without solving (for formulation-size experiments).
    pub fn encode_only(&self, catalog: &Catalog, query: &Query) -> Result<Encoding, EncodeError> {
        encode(catalog, query, &self.config)
    }

    /// Runs the full optimize pipeline under `options`:
    ///
    /// * `time_limit` and `deterministic_budget` become the solver's
    ///   wall-clock and node budgets (node metering is invariant under CPU
    ///   contention, which is the point of the deterministic form);
    /// * `relative_gap` is clamped up to [`MIN_RELATIVE_GAP`], so the
    ///   default `0.0` requests proven optimality within numerical
    ///   tolerance;
    /// * `solver_threads` sets the workers of the one branch-and-bound
    ///   search, `0` counting as `1`.
    ///
    /// `seed` is an optional warm start: a feasible plan (typically from a
    /// heuristic) installed as the root incumbent before branch and bound
    /// starts. The anytime trace then opens with it at t ≈ 0, and every
    /// worker prunes against it from its first node. A seed that is not a
    /// plan for `query` is a caller bug, reported as an error.
    pub fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
        seed: Option<&LeftDeepPlan>,
    ) -> Result<OptimizeOutcome, OptimizeError> {
        // Single-table queries need no joins and no MILP.
        if query.num_tables() == 1 {
            query.validate(catalog).map_err(EncodeError::Query)?;
            let plan = LeftDeepPlan::from_order(query.tables.clone());
            return Ok(OptimizeOutcome {
                decoded: DecodedPlan::for_plan(query, plan.clone()),
                plan,
                status: SolveStatus::Optimal,
                milp_objective: 0.0,
                milp_bound: 0.0,
                cost_bound: Some(0.0),
                true_cost: 0.0,
                argmin_swapped: false,
                trace: AnytimeTrace::default(),
                cost_trace: CostTrace::default(),
                stats: FormulationStats::default(),
                solve_time: Duration::ZERO,
                search: SearchStats::default(),
            });
        }

        let encoding = encode(catalog, query, &self.config)?;

        // A warm-start plan becomes integer-variable hints for the solver;
        // an invalid plan is a caller bug, reported loudly.
        let initial_solution = seed
            .map(|plan| {
                warm_start_assignment(&encoding, catalog, query, plan)
                    .map_err(|e| OptimizeError::Solver(format!("invalid initial plan: {e}")))
            })
            .transpose()?;

        let solver_options = SolverOptions {
            time_limit: options.time_limit,
            relative_gap: options.relative_gap.max(MIN_RELATIVE_GAP),
            node_limit: options.deterministic_budget,
            // `0` (the `Default`) counts as one worker.
            threads: options.solver_threads.max(1),
            initial_solution,
        };

        // Per-query dual-bound projection into exact cost space.
        let projection = bound_projection(&self.config, catalog, query, &encoding.grid);

        let mut trace = AnytimeTrace::default();
        let mut cost_trace = CostTrace::default();
        // Exact-cost projections of decoded incumbents, keyed by the
        // decoded plan: each incumbent is decoded once, and a re-visited
        // plan (e.g. two MILP solutions differing only in threshold
        // variables) reuses its cached projection. `best` indexes the
        // running exact-cost argmin — the plan the pipeline will return.
        let mut projections: Vec<(DecodedPlan, f64)> = Vec::new();
        let mut best: Option<usize> = None;
        let mut last_incumbent: Option<f64> = None;
        let mut last_bound = f64::NEG_INFINITY;
        let result = Solver::new(solver_options)
            .solve_with_callback(&encoding.model, |ev| match ev {
                SolverEvent::Incumbent(inc) => {
                    last_incumbent = Some(inc.objective);
                    last_bound = last_bound.max(inc.bound);
                    trace.push(TracePoint {
                        elapsed: inc.elapsed,
                        incumbent: last_incumbent,
                        bound: last_bound,
                    });
                    // Cost-space projection: decode the incumbent and cost
                    // it exactly. A decode failure is a solver-bug surface;
                    // the final decode after the solve reports it loudly,
                    // so here the point is simply skipped.
                    if let Ok(d) = decode(&encoding, query, &inc.solution) {
                        let idx = match projections.iter().position(|(p, _)| p.plan == d.plan) {
                            Some(i) => i,
                            None => {
                                let c = plan_cost(
                                    catalog,
                                    query,
                                    &d.plan,
                                    self.config.cost_model,
                                    &self.config.cost_params,
                                )
                                .total;
                                projections.push((d, c));
                                projections.len() - 1
                            }
                        };
                        // Strict improvement keeps the earliest argmin on
                        // ties (deterministic).
                        if best.is_none_or(|b| projections[idx].1 < projections[b].1) {
                            best = Some(idx);
                        }
                        // Trace incumbents are the running argmin: the
                        // exact cost of the plan that would be returned if
                        // the solve stopped here — monotone by
                        // construction.
                        cost_trace.push(CostTracePoint {
                            elapsed: inc.elapsed,
                            incumbent: best.map(|b| projections[b].1),
                            bound: cost_space_bound(projection.as_ref(), last_bound),
                        });
                    }
                }
                SolverEvent::BoundImproved { elapsed, bound, .. } => {
                    last_bound = last_bound.max(*bound);
                    trace.push(TracePoint {
                        elapsed: *elapsed,
                        incumbent: last_incumbent,
                        bound: last_bound,
                    });
                    cost_trace.push(CostTracePoint {
                        elapsed: *elapsed,
                        incumbent: best.map(|b| projections[b].1),
                        bound: cost_space_bound(projection.as_ref(), last_bound),
                    });
                }
            })
            .map_err(|e| OptimizeError::Solver(e.to_string()))?;

        match result.status {
            SolveStatus::Infeasible => return Err(OptimizeError::Infeasible),
            s if !s.has_solution() => {
                return Err(OptimizeError::NoPlanFound {
                    status: s,
                    stop: result.stop,
                });
            }
            _ => {}
        }

        // audit-allow(no-panic): the status match above returns early for
        // every status without a solution.
        let solution = result.solution.as_ref().expect("has_solution checked");
        let mut decoded = decode(&encoding, query, solution)
            .map_err(|e| OptimizeError::Solver(format!("decode failed: {e}")))?;
        // The final solution is the last incumbent: reuse its cached
        // projection instead of re-costing.
        let mut true_cost = match projections.iter().find(|(p, _)| p.plan == decoded.plan) {
            Some(&(_, c)) => c,
            None => {
                plan_cost(
                    catalog,
                    query,
                    &decoded.plan,
                    self.config.cost_model,
                    &self.config.cost_params,
                )
                .total
            }
        };

        // Exact-cost argmin: never return a plan exactly-worse than an
        // incumbent that was already decoded and costed (the MILP-space
        // objective and `plan_cost` can disagree under the threshold-window
        // approximation). A final trace point makes the trace tail describe
        // the returned plan at termination time.
        let final_bound = cost_space_bound(projection.as_ref(), result.bound);
        let argmin_swapped = match best {
            Some(b) if projections[b].1 < true_cost => {
                decoded = projections[b].0.clone();
                true_cost = projections[b].1;
                cost_trace.push(CostTracePoint {
                    elapsed: result.solve_time,
                    incumbent: Some(true_cost),
                    bound: final_bound,
                });
                true
            }
            _ => false,
        };

        Ok(OptimizeOutcome {
            plan: decoded.plan.clone(),
            decoded,
            status: result.status,
            // audit-allow(no-panic): guarded by the same has_solution early
            // return as the solution access above.
            milp_objective: result.objective.expect("has solution"),
            milp_bound: result.bound,
            cost_bound: final_bound,
            true_cost,
            argmin_swapped,
            trace,
            cost_trace,
            stats: encoding.stats,
            solve_time: result.solve_time,
            // Map the solver-native stats struct onto the backend-agnostic
            // one (qopt cannot depend on the milp crate).
            search: SearchStats {
                nodes_expanded: result.search.nodes_expanded,
                workers_used: result.search.workers_used,
                speculative_nodes: result.search.speculative_nodes,
                root_lp_iterations: result.search.root_lp_iterations,
                total_lp_iterations: result.search.total_lp_iterations,
            },
        })
    }
}

impl OptimizeOutcome {
    /// Projects the MILP-specific outcome onto the backend-agnostic shape:
    /// exact cost, cost-space bound ([`cost_space_bound`]; a -inf MILP
    /// bound means the search proved nothing and projects to `None`), and
    /// the cost-space trace.
    ///
    /// When the exact-cost argmin replaced the final MILP incumbent
    /// ([`Self::argmin_swapped`]), the MILP-space certificate belongs to
    /// the discarded plan: the returned plan is reported like the hybrid's
    /// seed-swap path — exact cost as the objective, `proven_optimal:
    /// false` — while the cost-space `bound` is kept (it holds for every
    /// plan, the argmin included).
    pub fn into_ordering_outcome(self) -> OrderingOutcome {
        let objective = if self.argmin_swapped {
            self.true_cost
        } else {
            self.milp_objective
        };
        OrderingOutcome {
            plan: self.plan,
            cost: self.true_cost,
            objective,
            bound: self.cost_bound,
            proven_optimal: self.status == SolveStatus::Optimal && !self.argmin_swapped,
            trace: self.cost_trace,
            elapsed: self.solve_time,
            search: self.search,
            route: None,
        }
    }
}

/// Maps MILP failures onto the unified error shape. `NoPlanFound` is
/// classified by the solver-reported stop reason (no longer guessed from
/// the configured options): a wall-clock deadline is a [`OrderingError::Timeout`],
/// a node-budget stop — including the deterministic budget, which rides on
/// node metering — is a [`OrderingError::ResourceLimit`].
pub(crate) fn ordering_error(e: OptimizeError) -> OrderingError {
    use milpjoin_milp::StopReason;
    match e {
        OptimizeError::Encode(EncodeError::Query(q)) => OrderingError::InvalidQuery(q.to_string()),
        OptimizeError::Encode(EncodeError::Config(c)) => {
            OrderingError::InvalidConfig(c.to_string())
        }
        OptimizeError::Encode(e) => OrderingError::InvalidQuery(e.to_string()),
        OptimizeError::NoPlanFound { status, stop } => match status {
            // A correctly-built encoding is bounded below; an unbounded
            // verdict is a solver/encoder bug, not a budget problem.
            SolveStatus::Unbounded => OrderingError::Backend(format!(
                "solver reported an unbounded encoding (status: {status})"
            )),
            _ => match stop {
                StopReason::TimeLimit => OrderingError::Timeout,
                StopReason::NodeLimit => OrderingError::ResourceLimit(
                    "node budget exhausted before any plan was found (deterministic stop)"
                        .to_string(),
                ),
                // `Finished`/`Stalled` without a solution: numerically
                // parked subtrees (or a status/stop mismatch) — a neutral
                // resource-limit report either way.
                StopReason::Finished | StopReason::Stalled => {
                    OrderingError::ResourceLimit(format!(
                        "no plan found within the configured limits (solver status: {status}; \
                     stopped on: {stop})"
                    ))
                }
            },
        },
        OptimizeError::Infeasible => OrderingError::Backend("encoding is infeasible (bug)".into()),
        OptimizeError::Solver(m) => OrderingError::Backend(m),
    }
}

// Concurrency audit: the optimizer is an immutable configuration; all
// per-solve scratch (encoding, traces, the incumbent projection cache, the
// branch-and-bound search) lives on the `optimize` call stack. One instance
// may therefore serve many worker threads, and the `OrdererFactory`
// blanket impl (`Clone` backends) that `QueryService` builds workers from
// applies.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MilpOptimizer>();
    assert_send_sync::<OptimizeOutcome>();
    assert_send_sync::<OptimizeError>();
};

impl JoinOrderer for MilpOptimizer {
    fn name(&self) -> &'static str {
        "milp"
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
        let outcome = self
            .optimize(catalog, query, options, None)
            .map_err(ordering_error)?;
        Ok(outcome.into_ordering_outcome())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_table_fast_path() {
        let mut catalog = Catalog::new();
        let r = catalog.add_table("R", 42.0);
        let query = Query::new(vec![r]);
        let out = MilpOptimizer::with_defaults()
            .optimize(&catalog, &query, &OrderingOptions::default(), None)
            .unwrap();
        // No joins: zero-cost plan over the single table, no MILP built.
        assert_eq!(out.plan.order, vec![r]);
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.true_cost, 0.0);
        assert_eq!(out.milp_objective, 0.0);
        assert_eq!(out.search.nodes_expanded, 0);
        assert_eq!(out.search.total_lp_iterations, 0);
        assert!(out.trace.is_empty());
        assert_eq!(out.stats.num_vars(), 0);
        // The empty trace has no state to report, at any time.
        assert!(out.trace.state_at(Duration::from_secs(3600)).is_none());
        assert!(out.trace.guaranteed_factor_at(Duration::ZERO).is_none());
    }

    #[test]
    fn single_table_fast_path_validates_the_query() {
        let catalog = Catalog::new(); // `r` missing from this catalog
        let mut other = Catalog::new();
        let r = other.add_table("R", 42.0);
        let query = Query::new(vec![r]);
        let err = MilpOptimizer::with_defaults()
            .optimize(&catalog, &query, &OrderingOptions::default(), None)
            .unwrap_err();
        assert!(matches!(err, OptimizeError::Encode(_)));
    }

    fn paper_example() -> (Catalog, Query) {
        let mut catalog = Catalog::new();
        let r = catalog.add_table("R", 10.0);
        let s = catalog.add_table("S", 1000.0);
        let t = catalog.add_table("T", 100.0);
        let mut query = Query::new(vec![r, s, t]);
        query.add_predicate(milpjoin_qopt::Predicate::binary(r, s, 0.1));
        (catalog, query)
    }

    #[test]
    fn cost_space_bound_projection_modes() {
        use crate::thresholds::Precision;
        let (catalog, query) = paper_example();
        let lower = EncoderConfig::default();
        let grid = ThresholdGrid::build(
            Precision::Medium,
            query.num_tables(),
            0.0,
            6.0,
            ApproxMode::LowerBound,
        );
        // LowerBound approximations under-estimate cost: the MILP dual
        // bound passes through unchanged. A -inf bound (nothing proven)
        // projects to None.
        let p = bound_projection(&lower, &catalog, &query, &grid).unwrap();
        assert_eq!(p, CostSpaceProjection::identity());
        assert_eq!(cost_space_bound(Some(&p), 42.0), Some(42.0));
        assert_eq!(cost_space_bound(Some(&p), f64::NEG_INFINITY), None);
        assert_eq!(cost_space_bound(None, 42.0), None);

        // UpperBound approximations over-estimate: the projection divides
        // by the tolerance factor after subtracting the window-floor
        // inflation ((num_joins - 1) floor terms under C_out).
        let upper = EncoderConfig {
            approx_mode: ApproxMode::UpperBound,
            ..Default::default()
        };
        let ugrid = ThresholdGrid::build(
            Precision::Medium,
            query.num_tables(),
            0.0,
            6.0,
            ApproxMode::UpperBound,
        );
        let up = bound_projection(&upper, &catalog, &query, &ugrid).unwrap();
        assert_eq!(up.divisor, Precision::Medium.tolerance_factor());
        assert_eq!(up.inflation, ugrid.floor_value()); // one intermediate
        let projected = cost_space_bound(Some(&up), 42.0).unwrap();
        assert!((projected - (42.0 - up.inflation) / up.divisor).abs() < 1e-12);
    }

    #[test]
    fn byte_based_projection_pages_claim_no_bound() {
        use milpjoin_qopt::CostModelKind;
        let (catalog, query) = paper_example();
        let grid = ThresholdGrid::build(
            crate::thresholds::Precision::Medium,
            query.num_tables(),
            0.0,
            6.0,
            ApproxMode::LowerBound,
        );
        // Hash + projection prices pages from carried-column bytes — a
        // different unit from the exact model's fixed tuple width — so no
        // sound projection exists in either approximation mode.
        let mut config = EncoderConfig::default().cost_model(CostModelKind::Hash);
        config.projection = true;
        assert!(bound_projection(&config, &catalog, &query, &grid).is_none());
        config.approx_mode = ApproxMode::UpperBound;
        assert!(bound_projection(&config, &catalog, &query, &grid).is_none());
        // C_out + projection keeps the cardinality-based objective: sound.
        config.cost_model = CostModelKind::Cout;
        config.approx_mode = ApproxMode::LowerBound;
        assert!(bound_projection(&config, &catalog, &query, &grid).is_some());
    }

    #[test]
    fn upper_bound_projection_per_model_accounting() {
        use milpjoin_qopt::CostModelKind;
        let (catalog, query) = paper_example();
        let grid = ThresholdGrid::build(
            crate::thresholds::Precision::Medium,
            query.num_tables(),
            0.0,
            6.0,
            ApproxMode::UpperBound,
        );
        let f = crate::thresholds::Precision::Medium.tolerance_factor();
        let base = EncoderConfig {
            approx_mode: ApproxMode::UpperBound,
            ..Default::default()
        };
        let proj = |model: CostModelKind, op_sel: bool| {
            let mut c = base.clone().cost_model(model);
            c.operator_selection = op_sel;
            bound_projection(&c, &catalog, &query, &grid).unwrap()
        };
        // Hash / BNL keep divisor F; sort-merge pays the log-linear factor.
        assert_eq!(proj(CostModelKind::Hash, false).divisor, f);
        assert_eq!(proj(CostModelKind::BlockNestedLoop, false).divisor, f);
        let sm = proj(CostModelKind::SortMerge, false);
        assert!(sm.divisor > f);
        // Operator selection takes the weakest divisor across the set.
        let op = proj(CostModelKind::Hash, true);
        assert_eq!(op.divisor, sm.divisor);
        assert!(op.inflation >= proj(CostModelKind::Hash, false).inflation);
        // Every projection inflates by a positive floor correction.
        for model in [
            CostModelKind::Hash,
            CostModelKind::SortMerge,
            CostModelKind::BlockNestedLoop,
        ] {
            assert!(proj(model, false).inflation > 0.0);
        }
    }

    #[test]
    fn argmin_swap_demotes_certificates_but_keeps_the_bound() {
        // Synthetic outcome: the search proved MILP-optimality for a plan
        // that an earlier incumbent beats in exact cost. The projection
        // must report the argmin like the hybrid's seed-swap path does.
        let (catalog, query) = paper_example();
        let out = MilpOptimizer::with_defaults()
            .optimize(&catalog, &query, &OrderingOptions::default(), None)
            .unwrap();
        let swapped = OptimizeOutcome {
            argmin_swapped: true,
            true_cost: out.true_cost - 1.0,
            ..out.clone()
        };
        let ordering = swapped.into_ordering_outcome();
        assert!(!ordering.proven_optimal);
        assert_eq!(ordering.objective, out.true_cost - 1.0);
        assert_eq!(ordering.bound, out.cost_bound); // global: kept
        let straight = out.clone().into_ordering_outcome();
        assert!(straight.proven_optimal);
        assert_eq!(straight.objective, out.milp_objective);
    }

    #[test]
    fn relative_gap_floor_is_applied() {
        // A request of 0.0 (the default) is documented to mean "proven
        // optimal within numerical tolerance" — i.e. the clamped floor.
        assert!(
            OrderingOptions::default()
                .relative_gap
                .max(MIN_RELATIVE_GAP)
                == MIN_RELATIVE_GAP
        );
        let mut catalog = Catalog::new();
        let r = catalog.add_table("R", 10.0);
        let s = catalog.add_table("S", 1000.0);
        let t = catalog.add_table("T", 100.0);
        let mut query = Query::new(vec![r, s, t]);
        query.add_predicate(milpjoin_qopt::Predicate::binary(r, s, 0.1));
        let out = MilpOptimizer::with_defaults()
            .optimize(
                &catalog,
                &query,
                &OrderingOptions {
                    relative_gap: 0.0,
                    ..Default::default()
                },
                None,
            )
            .unwrap();
        assert_eq!(out.status, SolveStatus::Optimal);
        // Proven optimal: the final bound matches the objective within the
        // floor's tolerance.
        assert!(
            out.milp_objective - out.milp_bound
                <= MIN_RELATIVE_GAP * out.milp_objective.abs() + 1e-9
        );
    }
}
