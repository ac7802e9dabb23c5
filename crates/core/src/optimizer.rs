//! High-level anytime optimizer: encode → solve → decode → cost.
//!
//! [`MilpOptimizer::optimize`] runs the full pipeline of the paper: the
//! query is transformed into a MILP, handed to the branch-and-bound solver,
//! and every incumbent / bound improvement is recorded — the data behind
//! the paper's Figure 2, where algorithms are compared by the *guaranteed
//! optimality factor* (incumbent cost / lower bound) they can prove at
//! each point in time. It takes the [`OrderingOptions`] every
//! [`JoinOrderer`] takes, plus an optional seed plan (the hybrid passes its
//! greedy plan there). It is the one MILP outcome path: the cold backend,
//! the hybrid and the decompose arm's fragments all end here.
//!
//! The anytime record is the cost-space [`CostTrace`] (`cost_trace`): each
//! MILP incumbent is **decoded once at trace-point creation** and projected
//! through `plan_cost` (projections cached per decoded plan), and the dual
//! bound is projected by [`cost_space_bound`], so incumbents are *exact*
//! plan costs and `guaranteed_factor_at` means the same thing as for the DP
//! and greedy backends. The final MILP-space certificate stays on the
//! outcome (`milp_objective`, `milp_bound`,
//! [`OptimizeOutcome::optimality_factor`]). Trace timestamps and
//! [`OptimizeOutcome::elapsed`] are measured from the start of the backend
//! call, so they count validation, encoding, hints, decoding and re-costing
//! as well as the solver's own `solve_time`.
//!
//! ## The exact-cost argmin guarantee
//!
//! The MILP searches an *approximate* objective space: a MILP-space
//! improvement can decode to a plan whose *exact* cost is worse than an
//! incumbent decoded earlier (the threshold window collapses nearby costs
//! into ties). Since every incumbent is decoded and exactly costed at
//! trace-point creation anyway, the pipeline keeps a running **exact-cost
//! argmin** over all decoded incumbents and returns that plan — the best
//! plan ever decoded, at zero extra solve cost. The seed, when one is
//! given, is the argmin's last candidate: it wins only on a strict
//! improvement (a tie keeps the MILP's plan), and never under operator
//! selection, since it carries no operators. So **a seeded solve never
//! returns a plan costlier than its seed**. Consequences:
//!
//! * cost-space trace incumbents are the running argmin, so they are
//!   **monotone non-increasing** — the plan the optimizer would hand back
//!   if stopped at that moment;
//! * when the argmin is not the final MILP incumbent
//!   ([`OptimizeOutcome::argmin_swapped`]), one trailing trace point at
//!   the solve time describes the returned plan, and the MILP-space
//!   certificates (`status` / `milp_objective` / `milp_bound`) keep
//!   describing the search, not the returned plan: the
//!   [`JoinOrderer::order`] projection then reports the exact cost as the
//!   objective and `proven_optimal: false`, while keeping the cost-space
//!   `bound`, which holds for every plan — the argmin included.
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

use std::time::{Duration, Instant};

use milpjoin_milp::branch_bound::SolverEvent;
use milpjoin_milp::{SolveStatus, Solver, SolverOptions, StopReason};
use milpjoin_qopt::cost::plan_cost;
use milpjoin_qopt::orderer::{
    guaranteed_factor, CostTrace, CostTracePoint, JoinOrderer, OrderingError, OrderingOptions,
    OrderingOutcome, SearchStats,
};
use milpjoin_qopt::{Catalog, CostModelKind, CostParams, LeftDeepPlan, Query};
use milpjoin_shim::time as shim_time;

use crate::config::EncoderConfig;
use crate::decode::{decode, DecodedPlan};
use crate::encode::{encode, warm_start_assignment, EncodeError, Encoding};
use crate::stats::FormulationStats;
use crate::thresholds::{ApproxMode, CostSpaceProjection, ThresholdGrid};

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
    /// incumbent and the seed (with operators when operator selection was
    /// on).
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
    /// Whether the returned plan is an *earlier* decoded incumbent or the
    /// seed, whose exact cost beats the final MILP incumbent (possible
    /// because the threshold-window approximation can rank plans
    /// differently from the exact cost model, and because the solver may
    /// reject the seed). When set, `status` / `milp_objective` /
    /// `milp_bound` keep describing the MILP *search* — still a valid
    /// record of what was proven in MILP space, but not a certificate for
    /// the returned plan; the [`JoinOrderer::order`] projection reports
    /// `proven_optimal: false` accordingly while keeping the global
    /// cost-space `bound`.
    pub argmin_swapped: bool,
    /// The anytime record: exact costs of the running argmin plus the
    /// projected bound (see the module docs). Its timestamps are measured
    /// from the start of the backend call, as `elapsed` is.
    pub cost_trace: CostTrace,
    pub stats: FormulationStats,
    /// The solver's own clock: presolve and branch and bound.
    pub solve_time: Duration,
    /// Wall-clock span of the whole backend call: validation, the seed,
    /// encoding, warm-start hints, the solve, decoding and re-costing. No
    /// cost-trace point lies after it.
    pub elapsed: Duration,
    /// Search counters (nodes expanded, LP iterations, workers used,
    /// speculative work), mapped from the solver's own record.
    pub search: SearchStats,
}

impl OptimizeOutcome {
    /// Final [`guaranteed_factor`] `objective / bound` in MILP space, at
    /// least 1; `None` without a positive bound. A zero objective is
    /// trivially optimal in the non-negative MILP cost space and yields
    /// `Some(1.0)`.
    pub fn optimality_factor(&self) -> Option<f64> {
        guaranteed_factor(self.milp_objective, Some(self.milp_bound))
    }
}

/// Classifies an encoder failure: a bad query or a bad configuration.
impl From<EncodeError> for OrderingError {
    fn from(e: EncodeError) -> Self {
        match e {
            EncodeError::Query(q) => OrderingError::InvalidQuery(q.to_string()),
            EncodeError::Config(c) => OrderingError::InvalidConfig(c.to_string()),
            EncodeError::TooFewTables(_) => OrderingError::InvalidQuery(e.to_string()),
        }
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
    /// worker prunes against it from its first node. It is also the last
    /// candidate of the exact-cost argmin (see the module docs), so
    /// without operator selection a seeded solve never returns a plan
    /// costlier than its seed. A seed that is not a plan for `query` is a
    /// caller bug, reported as [`OrderingError::Backend`].
    ///
    /// Failures are classified where they happen: encoder errors as
    /// [`OrderingError::InvalidQuery`] or [`OrderingError::InvalidConfig`];
    /// no plan by the deadline as [`OrderingError::Timeout`]; no plan
    /// within the node budget, or a search left inconclusive by stalled
    /// subtrees, as [`OrderingError::ResourceLimit`]; an infeasible or
    /// unbounded verdict (impossible for a well-formed encoding) and solver
    /// errors as [`OrderingError::Backend`].
    pub fn optimize(
        &self,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
        seed: Option<&LeftDeepPlan>,
    ) -> Result<OptimizeOutcome, OrderingError> {
        self.optimize_since(shim_time::now(), catalog, query, options, seed)
    }

    /// [`optimize`](Self::optimize) for a backend call that began at
    /// `start`: `elapsed` and the cost-trace timestamps are measured from
    /// it, so they include whatever the caller did first (the hybrid's
    /// validation and greedy seed).
    pub(crate) fn optimize_since(
        &self,
        start: Instant,
        catalog: &Catalog,
        query: &Query,
        options: &OrderingOptions,
        seed: Option<&LeftDeepPlan>,
    ) -> Result<OptimizeOutcome, OrderingError> {
        let since_start = || shim_time::now().saturating_duration_since(start);
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
                cost_trace: CostTrace::default(),
                stats: FormulationStats::default(),
                solve_time: Duration::ZERO,
                elapsed: since_start(),
                search: SearchStats::default(),
            });
        }

        let encoding = encode(catalog, query, &self.config)?;

        // A warm-start plan becomes integer-variable hints for the solver;
        // an invalid plan is a caller bug, reported loudly.
        let initial_solution = seed
            .map(|plan| {
                warm_start_assignment(&encoding, catalog, query, plan)
                    .map_err(|e| OrderingError::Backend(format!("invalid initial plan: {e}")))
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

        let mut cost_trace = CostTrace::default();
        // Exact-cost projections of decoded incumbents, keyed by the
        // decoded plan: each incumbent is decoded once, and a re-visited
        // plan (e.g. two MILP solutions differing only in threshold
        // variables) reuses its cached projection. `best` indexes the
        // running exact-cost argmin — the plan the pipeline will return.
        let mut projections: Vec<(DecodedPlan, f64)> = Vec::new();
        let mut best: Option<usize> = None;
        let mut last_bound = f64::NEG_INFINITY;
        let result = Solver::new(solver_options)
            .solve_with_callback(&encoding.model, |ev| match ev {
                SolverEvent::Incumbent(inc) => {
                    last_bound = last_bound.max(inc.bound);
                    // Cost-space projection: decode the incumbent and cost
                    // it exactly. A decode failure is a solver-bug surface;
                    // the final decode after the solve reports it loudly,
                    // so here the point is simply skipped.
                    if let Ok(d) = decode(&encoding, query, &inc.solution) {
                        let idx = match projections.iter().position(|(p, _)| p.plan == d.plan) {
                            Some(i) => i,
                            None => {
                                let c = self.exact_cost(catalog, query, &d.plan);
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
                            elapsed: since_start(),
                            incumbent: best.map(|b| projections[b].1),
                            bound: cost_space_bound(projection.as_ref(), last_bound),
                        });
                    }
                }
                SolverEvent::BoundImproved { bound, .. } => {
                    last_bound = last_bound.max(*bound);
                    cost_trace.push(CostTracePoint {
                        elapsed: since_start(),
                        incumbent: best.map(|b| projections[b].1),
                        bound: cost_space_bound(projection.as_ref(), last_bound),
                    });
                }
            })
            .map_err(|e| OrderingError::Backend(e.to_string()))?;

        match result.status {
            SolveStatus::Optimal | SolveStatus::Feasible => {}
            // A correctly-built encoding is feasible and bounded below;
            // either verdict is a solver/encoder bug, not a budget problem.
            SolveStatus::Infeasible | SolveStatus::Unbounded => {
                return Err(OrderingError::Backend(format!(
                    "solver reported the encoding {} (bug)",
                    result.status
                )));
            }
            // No plan: the solver-reported stop reason says which budget
            // cut the search short.
            SolveStatus::NoSolutionFound => {
                return Err(match result.stop {
                    StopReason::TimeLimit => OrderingError::Timeout,
                    // A node budget (the deterministic stop) or numerically
                    // parked subtrees. `Finished` never pairs with a
                    // missing plan, but is named rather than absorbed.
                    StopReason::NodeLimit | StopReason::Stalled | StopReason::Finished => {
                        OrderingError::ResourceLimit(format!(
                            "no plan found within the configured limits (solver status: \
                             {}; stopped on: {})",
                            result.status, result.stop
                        ))
                    }
                });
            }
        }

        // audit-allow(no-panic): the status match above returns early for
        // every status without a solution.
        let solution = result.solution.as_ref().expect("has_solution checked");
        let decoded = decode(&encoding, query, solution)
            .map_err(|e| OrderingError::Backend(format!("decode failed: {e}")))?;
        // The final solution is the last incumbent: reuse its cached
        // projection instead of re-costing.
        let true_cost = match projections.iter().find(|(p, _)| p.plan == decoded.plan) {
            Some(&(_, c)) => c,
            None => self.exact_cost(catalog, query, &decoded.plan),
        };
        let (decoded, true_cost, argmin_swapped) = self.select_returned_plan(
            catalog,
            query,
            (decoded, true_cost),
            best.map(|b| &projections[b]),
            seed,
        );
        // A final trace point makes the trace tail describe the returned
        // plan at termination time.
        let final_bound = cost_space_bound(projection.as_ref(), result.bound);
        if argmin_swapped {
            cost_trace.push(CostTracePoint {
                elapsed: since_start(),
                incumbent: Some(true_cost),
                bound: final_bound,
            });
        }

        Ok(OptimizeOutcome {
            plan: decoded.plan.clone(),
            decoded,
            status: result.status,
            // audit-allow(no-panic): guarded by the same status match as
            // the solution access above.
            milp_objective: result.objective.expect("has solution"),
            milp_bound: result.bound,
            cost_bound: final_bound,
            true_cost,
            argmin_swapped,
            cost_trace,
            stats: encoding.stats,
            solve_time: result.solve_time,
            elapsed: since_start(),
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

    /// The exact-cost argmin's final pick: `last`, the MILP's final
    /// incumbent with its exact cost, unless `best` (the running argmin of
    /// the decoded incumbents) or the seed is strictly cheaper. The MILP
    /// objective and `plan_cost` can disagree under the threshold-window
    /// approximation, so this never returns a plan exactly-worse than one
    /// already decoded and costed, nor than the seed. The seed is the last
    /// candidate and carries no operators, so operator selection excludes
    /// it. Strict improvements only: a tie keeps the MILP's plan. Returns
    /// the pick, its exact cost and whether it replaced `last`.
    fn select_returned_plan(
        &self,
        catalog: &Catalog,
        query: &Query,
        last: (DecodedPlan, f64),
        best: Option<&(DecodedPlan, f64)>,
        seed: Option<&LeftDeepPlan>,
    ) -> (DecodedPlan, f64, bool) {
        let (mut decoded, mut true_cost) = last;
        let mut argmin_swapped = false;
        if let Some((plan, cost)) = best.filter(|(_, cost)| *cost < true_cost) {
            decoded = plan.clone();
            true_cost = *cost;
            argmin_swapped = true;
        }
        if let Some(seed) = seed.filter(|_| !self.config.operator_selection) {
            let seed_cost = self.exact_cost(catalog, query, seed);
            if seed_cost < true_cost {
                decoded = DecodedPlan::for_plan(query, seed.clone());
                true_cost = seed_cost;
                argmin_swapped = true;
            }
        }
        (decoded, true_cost, argmin_swapped)
    }

    /// Exact cost of `plan` under the configured cost model.
    fn exact_cost(&self, catalog: &Catalog, query: &Query, plan: &LeftDeepPlan) -> f64 {
        plan_cost(
            catalog,
            query,
            plan,
            self.config.cost_model,
            &self.config.cost_params,
        )
        .total
    }
}

impl OptimizeOutcome {
    /// Projects the MILP-specific outcome onto the backend-agnostic shape:
    /// exact cost, cost-space bound ([`cost_space_bound`]; a -inf MILP
    /// bound means the search proved nothing and projects to `None`), the
    /// cost-space trace, and the span of the whole backend call as
    /// `elapsed` (not the solver's `solve_time`).
    ///
    /// When the exact-cost argmin replaced the final MILP incumbent with an
    /// earlier incumbent or the seed ([`Self::argmin_swapped`]), the
    /// MILP-space certificate belongs to the discarded plan: the returned
    /// plan is reported like a heuristic's — exact cost as the objective,
    /// `proven_optimal: false` — while the cost-space `bound` is kept (it
    /// holds for every plan, the argmin included).
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
            elapsed: self.elapsed,
            search: self.search,
            route: None,
        }
    }
}

// Concurrency audit: the optimizer is an immutable configuration; all
// per-solve scratch (encoding, traces, the incumbent projection cache, the
// branch-and-bound search) lives on the `optimize` call stack. One instance
// may therefore serve every worker thread of a `QueryService`.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MilpOptimizer>();
    assert_send_sync::<OptimizeOutcome>();
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
        Ok(self
            .optimize(catalog, query, options, None)?
            .into_ordering_outcome())
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
        assert!(out.cost_trace.is_empty());
        assert_eq!(out.stats.num_vars(), 0);
        // The empty trace has no state to report, at any time.
        assert!(out.cost_trace.state_at(Duration::from_secs(3600)).is_none());
        assert!(out
            .cost_trace
            .guaranteed_factor_at(Duration::ZERO)
            .is_none());
        // The MILP-space certificate of the zero-cost plan is a proof.
        assert_eq!(out.optimality_factor(), Some(1.0));
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
        assert!(matches!(err, OrderingError::InvalidQuery(_)), "{err:?}");
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

    /// The paper example's plans in join order R S T (C_out 1,000: only
    /// R ⋈ S is an intermediate result) and T S R (100,000), each with its
    /// exact cost under `optimizer`'s configuration.
    fn cheap_and_dear(
        optimizer: &MilpOptimizer,
        catalog: &Catalog,
        query: &Query,
    ) -> ((DecodedPlan, f64), (DecodedPlan, f64)) {
        let [r, s, t] = [query.tables[0], query.tables[1], query.tables[2]];
        let costed = |order| {
            let plan = LeftDeepPlan::from_order(order);
            let cost = optimizer.exact_cost(catalog, query, &plan);
            (DecodedPlan::for_plan(query, plan), cost)
        };
        let (cheap, dear) = (costed(vec![r, s, t]), costed(vec![t, s, r]));
        assert!(cheap.1 < dear.1, "{} vs {}", cheap.1, dear.1);
        (cheap, dear)
    }

    #[test]
    fn strictly_cheaper_seed_wins_the_argmin() {
        let (catalog, query) = paper_example();
        let optimizer = MilpOptimizer::with_defaults();
        let (cheap, dear) = cheap_and_dear(&optimizer, &catalog, &query);
        let (picked, cost, swapped) = optimizer.select_returned_plan(
            &catalog,
            &query,
            dear.clone(),
            Some(&dear),
            Some(&cheap.0.plan),
        );
        assert_eq!(picked.plan, cheap.0.plan);
        assert_eq!(cost, cheap.1);
        assert!(swapped);
        // A cheaper earlier incumbent wins the same way, and the seed
        // then has to beat it, not the last incumbent.
        let (picked, cost, swapped) = optimizer.select_returned_plan(
            &catalog,
            &query,
            dear.clone(),
            Some(&cheap),
            Some(&dear.0.plan),
        );
        assert_eq!(picked.plan, cheap.0.plan);
        assert_eq!(cost, cheap.1);
        assert!(swapped);
    }

    #[test]
    fn tied_seed_keeps_the_milp_plan() {
        let (catalog, query) = paper_example();
        let optimizer = MilpOptimizer::with_defaults();
        let (cheap, _) = cheap_and_dear(&optimizer, &catalog, &query);
        // The seed R S T ties the MILP's R S T; so does the join order
        // S R T, a different plan at the same exact cost.
        let [r, s, t] = [query.tables[0], query.tables[1], query.tables[2]];
        let twin = LeftDeepPlan::from_order(vec![s, r, t]);
        assert_eq!(optimizer.exact_cost(&catalog, &query, &twin), cheap.1);
        for seed in [&cheap.0.plan, &twin] {
            let (picked, cost, swapped) = optimizer.select_returned_plan(
                &catalog,
                &query,
                cheap.clone(),
                Some(&cheap),
                Some(seed),
            );
            assert_eq!(picked.plan, cheap.0.plan);
            assert_eq!(cost, cheap.1);
            assert!(!swapped);
        }
    }

    #[test]
    fn operator_selection_never_picks_the_seed() {
        let (catalog, query) = paper_example();
        let optimizer = MilpOptimizer::new(EncoderConfig::default().operator_selection(true));
        let (cheap, dear) = cheap_and_dear(&optimizer, &catalog, &query);
        let (picked, cost, swapped) = optimizer.select_returned_plan(
            &catalog,
            &query,
            dear.clone(),
            Some(&dear),
            Some(&cheap.0.plan),
        );
        assert_eq!(picked.plan, dear.0.plan);
        assert_eq!(cost, dear.1);
        assert!(!swapped);
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
        // that an earlier incumbent (or the seed) beats in exact cost. The
        // projection must report the argmin like a heuristic's plan.
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
