//! Branch-and-bound search over the LP relaxation.
//!
//! Search organization: a best-first priority queue over open nodes (keyed
//! by the parent LP bound) combined with bounded-depth *plunging* — after
//! branching, the child closer to the LP value is processed immediately,
//! which finds incumbents early and keeps the simplex warm. The global dual
//! bound is the minimum over all open node bounds; the solver emits an event
//! whenever an improving incumbent is found or the global bound rises, which
//! is exactly the anytime interface the paper relies on.
//!
//! ## One search, N workers
//!
//! [`BranchBound`] runs [`SolverOptions::threads`] workers (`0` counts as
//! `1`). Worker 0 runs on the calling thread and `threads - 1` scoped
//! workers join it, so the default single-worker solve spawns nothing.
//! This module holds what a worker *computes* (LP re-solves, plunging,
//! heuristics, pseudocost branching — all thread-private); how workers
//! *coordinate* lives in the crate-private `pool` module, where the
//! interleaving explorer model-checks it:
//!
//! * **Shared open-node pool.** One lock-protected best-bound heap feeds
//!   every worker: each idle worker pops the open node with the smallest
//!   bound. While a worker plunges, the bound of its in-flight subtree is
//!   parked in a per-worker slot, so the global dual bound never forgets
//!   claimed-but-unfinished work.
//! * **Shared incumbent.** The best assignment lives under the pool lock;
//!   its objective is mirrored into an atomic so workers prune mid-plunge
//!   without locking. A candidate that does not beat the mirror is dropped
//!   before its row check; survivors are row-verified *outside* the lock
//!   and re-checked for improvement under it, so concurrent discoveries
//!   serialize into a monotone incumbent stream.
//! * **Per-worker scratch.** Each worker owns a private [`Simplex`] (with
//!   its own LU basis) and its own [`Pseudocosts`]; each re-creates any
//!   pool node on its own scratch by walking the node's `NodeData` bound
//!   chain and loading the parent's optimal basis that the node carries
//!   (one shared `Arc` per branching), then re-solves it with the dual
//!   simplex.
//! * **Merged anytime stream.** The user callback is invoked only under the
//!   pool lock: incumbents are monotone, and every reported global bound is
//!   the minimum over the heap top, parked stalled subtrees, every worker's
//!   in-flight subtree bound, and the incumbent objective.
//! * **Budgets.** The node budget is a hard cap: one atomic meter across
//!   all workers, checked before every node LP (dive children included).
//!   One worker stops at exactly [`SolverOptions::node_limit`] nodes; with
//!   more, each in-flight worker may finish the node it cleared before the
//!   limit tripped. The wall-clock deadline is checked when acquiring a
//!   node, before every dive child, between a node's LP and the
//!   heuristic/branching work that follows, and inside each LP. A worker
//!   stopped by a budget re-opens its node, so the final bound stays sound.
//!
//! With one worker the search is deterministic: node order, events and
//! results are bit-identical per (model, options). With more, node
//! exploration order depends on OS scheduling, so intermediate incumbents,
//! node counts at limits and tie-broken optima may vary run to run; optimal
//! objectives, certificates and bound soundness do not.

use std::sync::Arc;
use std::time::{Duration, Instant};

use milpjoin_shim::time as shim_time;

use crate::branching::{select_branching_var, Pseudocosts};
use crate::heuristics::{diving_heuristic, rounding_heuristic};
use crate::lp::LpProblem;
use crate::options::SolverOptions;
use crate::pool::{Open, Pool, PoolEvent, PoolLimits};
use crate::simplex::{BasisSnapshot, DualPath, LpStatus, Simplex, SimplexLimits, StallCounts};
use crate::solution::{IncumbentEvent, Solution};
use crate::status::{SearchStats, SolveStatus, StopReason};

/// An integer column whose LP value lies within this distance of an
/// integer counts as integral.
const INTEGRALITY_TOL: f64 = 1e-6;
/// Every this many nodes, the node being expanded also runs the rounding
/// heuristic.
const ROUNDING_INTERVAL: u64 = 50;
/// Depth of the plunge that follows each claimed node before its children
/// go back to the pool.
const MAX_DIVE_DEPTH: u32 = 64;

/// Events emitted during the search (the anytime stream).
#[derive(Debug, Clone)]
pub enum SolverEvent {
    /// A new best incumbent was found.
    Incumbent(IncumbentEvent),
    /// The global dual bound improved (model sense).
    BoundImproved {
        elapsed: Duration,
        bound: f64,
        nodes: u64,
    },
}

/// One branching decision relative to the parent node. The chain of
/// parents encodes the node's complete bound set; `Arc` links let the
/// shared pool hold overlapping chains without copying and let chains
/// cross worker threads.
#[derive(Debug)]
struct NodeData {
    parent: Option<Arc<NodeData>>,
    var: usize,
    lb: f64,
    ub: f64,
    /// LP objective of the parent (for pseudocost updates).
    parent_obj: f64,
    /// Fractional part of `var` at the parent.
    frac: f64,
    /// Whether this is the up-branch.
    up: bool,
    depth: u32,
    /// The parent's optimal basis (shared by both children), captured
    /// before any heuristic moved the simplex; `None` when the parent's LP
    /// was not proven optimal. The node re-solves from it with the dual
    /// simplex.
    basis: Option<Arc<BasisSnapshot>>,
}

/// Node payload in the shared pool: the bound chain (`None` = root).
type NodePayload = Option<Arc<NodeData>>;

/// The shared pool as every worker sees it: bound-chain nodes, structural
/// value vectors as incumbents.
type SearchPool<F> = Pool<NodePayload, Vec<f64>, F>;

/// The bound a node was opened under: its parent's LP objective, `-inf`
/// for the root. This is the "justifying bound" recorded per expansion for
/// the speculative-work statistic.
fn node_chain_bound(data: &NodePayload) -> f64 {
    data.as_ref().map_or(f64::NEG_INFINITY, |d| d.parent_obj)
}

/// Applies the bound chain of a node onto the simplex working bounds
/// (root → leaf, intersecting with any bounds already tightened along the
/// walk).
fn apply_node_bounds(sx: &mut Simplex<'_>, data: &NodePayload) {
    sx.reset_bounds();
    let mut chain: Vec<&NodeData> = Vec::new();
    let mut cur = data.as_deref();
    while let Some(d) = cur {
        chain.push(d);
        cur = d.parent.as_deref();
    }
    for d in chain.into_iter().rev() {
        let (lb, ub) = {
            let (l, u) = sx.bounds();
            (l[d.var].max(d.lb), u[d.var].min(d.ub))
        };
        sx.set_bounds(d.var, lb, ub);
    }
}

/// Fractional integer variables of the current LP solution.
fn fractional_candidates(sx: &Simplex<'_>, lp: &LpProblem) -> Vec<(usize, f64)> {
    let values = sx.values();
    let mut out = Vec::new();
    for j in 0..lp.num_structural {
        if lp.integer[j] {
            let v = values[j];
            let f = v - v.floor();
            if f > INTEGRALITY_TOL && f < 1.0 - INTEGRALITY_TOL {
                out.push((j, f));
            }
        }
    }
    out
}

/// Snaps an LP point onto the values it stands for: integer entries are
/// rounded, and continuous entries within rounding noise of a bound move
/// onto it. An incumbent's objective is recomputed from the snapped values,
/// so LP noise (a scaled-up cost on a column resting at `-1e-19` instead
/// of `0`) does not make two equal optima report different objectives.
fn snap_solution(lp: &LpProblem, mut values: Vec<f64>) -> Vec<f64> {
    for j in 0..lp.num_structural {
        let v = values[j];
        values[j] = if lp.integer[j] {
            v.round()
        } else {
            let near =
                |bound: f64| bound.is_finite() && (v - bound).abs() <= 1e-9 * (1.0 + bound.abs());
            let (l, u) = (lp.lb[j], lp.ub[j]);
            if near(l) {
                l
            } else if near(u) {
                u
            } else {
                v
            }
        };
    }
    values
}

/// Minimization-space objective of structural values (without offset),
/// summed in the simplex's column order.
fn solution_objective(lp: &LpProblem, values: &[f64]) -> f64 {
    let mut acc = 0.0;
    for j in 0..lp.num_structural {
        let c = lp.obj[j];
        if c != 0.0 {
            acc += c * values[j];
        }
    }
    acc
}

/// Counts expanded nodes whose justifying bound already exceeded the final
/// optimum (see [`SearchStats::speculative_nodes`]). `0` without an
/// incumbent: with nothing found, no expansion is provably wasted.
fn speculative_count(expanded_bounds: &[f64], incumbent: Option<&(Vec<f64>, f64)>) -> u64 {
    match incumbent {
        Some((_, opt)) => {
            let tol = 1e-9 * (1.0 + opt.abs());
            expanded_bounds.iter().filter(|&&b| b > opt + tol).count() as u64
        }
        None => 0,
    }
}

/// Row-activity feasibility check of structural values.
fn verify_rows(lp: &LpProblem, values: &[f64]) -> bool {
    let m = lp.num_rows;
    let mut act = vec![0.0; m];
    for j in 0..lp.num_structural {
        if values[j] != 0.0 {
            lp.column_axpy(j, values[j], &mut act);
        }
    }
    for i in 0..m {
        let (lo, hi) = (lp.row_lo[i], lp.row_hi[i]);
        let tol = 1e-6 * (1.0 + act[i].abs());
        if act[i] < lo - tol || act[i] > hi + tol {
            return false;
        }
    }
    true
}

/// Attempts to turn the user-supplied warm-start hints into an integral
/// root candidate: fix the hinted integer variables, solve the LP for the
/// continuous completion, and — if other integer variables come out
/// fractional — finish with one fractional dive. Returns the candidate
/// (**unsnapped and unverified**: [`offer`] does both); `None` when the
/// hints are absent, infeasible, or incompletable. Leaves the simplex
/// bounds reset in every case.
fn warm_start_candidate(
    sx: &mut Simplex<'_>,
    lp: &LpProblem,
    opts: &SolverOptions,
    deadline: Option<Instant>,
) -> Option<Vec<f64>> {
    let hints = opts.initial_solution.as_ref()?;
    if hints.is_empty() {
        return None;
    }
    sx.reset_bounds();
    let mut fixed_any = false;
    for (var, value) in hints {
        let j = var.index();
        if j >= lp.num_structural || !lp.integer[j] {
            continue;
        }
        // Integer columns are never rescaled (see `LpProblem`), so model
        // values carry over; clamp into the (possibly presolved) bounds.
        let v = value.round().clamp(lp.lb[j], lp.ub[j]).round();
        sx.set_bounds(j, v, v);
        fixed_any = true;
    }
    if !fixed_any {
        sx.reset_bounds();
        return None;
    }
    sx.install_slack_basis();
    let res = sx.solve(&SimplexLimits {
        max_iterations: None,
        deadline,
    });
    let candidate = if res.status != LpStatus::Optimal {
        None
    } else if fractional_candidates(sx, lp).is_empty() {
        Some(sx.values()[..lp.num_structural].to_vec())
    } else {
        // Hints only covered part of the integer variables; dive the rest
        // down from the hinted LP.
        let (lb, ub) = {
            let (l, u) = sx.bounds();
            (l.to_vec(), u.to_vec())
        };
        diving_heuristic(sx, lp, &lb, &ub, INTEGRALITY_TOL, deadline).map(|(vals, _)| vals)
    };
    sx.reset_bounds();
    candidate
}

/// Summary of a finished search (minimization space).
pub struct SearchOutcome {
    pub status: SolveStatus,
    /// Which budget (if any) cut the search short; [`StopReason::Finished`]
    /// whenever the status is conclusive.
    pub stop: StopReason,
    pub incumbent: Option<(Vec<f64>, f64)>,
    pub bound: f64,
    /// Search counters: nodes expanded, LP iterations, workers, speculative
    /// work.
    pub stats: SearchStats,
    /// Every worker's private counters, merged (the `MILP_STATS` line),
    /// kept for the unit tests.
    #[cfg(test)]
    counters: WorkerScratch,
}

/// Snaps an integral candidate ([`snap_solution`]) and offers it, with the
/// objective of the snapped values, to the shared incumbent on behalf of
/// worker `w`. A candidate that does not beat the incumbent mirror is
/// dropped before its row check; the pool re-checks improvement under its
/// lock. `current` is the worker's in-flight node bound while that node is
/// still open (a heuristic ran from it), `None` once the node is resolved.
fn offer<F: FnMut(PoolEvent<'_, Vec<f64>>)>(
    lp: &LpProblem,
    pool: &SearchPool<F>,
    w: usize,
    values: Vec<f64>,
    current: Option<f64>,
) {
    let values = snap_solution(lp, values);
    let obj = solution_objective(lp, &values);
    if !pool.improves_fast(obj) {
        return;
    }
    if verify_rows(lp, &values) {
        pool.offer_incumbent(w, values, obj, current);
    }
}

fn run_diving<F: FnMut(PoolEvent<'_, Vec<f64>>)>(
    lp: &LpProblem,
    pool: &SearchPool<F>,
    w: usize,
    sx: &mut Simplex<'_>,
    current_obj: f64,
) {
    let (lb, ub) = {
        let (l, u) = sx.bounds();
        (l.to_vec(), u.to_vec())
    };
    if let Some((vals, _)) = diving_heuristic(sx, lp, &lb, &ub, INTEGRALITY_TOL, pool.deadline()) {
        offer(lp, pool, w, vals, Some(current_obj));
    }
}

fn run_rounding<F: FnMut(PoolEvent<'_, Vec<f64>>)>(
    lp: &LpProblem,
    pool: &SearchPool<F>,
    w: usize,
    sx: &mut Simplex<'_>,
    current_obj: f64,
) {
    let base = sx.values().to_vec();
    let (lb, ub) = {
        let (l, u) = sx.bounds();
        (l.to_vec(), u.to_vec())
    };
    if let Some((vals, _)) = rounding_heuristic(sx, lp, &lb, &ub, &base, pool.deadline()) {
        offer(lp, pool, w, vals, Some(current_obj));
    }
}

/// Per-worker counters, merged into the outcome after the workers join.
#[derive(Debug, Default)]
struct WorkerScratch {
    /// Justifying bound of every expanded node, for the speculative-work
    /// statistic (counted against the final optimum after the search).
    expanded_bounds: Vec<f64>,
    simplex_iterations: u64,
    /// Diagnostics: node LPs found infeasible (the certified ones below
    /// included).
    infeasible_nodes: u64,
    /// Diagnostics: warm verdicts that required a cold re-solve.
    cold_retries: u64,
    /// Diagnostics: node LPs the dual simplex brought to primal
    /// feasibility from the parent's basis.
    dual_resolves: u64,
    /// Diagnostics: LU builds the worker's simplex ran.
    refactorizations: u64,
    /// Diagnostics: what the stall guards of the worker's simplex did.
    stalls: StallCounts,
    /// Diagnostics: dual re-solves that gave up and ran the primal loop
    /// from the parent's basis.
    dual_fallbacks: u64,
    /// Diagnostics: infeasible nodes whose dual ray was certified, so they
    /// skipped the cold retry.
    certified_infeasible: u64,
    /// Diagnostics: confirmed unbounded verdicts in a bounded model, and
    /// node LPs that stalled at an infeasible point.
    numerical_failures: u64,
    /// Root-relaxation simplex iterations (cold retry included) — nonzero
    /// on exactly the worker that claimed the root node.
    root_lp_iterations: u64,
}

impl WorkerScratch {
    /// Folds another worker's counters into these.
    fn absorb(&mut self, other: &WorkerScratch) {
        self.expanded_bounds
            .extend_from_slice(&other.expanded_bounds);
        self.simplex_iterations += other.simplex_iterations;
        self.infeasible_nodes += other.infeasible_nodes;
        self.cold_retries += other.cold_retries;
        self.dual_resolves += other.dual_resolves;
        self.refactorizations += other.refactorizations;
        self.stalls += other.stalls;
        self.dual_fallbacks += other.dual_fallbacks;
        self.certified_infeasible += other.certified_infeasible;
        self.numerical_failures += other.numerical_failures;
        self.root_lp_iterations += other.root_lp_iterations;
    }
}

/// Expands one claimed node: plunges from it up to [`MAX_DIVE_DEPTH`].
/// Every node whose parent LP was proven optimal — pool node or dive
/// child — loads that parent basis and re-solves with the dual simplex
/// ([`Simplex::solve_dual`]); a warm verdict other than `Optimal` or a
/// certified infeasibility is re-solved cold. The root, and nodes whose
/// parent only stalled, are solved cold: the primal loop from the slack
/// basis.
///
/// Every LP runs under the simplex's stall guards (see
/// [`crate::simplex`]): Bland's rule after 200 primal pivots without
/// progress or 400 degenerate ones; the cost perturbation after 400
/// phase-2 pivots without progress; `IterationLimit` after 400 more once
/// perturbed, or after 5,000 + 4m in phase 1; and the dual's give-up after
/// 100, which falls back to the primal loop. A node LP that ends on
/// `IterationLimit` at a primal feasible point is still branched on, under
/// its parent's bound; at an infeasible point its node is parked.
fn expand<F: FnMut(PoolEvent<'_, Vec<f64>>)>(
    lp: &LpProblem,
    pool: &SearchPool<F>,
    w: usize,
    sx: &mut Simplex<'_>,
    pseudo: &mut Pseudocosts,
    node: Open<NodePayload>,
    scratch: &mut WorkerScratch,
) {
    let mut current = Some(node.payload);
    let mut dive_depth = 0u32;
    while let Some(data) = current.take() {
        // Budget / halt checks before funding another LP. A worker that
        // backs out re-opens its node so the subtree bound stays valid.
        if pool.is_finished() {
            let bound = node_chain_bound(&data);
            pool.park_open(data, bound);
            return;
        }
        if pool.out_of_time() {
            let bound = node_chain_bound(&data);
            pool.halt_with(data, bound, StopReason::TimeLimit);
            return;
        }
        if pool.node_limit_reached() {
            let bound = node_chain_bound(&data);
            pool.halt_with(data, bound, StopReason::NodeLimit);
            return;
        }

        apply_node_bounds(sx, &data);
        // Iteration count before this node's LP: the worker's simplex is
        // reused across nodes and heuristic dives, so the root's share is
        // a delta, not the running total.
        let iters_before = sx.iterations_total();
        let limits = SimplexLimits {
            max_iterations: None,
            deadline: pool.deadline(),
        };
        let res = match data.as_ref().and_then(|d| d.basis.as_deref()) {
            None => {
                sx.install_slack_basis();
                sx.solve(&limits)
            }
            Some(basis) => {
                sx.load_basis(basis);
                // A warm re-solve settles in a handful of pivots; one that
                // needs more primal iterations than this (the diving
                // heuristic's cap) is stalling on a degenerate or
                // ill-conditioned basis, and a cold solve is cheaper than
                // waiting out the stall.
                let warm_cap = 500 + 4 * lp.num_rows as u64;
                let (res, path) = sx.solve_dual(&SimplexLimits {
                    max_iterations: Some(warm_cap),
                    ..limits
                });
                match path {
                    DualPath::Dual => scratch.dual_resolves += 1,
                    DualPath::CertifiedInfeasible => scratch.certified_infeasible += 1,
                    DualPath::Fallback => scratch.dual_fallbacks += 1,
                }
                if res.status == LpStatus::Optimal || path == DualPath::CertifiedInfeasible {
                    res
                } else {
                    // Verify any other warm verdict from a cold start.
                    scratch.cold_retries += 1;
                    sx.install_slack_basis();
                    sx.solve(&limits)
                }
            }
        };
        if data.is_none() {
            scratch.root_lp_iterations += sx.iterations_total() - iters_before;
        }
        pool.count_node();
        scratch.expanded_bounds.push(node_chain_bound(&data));

        // A stalled LP that is primal-feasible is still a usable branching
        // point: its fractional solution guides the children, whose valid
        // bound is inherited from the parent.
        let stalled_feasible =
            res.status == LpStatus::IterationLimit && sx.primal_infeasibility() < 1e-5;

        match res.status {
            LpStatus::Infeasible => {
                scratch.infeasible_nodes += 1;
                pool.report_bound(w, None);
                break;
            }
            LpStatus::Unbounded => {
                if data.is_none() {
                    pool.finish_root_unbounded();
                    return;
                }
                // A bounded-below MILP cannot have unbounded nodes unless
                // the root was. Never drop the node silently: park it so
                // its bound stays open.
                scratch.numerical_failures += 1;
                pool.park_stalled(node_chain_bound(&data));
                break;
            }
            LpStatus::TimeLimit => {
                let bound = node_chain_bound(&data);
                pool.halt_with(data, bound, StopReason::TimeLimit);
                return;
            }
            LpStatus::IterationLimit if !stalled_feasible => {
                // The node LP stalled at an infeasible point; park the node
                // (its parent bound stays part of the global bound) and
                // move on rather than aborting the whole search.
                scratch.numerical_failures += 1;
                pool.park_stalled(node_chain_bound(&data));
                break;
            }
            LpStatus::IterationLimit | LpStatus::Optimal => {}
        }

        // For a proven-optimal LP the objective is a valid subtree bound; a
        // stalled-feasible LP only inherits its parent's. A child's LP
        // optimum is never below its parent's, but on a degenerate basis
        // the float objective can land a few ULPs under it, and the global
        // bound must not fall: the parent's bound is the floor.
        let exact = res.status == LpStatus::Optimal;
        let obj = if exact {
            res.objective.max(node_chain_bound(&data))
        } else {
            node_chain_bound(&data)
        };

        // Deadline re-check between the node LP and the heuristic /
        // branching work below: a deadline that expired during the LP stops
        // here instead of funding another dive or heuristic first. The
        // subtree stays open under its fresh bound.
        if pool.out_of_time() {
            pool.halt_with(data, obj, StopReason::TimeLimit);
            return;
        }

        // Pseudocost update from the parent's prediction.
        if exact {
            if let Some(d) = &data {
                if d.parent_obj.is_finite() {
                    pseudo.record(d.var, d.frac, obj - d.parent_obj, d.up);
                }
            }
        }

        if pool.prunable_fast(obj) {
            pool.report_bound(w, None);
            break;
        }

        let candidates = fractional_candidates(sx, lp);
        if candidates.is_empty() {
            let values = sx.values()[..lp.num_structural].to_vec();
            offer(lp, pool, w, values, None);
            pool.report_bound(w, None);
            break;
        }

        // Select the branching variable and capture the node state *before*
        // heuristics run: they re-solve LPs on the worker's simplex and
        // would otherwise leave stale values behind.
        let Some((var, frac)) = select_branching_var(&candidates, pseudo) else {
            break;
        };
        let val = sx.values()[var];
        let (node_lb, node_ub) = {
            let (l, u) = sx.bounds();
            (l[var], u[var])
        };
        let depth = data.as_ref().map_or(0, |d| d.depth) + 1;
        let basis = exact.then(|| Arc::new(sx.basis_snapshot()));

        // Root-only diving heuristic for a fast first incumbent: only one
        // node has no data (the root), and exactly one worker claims it.
        if data.is_none() {
            run_diving(lp, pool, w, sx, obj);
        } else if pool.nodes().is_multiple_of(ROUNDING_INTERVAL) {
            run_rounding(lp, pool, w, sx, obj);
        }

        let down = Arc::new(NodeData {
            parent: data.clone(),
            var,
            lb: node_lb,
            ub: val.floor(),
            parent_obj: obj,
            frac,
            up: false,
            depth,
            basis: basis.clone(),
        });
        let up = Arc::new(NodeData {
            parent: data,
            var,
            lb: val.ceil(),
            ub: node_ub,
            parent_obj: obj,
            frac,
            up: true,
            depth,
            basis,
        });
        // Dive toward the nearest integer.
        let (first, second) = if frac < 0.5 { (down, up) } else { (up, down) };

        dive_depth += 1;
        let keep_diving = dive_depth <= MAX_DIVE_DEPTH;
        // The in-flight subtree's bound tightened to this node's LP
        // objective; publish the children in one critical section.
        let mut children: Vec<(NodePayload, f64)> = vec![(Some(second), obj)];
        if keep_diving {
            current = Some(Some(first));
        } else {
            children.push((Some(first), obj));
        }
        pool.publish_children(w, children, obj, keep_diving.then_some(obj));
    }
}

/// One worker: claims nodes from the pool and expands them until the
/// search is over.
fn worker<F: FnMut(PoolEvent<'_, Vec<f64>>)>(
    lp: &LpProblem,
    pool: &SearchPool<F>,
    w: usize,
    scratch: &mut WorkerScratch,
) {
    let mut sx = Simplex::new(lp);
    let mut pseudo = Pseudocosts::new(lp.num_structural, &lp.obj);
    while let Some(node) = pool.acquire(w) {
        expand(lp, pool, w, &mut sx, &mut pseudo, node, scratch);
        // Close out the claimed subtree: the worker no longer holds (or has
        // re-opened) it, so waiting workers re-check termination.
        pool.release(w);
    }
    scratch.simplex_iterations = sx.iterations_total();
    scratch.refactorizations = sx.refactorizations();
    scratch.stalls = sx.stall_counts();
}

/// The branch-and-bound search: [`SolverOptions::threads`] workers over one
/// shared open-node pool (see the module docs, and the crate-private `pool`
/// module for the coordination protocol).
pub struct BranchBound<'a, F: FnMut(&SolverEvent) + Send> {
    lp: &'a LpProblem,
    opts: &'a SolverOptions,
    callback: F,
}

impl<'a, F: FnMut(&SolverEvent) + Send> BranchBound<'a, F> {
    pub fn new(lp: &'a LpProblem, opts: &'a SolverOptions, callback: F) -> Self {
        BranchBound { lp, opts, callback }
    }

    /// Runs the search to completion or a limit.
    pub fn run(self) -> SearchOutcome {
        let workers = self.opts.threads.max(1);
        let start = shim_time::now();
        // Translate pool events (internal objective space) into the user's
        // anytime stream. The pool invokes this under its lock, so the
        // merged stream is ordered.
        let lp = self.lp;
        let mut callback = self.callback;
        let pool = Pool::new(
            PoolLimits {
                node_limit: self.opts.node_limit,
                relative_gap: self.opts.relative_gap,
                deadline: self.opts.time_limit.map(|d| start + d),
            },
            workers,
            move |ev: PoolEvent<'_, Vec<f64>>| match ev {
                PoolEvent::Bound { bound, nodes } => callback(&SolverEvent::BoundImproved {
                    elapsed: shim_time::now().saturating_duration_since(start),
                    bound: lp.user_objective(bound),
                    nodes,
                }),
                PoolEvent::Incumbent {
                    objective,
                    bound,
                    nodes,
                    solution,
                } => callback(&SolverEvent::Incumbent(IncumbentEvent {
                    elapsed: shim_time::now().saturating_duration_since(start),
                    objective: lp.user_objective(objective),
                    bound: lp.user_objective(bound),
                    nodes,
                    // Events cross the API boundary: report model-space
                    // values.
                    solution: Solution::new(lp.unscale_values(solution)),
                })),
            },
        );

        // Root node.
        pool.push_root(None, f64::NEG_INFINITY);

        // Warm start after the root is open (so the reported global bound
        // stays -inf: nothing is proven yet) and before any worker starts:
        // the hinted incumbent seeds the shared incumbent, so every worker
        // prunes against it from its very first node and the anytime stream
        // opens with a finite objective at t ≈ 0. Failures are silent: the
        // search simply starts without an incumbent. Its simplex work is
        // counted like a worker's.
        let warm_start = {
            let mut sx = Simplex::new(lp);
            if let Some(values) = warm_start_candidate(&mut sx, lp, self.opts, pool.deadline()) {
                offer(lp, &pool, 0, values, None);
            }
            WorkerScratch {
                simplex_iterations: sx.iterations_total(),
                refactorizations: sx.refactorizations(),
                stalls: sx.stall_counts(),
                ..WorkerScratch::default()
            }
        };

        let mut scratches: Vec<WorkerScratch> =
            (0..workers).map(|_| WorkerScratch::default()).collect();
        let (own, others) = scratches.split_at_mut(1);
        std::thread::scope(|scope| {
            let pool = &pool;
            for (i, scratch) in others.iter_mut().enumerate() {
                scope.spawn(move || worker(lp, pool, i + 1, scratch));
            }
            worker(lp, pool, 0, &mut own[0]);
        });

        // Workers joined: fold their private counters and map the pool
        // state to an outcome.
        let out = pool.finalize();
        let nodes = out.nodes;
        let mut totals = warm_start;
        for s in &scratches {
            totals.absorb(s);
        }
        let simplex_iterations = totals.simplex_iterations;
        if std::env::var_os("MILP_STATS").is_some() {
            eprintln!(
                "bb: workers={workers} nodes={nodes} infeasible={} certified_infeasible={} \
                 dual_resolves={} refactorizations={} bland_pivots={} perturbations={} \
                 stall_exits={} dual_stalls={} dual_fallbacks={} cold_retries={} \
                 numerical_failures={} heap_left={}",
                totals.infeasible_nodes,
                totals.certified_infeasible,
                totals.dual_resolves,
                totals.refactorizations,
                totals.stalls.bland_pivots,
                totals.stalls.perturbations,
                totals.stalls.stall_exits,
                totals.stalls.dual_stalls,
                totals.dual_fallbacks,
                totals.cold_retries,
                totals.numerical_failures,
                out.heap_len
            );
        }

        // Parked nodes that the incumbent does not prune keep the search
        // inconclusive (recorded only when no configured budget fired
        // first: the stop reason reports the *earliest* cause).
        let incumbent_obj = out.incumbent.as_ref().map(|(_, o)| *o);
        let mut stop = out.halt.unwrap_or(StopReason::Finished);
        if stop == StopReason::Finished && out.stalled_unresolved {
            stop = StopReason::Stalled;
        }
        let status = if out.root_unbounded {
            SolveStatus::Unbounded
        } else {
            match (incumbent_obj.is_some(), stop != StopReason::Finished) {
                (true, false) => SolveStatus::Optimal,
                (true, true) => {
                    if out.gap_reached {
                        SolveStatus::Optimal
                    } else {
                        SolveStatus::Feasible
                    }
                }
                (false, true) => SolveStatus::NoSolutionFound,
                (false, false) => SolveStatus::Infeasible,
            }
        };
        // A conclusive verdict overrides a limit that fired in the same
        // moment (e.g. the gap target was already met when the clock ran
        // out): `Optimal` always pairs with `Finished`.
        if status == SolveStatus::Optimal {
            stop = StopReason::Finished;
        }
        // When proven optimal the bound equals the incumbent objective.
        let final_bound = match (incumbent_obj, status) {
            (Some(obj), SolveStatus::Optimal) => obj,
            _ => out.bound,
        };
        let incumbent = out.incumbent;
        let speculative = speculative_count(&totals.expanded_bounds, incumbent.as_ref());
        SearchOutcome {
            status,
            stop,
            incumbent,
            bound: final_bound,
            stats: SearchStats {
                nodes_expanded: nodes,
                workers_used: workers,
                speculative_nodes: speculative,
                root_lp_iterations: totals.root_lp_iterations,
                total_lp_iterations: simplex_iterations,
            },
            #[cfg(test)]
            counters: totals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense};
    use crate::solver::Solver;
    use std::sync::Mutex;

    fn run(model: &Model, opts: &SolverOptions) -> SearchOutcome {
        let lp = LpProblem::from_model(model);
        let bb = BranchBound::new(&lp, opts, |_ev| {});
        bb.run()
    }

    #[test]
    fn knapsack_optimum() {
        // max 4a + 5b + 3c, 3a + 4b + 2c <= 6 -> b + c = 8
        let mut m = Model::new("ks");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_le(a * 3.0 + b * 4.0 + c * 2.0, 6.0, "cap");
        m.set_objective(a * 4.0 + b * 5.0 + c * 3.0, Sense::Maximize);
        let out = run(&m, &SolverOptions::default());
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(out.stop, StopReason::Finished);
        let (_, obj) = out.incumbent.unwrap();
        // Minimization space: -8.
        assert!((obj + 8.0).abs() < 1e-6, "obj={obj}");
    }

    #[test]
    fn infeasible_integer_program() {
        let mut m = Model::new("inf");
        let x = m.add_integer(0.0, 10.0, "x");
        m.add_ge(x * 2.0, 3.0, "c0");
        m.add_le(x * 2.0, 3.5, "c1"); // forces 1.5 <= x <= 1.75: no integer
        m.set_objective(x.into(), Sense::Minimize);
        let out = run(&m, &SolverOptions::default());
        assert_eq!(out.status, SolveStatus::Infeasible);
    }

    #[test]
    fn certified_infeasible_children_skip_the_cold_retry() {
        // 1.5 <= x <= 1.75 with x integer: the root LP settles at x = 1.5
        // and both children are infeasible. Each re-solves from the root's
        // basis, and the dual proves it infeasible on its own.
        let mut m = Model::new("inf");
        let x = m.add_integer(0.0, 10.0, "x");
        m.add_ge(x * 2.0, 3.0, "c0");
        m.add_le(x * 2.0, 3.5, "c1");
        m.set_objective(x.into(), Sense::Minimize);
        let out = run(&m, &SolverOptions::default());
        assert_eq!(out.status, SolveStatus::Infeasible);
        let c = &out.counters;
        assert_eq!(c.infeasible_nodes, 2, "{c:?}");
        assert_eq!(c.certified_infeasible, 2, "{c:?}");
        assert_eq!(c.cold_retries, 0, "{c:?}");
        assert_eq!(c.dual_fallbacks, 0, "{c:?}");
    }

    #[test]
    fn snapping_rounds_integers_and_moves_noise_onto_finite_bounds() {
        let mut m = Model::new("snap");
        m.add_integer(0.0, 3.0, "n");
        m.add_continuous(0.0, 1.0, "boxed");
        m.add_continuous(f64::NEG_INFINITY, 2.0, "below");
        m.add_continuous(0.0, f64::INFINITY, "above");
        let lp = LpProblem::from_model(&m);
        let (lb, ub) = (&lp.lb, &lp.ub);
        let snapped = snap_solution(
            &lp,
            vec![1.000_000_000_1, lb[1] - 1e-19, -5.0, lb[3] + 7e-19],
        );
        assert_eq!(snapped, vec![1.0, lb[1], -5.0, lb[3]]);
        // Values off every bound, finite or not, stay put.
        let interior = snap_solution(&lp, vec![2.0, 0.5 * ub[1], ub[2] - 1.0, 1e9]);
        assert_eq!(interior, vec![2.0, 0.5 * ub[1], ub[2] - 1.0, 1e9]);
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new("lp");
        let x = m.add_continuous(0.0, 2.0, "x");
        m.set_objective(x.into(), Sense::Maximize);
        let out = run(&m, &SolverOptions::default());
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.incumbent.unwrap().1 + 2.0).abs() < 1e-8);
    }

    #[test]
    fn warm_start_becomes_root_incumbent() {
        // max 4a + 5b + 3c, 3a + 4b + 2c <= 6. Feasible hint {a}: value 4
        // (min space -4). The FIRST event must be that incumbent, before
        // any bound event.
        let mut m = Model::new("ws");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_le(a * 3.0 + b * 4.0 + c * 2.0, 6.0, "cap");
        m.set_objective(a * 4.0 + b * 5.0 + c * 3.0, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let opts = SolverOptions::default().initial_solution(vec![(a, 1.0), (b, 0.0), (c, 0.0)]);
        let mut events: Vec<(bool, f64)> = Vec::new();
        let bb = BranchBound::new(&lp, &opts, |ev| match ev {
            SolverEvent::Incumbent(inc) => events.push((true, inc.objective)),
            SolverEvent::BoundImproved { bound, .. } => events.push((false, *bound)),
        });
        let out = bb.run();
        assert_eq!(out.status, SolveStatus::Optimal);
        // First event is the warm-start incumbent with the hinted objective.
        let (is_incumbent, obj) = events[0];
        assert!(is_incumbent, "first event must be the warm-start incumbent");
        assert!((obj - 4.0).abs() < 1e-9, "warm incumbent {obj}");
        // The search still reaches the true optimum (b + c = 8).
        assert!((out.incumbent.unwrap().1 + 8.0).abs() < 1e-6);
    }

    #[test]
    fn partial_warm_start_completed_by_dive() {
        // Hint only one variable; the dive must fix the rest.
        let mut m = Model::new("ws2");
        let vars: Vec<_> = (0..8).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut cap = crate::expr::LinExpr::new();
        let mut obj = crate::expr::LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap += v * (1.0 + (i % 3) as f64);
            obj += v * (1.5 + (i % 4) as f64);
        }
        m.add_le(cap, 8.0, "cap");
        m.set_objective(obj, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let opts = SolverOptions::default().initial_solution(vec![(vars[3], 1.0)]);
        let mut first_is_incumbent = None;
        let bb = BranchBound::new(&lp, &opts, |ev| {
            if first_is_incumbent.is_none() {
                first_is_incumbent = Some(matches!(ev, SolverEvent::Incumbent(_)));
            }
        });
        let out = bb.run();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert_eq!(
            first_is_incumbent,
            Some(true),
            "dive must complete the partial hint"
        );
    }

    #[test]
    fn infeasible_warm_start_is_dropped() {
        // Hints violating a constraint must not poison the search.
        let mut m = Model::new("ws3");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_le(a + b, 1.0, "excl");
        m.set_objective(a * 2.0 + b * 3.0, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let opts = SolverOptions::default().initial_solution(vec![(a, 1.0), (b, 1.0)]);
        let bb = BranchBound::new(&lp, &opts, |_| {});
        let out = bb.run();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!((out.incumbent.unwrap().1 + 3.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_with_zero_node_limit_returns_hint() {
        let mut m = Model::new("ws4");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        m.add_le(a + b, 1.0, "excl");
        m.set_objective(a * 2.0 + b * 3.0, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let mut opts = SolverOptions::default().initial_solution(vec![(a, 1.0), (b, 0.0)]);
        opts.node_limit = Some(0);
        let bb = BranchBound::new(&lp, &opts, |_| {});
        let out = bb.run();
        // The only incumbent is the hint; nothing was proven. The stop
        // reason records the node budget — a deterministic resource limit.
        assert_eq!(out.status, SolveStatus::Feasible);
        assert_eq!(out.stop, StopReason::NodeLimit);
        assert_eq!(out.stats.nodes_expanded, 0);
        assert!((out.incumbent.unwrap().1 + 2.0).abs() < 1e-9);
        assert_eq!(out.bound, f64::NEG_INFINITY);
    }

    #[test]
    fn events_are_emitted() {
        let mut m = Model::new("ev");
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut cap = crate::expr::LinExpr::new();
        let mut obj = crate::expr::LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            cap += v * (1.0 + i as f64);
            obj += v * (2.0 + (i as f64) * 1.3);
        }
        m.add_le(cap, 7.0, "cap");
        m.set_objective(obj, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let opts = SolverOptions::default();
        let mut incumbents = 0;
        let mut bounds = 0;
        let bb = BranchBound::new(&lp, &opts, |ev| match ev {
            SolverEvent::Incumbent(_) => incumbents += 1,
            SolverEvent::BoundImproved { .. } => bounds += 1,
        });
        let out = bb.run();
        assert_eq!(out.status, SolveStatus::Optimal);
        assert!(incumbents >= 1);
        assert!(bounds >= 1);
    }

    // Multi-worker tests: named `parallel_*` so `cargo test -p
    // milpjoin-milp parallel` selects them.

    fn knapsack(n: usize) -> Model {
        let mut m = Model::new("ks");
        let mut cap = crate::expr::LinExpr::new();
        let mut obj = crate::expr::LinExpr::new();
        for i in 0..n {
            let v = m.add_binary(format!("x{i}"));
            cap += v * (1.0 + (i % 5) as f64);
            obj += v * (1.5 + (i % 7) as f64 * 1.3);
        }
        m.add_le(cap, (n as f64) * 1.2, "cap");
        m.set_objective(obj, Sense::Maximize);
        m
    }

    #[test]
    fn parallel_matches_sequential_optimum() {
        let m = knapsack(14);
        let seq = Solver::new(SolverOptions::default()).solve(&m).unwrap();
        for threads in [2usize, 4] {
            let par = Solver::new(SolverOptions::default().threads(threads))
                .solve(&m)
                .unwrap();
            assert_eq!(par.status, SolveStatus::Optimal, "threads={threads}");
            assert_eq!(par.stop, StopReason::Finished);
            let (a, b) = (seq.objective.unwrap(), par.objective.unwrap());
            assert!((a - b).abs() < 1e-6, "threads={threads}: {a} vs {b}");
            // Proven optimal: bound equals objective.
            assert!((par.bound - b).abs() < 1e-6);
            assert_eq!(par.search.workers_used, threads);
            assert!(par.search.nodes_expanded >= 1);
        }
    }

    #[test]
    fn parallel_events_are_monotone() {
        let m = knapsack(16);
        let events = Mutex::new(Vec::new());
        let r = Solver::new(SolverOptions::default().threads(4))
            .solve_with_callback(&m, |ev| {
                if let SolverEvent::Incumbent(inc) = ev {
                    events.lock().unwrap().push(inc.objective);
                }
            })
            .unwrap();
        assert_eq!(r.status, SolveStatus::Optimal);
        let events = events.into_inner().unwrap();
        assert!(!events.is_empty());
        // Maximization incumbents must be non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9, "{events:?}");
        }
        assert_eq!(events.last().copied(), r.objective);
    }

    #[test]
    fn parallel_infeasible() {
        // 2·Σx = 7 over six binaries: every bound is consistent, so presolve
        // passes the model on, and only the search proves that no integer
        // point hits an odd right-hand side.
        let mut m = Model::new("inf");
        let vars: Vec<_> = (0..6).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_eq(vars.iter().map(|&v| v * 2.0).sum(), 7.0, "odd");
        m.set_objective(vars.iter().map(|&v| v * 1.0).sum(), Sense::Minimize);
        for threads in [1usize, 3] {
            let r = Solver::new(SolverOptions::default().threads(threads))
                .solve(&m)
                .unwrap();
            assert_eq!(r.status, SolveStatus::Infeasible, "threads={threads}");
            assert!(r.search.nodes_expanded > 0, "threads={threads}");
        }
    }

    #[test]
    fn parallel_node_limit_is_global() {
        let m = knapsack(24);
        for threads in [1usize, 4] {
            let mut opts = SolverOptions::default().threads(threads);
            opts.node_limit = Some(5);
            let r = Solver::new(opts).solve(&m).unwrap();
            // The meter is global and checked before every node LP: a lone
            // worker stops exactly at the limit, and with more workers each
            // in-flight one may expand at most one more node after it trips.
            let cap = if threads == 1 { 5 } else { 5 + threads as u64 };
            let nodes = r.search.nodes_expanded;
            assert!(
                nodes <= cap,
                "threads={threads}: node meter exceeded: {nodes} nodes"
            );
            // The root dive and the rounding heuristic run, yet the limit
            // still binds.
            assert_eq!(r.stop, StopReason::NodeLimit, "threads={threads}");
        }
    }

    #[test]
    fn parallel_warm_start_seeds_shared_incumbent() {
        let mut m = Model::new("ws");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_le(a * 3.0 + b * 4.0 + c * 2.0, 6.0, "cap");
        m.set_objective(a * 4.0 + b * 5.0 + c * 3.0, Sense::Maximize);
        let opts = SolverOptions::default().threads(2).initial_solution(vec![
            (a, 1.0),
            (b, 0.0),
            (c, 0.0),
        ]);
        let first_event = Mutex::new(None);
        let r = Solver::new(opts)
            .solve_with_callback(&m, |ev| {
                let mut guard = first_event.lock().unwrap();
                if guard.is_none() {
                    *guard = Some(matches!(ev, SolverEvent::Incumbent(_)));
                }
            })
            .unwrap();
        assert_eq!(r.status, SolveStatus::Optimal);
        assert!((r.objective.unwrap() - 8.0).abs() < 1e-6);
        assert_eq!(
            first_event.into_inner().unwrap(),
            Some(true),
            "warm start must be the first event, before any worker bound"
        );
    }
}
