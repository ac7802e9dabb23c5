//! Bounded-variable simplex: a primal loop with composite phase 1, and a
//! bounded dual phase for re-solves after bound changes.
//!
//! The engine works on the computational form of [`crate::lp::LpProblem`]:
//! all columns (structural and logical) are bounded variables, the
//! constraint system is `A x + s = 0`. Phase 1 of the primal loop
//! ([`Simplex::solve`]) minimizes the sum of primal infeasibilities of the
//! basic variables (no artificial variables are introduced). Cold solves
//! and the primal heuristics use it.
//!
//! Branch and bound re-solves a node with [`Simplex::solve_dual`] instead.
//! Tightening a bound leaves the parent's optimal basis dual feasible but
//! primal infeasible, which is exactly where the dual simplex starts: a
//! few dual pivots restore primal feasibility, and the primal loop confirms
//! the optimum on fresh factors. An infeasible node is reported only with a
//! dual ray certified on fresh factors; every other dual failure restores
//! the starting basis and hands it to the primal loop.
//!
//! Numerical safeguards: sparse LU with partial pivoting, product-form
//! updates with periodic refactorization, Harris-style two-pass ratio tests
//! (primal and dual), relative dual tolerances, and the stall guards below.
//!
//! ## Stall guards
//!
//! Each loop measures progress on the objective it drives: the primal loop
//! on the sum of infeasibilities in phase 1 and on the working (possibly
//! perturbed) objective in phase 2, the dual on the objective of the basic
//! point. A pivot makes progress when it improves the best value since the
//! last reset by a relative 1e-13. The first value after a reset always
//! does; a reset is the start of a solve, a phase change, and the
//! perturbation starting or stopping. A stalling primal solve meets these
//! stages, in this order:
//!
//! 1. **Bland's rule** prices each pivot that follows more than
//!    `STALL_BLAND` (200) pivots in a row without progress, or more than
//!    `DEGEN_LIMIT` (400) in a row that stepped at most 1e-10.
//! 2. **The cost perturbation** engages after `STALL_PERTURB` (400) phase-2
//!    pivots without progress, at most once per solve: a deterministic
//!    relative 1e-7 on every cost. At its optimum it is dropped, and the
//!    true costs are re-optimized from that basis.
//! 3. **A stall exit** ends the solve with [`LpStatus::IterationLimit`].
//!    Once the perturbation has engaged, `STALL_PERTURB` more phase-2
//!    pivots without progress end it, whether the perturbation is still
//!    active (a perturbed stall) or was dropped (a second stall, where
//!    engaging it again would replay the same walk). Phase 1 never
//!    perturbs; there `stall_abort` (5,000 + 4m) pivots without progress
//!    end the solve.
//!
//! The dual phase gives up after `DUAL_STALL` (100) pivots without
//! progress, and the re-solve falls back to the primal loop.
//! [`Simplex::stall_counts`] counts each stage.
//!
//! A [`Simplex`] owns one [`LuFactors`] and refills it in place on every
//! refactorization, and it keeps its loop vectors across solves, so a
//! re-solve allocates nothing once they have grown. A refactorization is
//! skipped when the installed factors are a clean build of the current
//! basis order: no pivot since, and no dependent column replaced by that
//! build. Building the same columns in the same order gives the same
//! factors bit for bit, so the skip changes no pivot, only the time. It
//! fires where a verdict is confirmed on fresh factors that are fresh
//! already, e.g. when a solve starts on an optimal basis.

use std::time::Instant;

use crate::lp::LpProblem;
use crate::lu::LuFactors;

/// Basis membership of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarStatus {
    Basic,
    AtLower,
    AtUpper,
    /// Nonbasic free variable, resting at zero.
    Free,
}

/// A saved basis: per-column status, and the column at each basis
/// position. Factorizing the same columns in the same order gives the same
/// factors bit for bit, so a basis saved right after an optimality verdict
/// on fresh factors loads with the simplex multipliers of that verdict —
/// even on an ill-conditioned basis, where another order can move reduced
/// costs past the tolerance. An order that does not list exactly the basic
/// columns (e.g. empty) is rebuilt in column order on load.
#[derive(Debug, Clone, PartialEq)]
pub struct BasisSnapshot {
    pub status: Vec<VarStatus>,
    pub order: Vec<usize>,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
    IterationLimit,
    TimeLimit,
}

/// Result summary of one simplex run.
#[derive(Debug, Clone)]
pub struct LpResult {
    pub status: LpStatus,
    /// Minimization-space objective (without offset); meaningful for
    /// `Optimal` and as a best-effort value otherwise.
    pub objective: f64,
    pub iterations: u64,
}

/// Resource limits for one solve call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplexLimits {
    pub max_iterations: Option<u64>,
    pub deadline: Option<Instant>,
}

/// Which route a [`Simplex::solve_dual`] re-solve took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DualPath {
    /// Dual pivots reached a primal feasible point, and the primal loop
    /// took over from there to confirm optimality on fresh factors.
    Dual,
    /// The dual proved the LP infeasible, and the proof held on fresh
    /// factors.
    CertifiedInfeasible,
    /// The dual gave up: the starting basis was restored and the primal
    /// loop ran from it.
    Fallback,
}

/// How the dual phase ended, with the number of dual pivots it made.
enum DualEnd {
    Feasible(u64),
    Infeasible(u64),
    Failed(u64),
}

const FEAS_TOL: f64 = 1e-7;
const DUAL_TOL: f64 = 1e-7;
const PIVOT_TOL: f64 = 1e-8;
const REFACTOR_INTERVAL: usize = 100;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGEN_LIMIT: u64 = 400;
/// Primal pivots without progress before switching to Bland's rule.
const STALL_BLAND: u64 = 200;
/// Phase-2 pivots without progress before the cost perturbation engages;
/// once it has, before the solve ends.
const STALL_PERTURB: u64 = 400;
/// Dual pivots without objective progress before the dual gives up.
const DUAL_STALL: u64 = 100;

/// What the stall guards of one [`Simplex`] did, summed over its solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StallCounts {
    /// Primal pivots priced by Bland's rule.
    pub bland_pivots: u64,
    /// Primal solves that engaged the cost perturbation.
    pub perturbations: u64,
    /// Primal solves a stall ended with [`LpStatus::IterationLimit`]: a
    /// second stall after the perturbation was dropped, a stall under the
    /// perturbation, or the last-resort abort.
    pub stall_exits: u64,
    /// Dual phases that gave up after `DUAL_STALL` pivots without
    /// progress.
    pub dual_stalls: u64,
}

impl std::ops::AddAssign for StallCounts {
    fn add_assign(&mut self, other: StallCounts) {
        self.bland_pivots += other.bland_pivots;
        self.perturbations += other.perturbations;
        self.stall_exits += other.stall_exits;
        self.dual_stalls += other.dual_stalls;
    }
}

/// The best value so far of a quantity a loop drives down, and the pivots
/// since it last fell.
#[derive(Debug, Clone, Copy)]
struct Progress {
    /// `+∞` until the first value after a reset.
    best: f64,
    stalled: u64,
}

impl Progress {
    const RESET: Progress = Progress {
        best: f64::INFINITY,
        stalled: 0,
    };

    /// Records the value after a pivot and returns the pivots since the
    /// last progress. The first value after a reset is progress, and so is
    /// one below the best by a relative 1e-13. The first case is tested on
    /// its own: at an infinite best the margin is `∞ − ∞`, a NaN that every
    /// comparison fails.
    fn record(&mut self, value: f64) -> u64 {
        if self.best.is_infinite() || value < self.best - 1e-13 * (1.0 + self.best.abs()) {
            self.best = value;
            self.stalled = 0;
        } else {
            self.stalled += 1;
        }
        self.stalled
    }
}

/// The cost perturbation over one primal solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Perturbation {
    Never,
    Active,
    /// Engaged, then dropped at its optimum to re-optimize the true costs.
    Dropped,
}

/// What the primal loop does after [`StallGuard::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallStep {
    Pivot,
    /// Engage the cost perturbation, then pivot.
    Perturb,
    /// End the solve with [`LpStatus::IterationLimit`].
    Exit(StallExit),
}

/// Which stall ended a primal solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallExit {
    /// The perturbed optimum did not hold on the true costs and the walk
    /// stalled again. The perturbation is deterministic, so engaging it
    /// again would replay the same walk.
    SecondStall,
    /// The walk stalled under the perturbation.
    PerturbedStall,
    /// `stall_abort` pivots without progress. Phase 2 reaches a
    /// perturbation rule first, so only phase 1 gets here.
    Abort,
}

/// The stall guard of one primal solve: it tracks the phase objective
/// (the sum of infeasibilities in phase 1, the working objective in phase
/// 2) and the step lengths, and decides when Bland's rule prices, when the
/// cost perturbation engages and when a stall ends the solve (see the
/// module docs for the stages).
#[derive(Debug, Clone)]
struct StallGuard {
    phase1: bool,
    /// Reset on a phase change and whenever the perturbation starts or
    /// stops: each changes the objective being measured.
    progress: Progress,
    /// Consecutive pivots with a step of at most 1e-10.
    degenerate: u64,
    perturbation: Perturbation,
    /// Pivots without progress that end the solve in any phase. Scaled to
    /// the problem size: large degenerate LPs crawl through long zero-step
    /// stretches between improvements.
    abort: u64,
}

impl StallGuard {
    fn new(rows: usize) -> Self {
        StallGuard {
            phase1: false,
            progress: Progress::RESET,
            degenerate: 0,
            perturbation: Perturbation::Never,
            abort: 5_000 + 4 * rows as u64,
        }
    }

    /// Records the phase objective at the start of an iteration and says
    /// what the loop does next.
    fn observe(&mut self, phase1: bool, objective: f64) -> StallStep {
        if phase1 != self.phase1 {
            self.phase1 = phase1;
            self.progress = Progress::RESET;
        }
        let stalled = self.progress.record(objective);
        if stalled >= self.abort {
            return StallStep::Exit(StallExit::Abort);
        }
        if phase1 || stalled < STALL_PERTURB {
            return StallStep::Pivot;
        }
        match self.perturbation {
            Perturbation::Never => {
                self.perturbation = Perturbation::Active;
                self.progress = Progress::RESET;
                StallStep::Perturb
            }
            Perturbation::Active => StallStep::Exit(StallExit::PerturbedStall),
            Perturbation::Dropped => StallStep::Exit(StallExit::SecondStall),
        }
    }

    /// Whether Bland's rule prices the next pivot: after [`DEGEN_LIMIT`]
    /// consecutive degenerate pivots or [`STALL_BLAND`] pivots without
    /// progress (micro-steps of the Harris ratio test evade the first).
    fn bland(&self) -> bool {
        self.degenerate > DEGEN_LIMIT || self.progress.stalled > STALL_BLAND
    }

    /// Records the step length of a pivot.
    fn pivoted(&mut self, step: f64) {
        if step > 1e-10 {
            self.degenerate = 0;
        } else {
            self.degenerate += 1;
        }
    }

    /// The loop dropped the perturbation at its optimum.
    fn perturbation_dropped(&mut self) {
        self.perturbation = Perturbation::Dropped;
        self.progress = Progress::RESET;
        self.degenerate = 0;
    }
}

/// How the installed LU factors relate to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LuState {
    /// They do not factor it (a basis was installed since): build before
    /// any solve with them.
    Stale,
    /// They factor it through etas, or through a build that replaced
    /// dependent columns. A refactorization gives other factors.
    Updated,
    /// They are a clean build of the current basis order: no eta since,
    /// no column replaced. A refactorization would reproduce them bit for
    /// bit, so `factorize` skips it.
    Fresh,
}

/// Vectors of the primal and dual loops, kept across solves so that a
/// re-solve allocates nothing. No value carries over: each loop zeroes
/// them at entry, and every use overwrites an entry before reading it.
#[derive(Debug, Default)]
struct LoopScratch {
    /// Simplex multipliers (row-indexed after BTRAN).
    y: Vec<f64>,
    /// Entering direction (position-indexed after FTRAN).
    dvec: Vec<f64>,
    /// Pivot row of the dual (row-indexed after BTRAN).
    rho: Vec<f64>,
    /// `(column, dual slack, rate)` candidates of the dual ratio test.
    eligible: Vec<(usize, f64, f64)>,
}

fn feas_tol(bound: f64) -> f64 {
    FEAS_TOL * (1.0 + bound.abs())
}

/// The simplex engine. Owns working bounds (so branch-and-bound can tighten
/// them without touching the shared [`LpProblem`]) and the current basis.
pub struct Simplex<'a> {
    lp: &'a LpProblem,
    pub lb: Vec<f64>,
    pub ub: Vec<f64>,
    status: Vec<VarStatus>,
    /// basis[i] = column occupying basis position i.
    basis: Vec<usize>,
    x: Vec<f64>,
    /// LU factors of the basis, refilled in place by every build.
    lu: LuFactors,
    lu_state: LuState,
    /// LU builds run so far; skipped refactorizations do not count.
    refactorizations: u64,
    /// What the stall guards did so far.
    stalls: StallCounts,
    /// Work vector of the FTRAN/BTRAN solves, reused across iterations.
    lu_work: Vec<f64>,
    /// Right-hand side of `compute_basics`, reused across calls.
    rhs: Vec<f64>,
    scratch: LoopScratch,
    iterations_total: u64,
    /// Active cost perturbation (anti-cycling), sparse over columns.
    perturbation: Option<Vec<f64>>,
}

impl<'a> Simplex<'a> {
    pub fn new(lp: &'a LpProblem) -> Self {
        let ncols = lp.num_cols();
        let m = lp.num_rows;
        let mut s = Simplex {
            lp,
            lb: lp.lb.clone(),
            ub: lp.ub.clone(),
            status: vec![VarStatus::AtLower; ncols],
            basis: Vec::with_capacity(m),
            x: vec![0.0; ncols],
            lu: LuFactors::default(),
            lu_state: LuState::Stale,
            refactorizations: 0,
            stalls: StallCounts::default(),
            lu_work: Vec::new(),
            rhs: Vec::new(),
            scratch: LoopScratch::default(),
            iterations_total: 0,
            perturbation: None,
        };
        s.install_slack_basis();
        s
    }

    /// Resets to the all-logical basis.
    pub fn install_slack_basis(&mut self) {
        let n = self.lp.num_structural;
        let m = self.lp.num_rows;
        self.basis.clear();
        for j in 0..n {
            self.status[j] = self.nonbasic_resting_status(j);
        }
        for i in 0..m {
            self.status[n + i] = VarStatus::Basic;
            self.basis.push(n + i);
        }
        self.lu_state = LuState::Stale;
    }

    fn nonbasic_resting_status(&self, j: usize) -> VarStatus {
        let (l, u) = (self.lb[j], self.ub[j]);
        if l.is_finite() {
            VarStatus::AtLower
        } else if u.is_finite() {
            VarStatus::AtUpper
        } else {
            VarStatus::Free
        }
    }

    /// Overrides the bounds of a column (used by branch and bound). The
    /// caller must re-solve afterwards.
    pub fn set_bounds(&mut self, col: usize, lb: f64, ub: f64) {
        self.lb[col] = lb;
        self.ub[col] = ub;
    }

    /// Restores bounds from the underlying problem.
    pub fn reset_bounds(&mut self) {
        self.lb.copy_from_slice(&self.lp.lb);
        self.ub.copy_from_slice(&self.lp.ub);
    }

    pub fn basis_snapshot(&self) -> BasisSnapshot {
        BasisSnapshot {
            status: self.status.clone(),
            order: self.basis.clone(),
        }
    }

    /// Loads a basis snapshot (see [`BasisSnapshot`] for the order). Falls
    /// back to the slack basis if the snapshot does not contain exactly `m`
    /// basic columns, and keeps the current factors if it is the basis
    /// already installed.
    pub fn load_basis(&mut self, snap: &BasisSnapshot) {
        if self.lu_state != LuState::Stale && snap.status == self.status && snap.order == self.basis
        {
            // Already installed: keep the factors.
            return;
        }
        let m = self.lp.num_rows;
        if snap.status.len() != self.status.len()
            || snap
                .status
                .iter()
                .filter(|s| **s == VarStatus::Basic)
                .count()
                != m
        {
            self.install_slack_basis();
            return;
        }
        self.status.copy_from_slice(&snap.status);
        let mut listed = vec![false; self.status.len()];
        let order_ok = snap.order.len() == m
            && snap.order.iter().all(|&j| {
                let fresh = j < listed.len() && !listed[j] && self.status[j] == VarStatus::Basic;
                if fresh {
                    listed[j] = true;
                }
                fresh
            });
        self.basis.clear();
        if order_ok {
            self.basis.extend_from_slice(&snap.order);
        } else {
            let status = &self.status;
            self.basis
                .extend((0..status.len()).filter(|&j| status[j] == VarStatus::Basic));
        }
        self.lu_state = LuState::Stale;
    }

    /// Current column values (structural prefix is the model solution).
    pub fn values(&self) -> &[f64] {
        &self.x
    }

    /// Minimization-space objective of the current point (without offset).
    pub fn objective(&self) -> f64 {
        let mut acc = 0.0;
        for (j, &c) in self.lp.obj.iter().enumerate() {
            if c != 0.0 {
                acc += c * self.x[j];
            }
        }
        acc
    }

    pub fn iterations_total(&self) -> u64 {
        self.iterations_total
    }

    /// LU builds run so far (refactorizations skipped because the factors
    /// were already fresh do not count).
    pub fn refactorizations(&self) -> u64 {
        self.refactorizations
    }

    /// What the stall guards did so far.
    pub fn stall_counts(&self) -> StallCounts {
        self.stalls
    }

    /// Objective coefficient of a column including any active anti-cycling
    /// perturbation.
    fn cost(&self, j: usize) -> f64 {
        match &self.perturbation {
            Some(p) => self.lp.obj[j] + p[j],
            None => self.lp.obj[j],
        }
    }

    /// Objective of the current point under the working (possibly
    /// perturbed) costs — the quantity the iteration actually decreases.
    fn working_objective(&self) -> f64 {
        match &self.perturbation {
            Some(p) => {
                let mut acc = 0.0;
                for j in 0..self.lp.num_cols() {
                    let c = self.lp.obj[j] + p[j];
                    if c != 0.0 {
                        acc += c * self.x[j];
                    }
                }
                acc
            }
            None => self.objective(),
        }
    }

    fn snap_nonbasic_values(&mut self) {
        for j in 0..self.lp.num_cols() {
            match self.status[j] {
                VarStatus::AtLower => {
                    if self.lb[j].is_finite() {
                        self.x[j] = self.lb[j];
                    } else {
                        self.status[j] = self.nonbasic_resting_status(j);
                        self.x[j] = match self.status[j] {
                            VarStatus::AtUpper => self.ub[j],
                            _ => 0.0,
                        };
                    }
                }
                VarStatus::AtUpper => {
                    if self.ub[j].is_finite() {
                        self.x[j] = self.ub[j];
                    } else {
                        self.status[j] = self.nonbasic_resting_status(j);
                        self.x[j] = match self.status[j] {
                            VarStatus::AtLower => self.lb[j],
                            _ => 0.0,
                        };
                    }
                }
                VarStatus::Free => self.x[j] = 0.0,
                VarStatus::Basic => {}
            }
        }
    }

    /// The current basis factorization. Every caller runs strictly after
    /// a `factorize()` on the solve path (`lu` is only stale between basis
    /// invalidation and the next solve), so the accessor centralizes that
    /// invariant instead of a check per use site.
    fn factors(&self) -> &LuFactors {
        self.assert_factored();
        &self.lu
    }

    /// Mutable form of [`factors`](Self::factors), for eta updates.
    fn factors_mut(&mut self) -> &mut LuFactors {
        self.assert_factored();
        &mut self.lu
    }

    fn assert_factored(&self) {
        if self.lu_state == LuState::Stale {
            // audit-allow(no-panic): single audited choke point — the factors
            // are rebuilt at solve entry before any read reaches this.
            panic!("basis factorized on the solve path");
        }
    }

    /// FTRAN on the current factors: row-indexed `b` in, position-indexed
    /// solution out.
    fn ftran(&mut self, b: &mut [f64]) {
        let mut work = std::mem::take(&mut self.lu_work);
        self.factors().ftran(b, &mut work);
        self.lu_work = work;
    }

    /// BTRAN on the current factors: position-indexed `c` in,
    /// row-indexed solution out.
    fn btran(&mut self, c: &mut [f64]) {
        let mut work = std::mem::take(&mut self.lu_work);
        self.factors().btran(c, &mut work);
        self.lu_work = work;
    }

    /// Refactorizes the basis in place, unless the factors are a fresh
    /// build of it already (see `LuState::Fresh`).
    fn factorize(&mut self) {
        if self.lu_state == LuState::Fresh {
            return;
        }
        let lp = self.lp;
        let basis = &self.basis;
        self.lu
            .factorize(lp.num_rows, |k| lp.basis_column(basis[k]));
        self.refactorizations += 1;
        self.lu_state = if self.lu.replaced().is_empty() {
            LuState::Fresh
        } else {
            LuState::Updated
        };
        // Defective columns were replaced by logicals; mirror that in the
        // basis bookkeeping.
        for &(pos, row) in self.lu.replaced() {
            let kicked = self.basis[pos];
            let logical = self.lp.num_structural + row;
            if kicked == logical {
                continue;
            }
            self.status[kicked] = self.nonbasic_resting_status(kicked);
            // If the logical was nonbasic it now becomes basic; if it was
            // "basic" at another position the factorization would have
            // pivoted its row, so this cannot occur.
            self.status[logical] = VarStatus::Basic;
            self.basis[pos] = logical;
        }
    }

    /// Recomputes basic variable values from the nonbasic assignment.
    fn compute_basics(&mut self) {
        self.snap_nonbasic_values();
        let mut rhs = std::mem::take(&mut self.rhs);
        rhs.clear();
        rhs.resize(self.lp.num_rows, 0.0);
        for j in 0..self.lp.num_cols() {
            if self.status[j] != VarStatus::Basic && self.x[j] != 0.0 {
                self.lp.column_axpy(j, -self.x[j], &mut rhs);
            }
        }
        self.ftran(&mut rhs);
        for (i, &col) in self.basis.iter().enumerate() {
            self.x[col] = rhs[i];
        }
        self.rhs = rhs;
    }

    /// Runs the simplex method to completion or a limit.
    pub fn solve(&mut self, limits: &SimplexLimits) -> LpResult {
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = self.primal(limits, &mut scratch);
        self.scratch = scratch;
        res
    }

    /// The primal loop of [`solve`](Self::solve), on the loop scratch.
    fn primal(&mut self, limits: &SimplexLimits, scratch: &mut LoopScratch) -> LpResult {
        let m = self.lp.num_rows;
        let ncols = self.lp.num_cols();
        let max_iter = limits
            .max_iterations
            .unwrap_or_else(|| 2_000 + 40 * (m as u64 + ncols as u64));

        // Reuse existing factors when only bounds changed since the last
        // solve (the common warm-start path in branch and bound).
        if self.lu_state == LuState::Stale {
            self.factorize();
        }
        self.compute_basics();

        self.perturbation = None;
        let mut iterations = 0u64;
        let mut etas_since_refactor = 0usize;
        // Incremental value updates drift numerically; every termination
        // verdict is confirmed against freshly refactorized basic values
        // before it is returned.
        let mut confirmed = false;
        let mut guard = StallGuard::new(m);
        // Per-iteration vectors: the duals `y` (indexed by row) and the
        // entering direction `dvec` (by position).
        let LoopScratch { y, dvec, .. } = scratch;
        for v in [&mut *y, &mut *dvec] {
            v.clear();
            v.resize(m, 0.0);
        }

        loop {
            if iterations >= max_iter {
                return self.finish(LpStatus::IterationLimit, iterations);
            }
            if iterations.is_multiple_of(64) {
                if let Some(deadline) = limits.deadline {
                    if milpjoin_shim::time::now() >= deadline {
                        return self.finish(LpStatus::TimeLimit, iterations);
                    }
                }
            }
            if etas_since_refactor >= REFACTOR_INTERVAL {
                self.factorize();
                self.compute_basics();
                etas_since_refactor = 0;
            }

            // Phase detection: total violation of basic bounds (violations
            // below the per-bound tolerance are ignored so that phase 1
            // cannot tread water on sub-tolerance noise).
            let mut total_violation = 0.0;
            for &col in &self.basis {
                let v = self.x[col];
                if v < self.lb[col] - feas_tol(self.lb[col]) {
                    total_violation += self.lb[col] - v;
                } else if v > self.ub[col] + feas_tol(self.ub[col]) {
                    total_violation += v - self.ub[col];
                }
            }
            let phase1 = total_violation > 1e-6;
            let objective = if phase1 {
                total_violation
            } else {
                self.working_objective()
            };
            match guard.observe(phase1, objective) {
                StallStep::Pivot => {}
                StallStep::Perturb => {
                    self.stalls.perturbations += 1;
                    // Deterministic tiny cost perturbation: breaks the exact
                    // dual ties that tolerance-based Bland's rule cannot.
                    let pert: Vec<f64> = (0..ncols)
                        .map(|j| {
                            let h = (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                            let u = (h >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
                            1e-7 * (1.0 + self.lp.obj[j].abs()) * (0.5 + u)
                        })
                        .collect();
                    self.perturbation = Some(pert);
                }
                StallStep::Exit(_) => {
                    self.stalls.stall_exits += 1;
                    return self.finish(LpStatus::IterationLimit, iterations);
                }
            }

            // Dual values for the phase objective.
            for (i, &col) in self.basis.iter().enumerate() {
                y[i] = if phase1 {
                    let v = self.x[col];
                    if v < self.lb[col] - feas_tol(self.lb[col]) {
                        -1.0
                    } else if v > self.ub[col] + feas_tol(self.ub[col]) {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    self.cost(col)
                };
            }
            self.btran(y); // now indexed by row

            // Pricing: Dantzig rule on scale-normalized reduced costs, or
            // Bland's rule (first eligible index) under prolonged
            // degeneracy.
            let use_bland = guard.bland();
            let mut entering: Option<(usize, f64, f64)> = None; // (col, score, direction)
            for j in 0..ncols {
                let st = self.status[j];
                if st == VarStatus::Basic {
                    continue;
                }
                // Fixed columns (equality slacks, fixed variables) cannot
                // move and must never enter.
                if self.ub[j] - self.lb[j] <= 0.0 {
                    continue;
                }
                let cj = if phase1 { 0.0 } else { self.cost(j) };
                let d = cj - self.lp.column_dot(j, y);
                // The matrix is equilibration-scaled, so an absolute dual
                // tolerance plus a small noise floor proportional to the
                // dot-product magnitude is appropriate. Phase 1 uses a much
                // tighter tolerance: a repair direction may carry a tiny
                // reduced cost when fixing the violation needs a long walk,
                // and missing it turns a feasible LP into a false
                // "infeasible".
                let floor = if phase1 { 1e-10 } else { DUAL_TOL };
                // The tolerance never falls below its floor, so a reduced
                // cost with the wrong sign or within the floor cannot be
                // eligible: skip the noise estimate for it.
                let eligible_sign = match st {
                    VarStatus::AtLower => d < -floor,
                    VarStatus::AtUpper => d > floor,
                    _ => d.abs() > floor,
                };
                if !eligible_sign {
                    continue;
                }
                let scale = 1.0 + cj.abs() + self.lp.column_abs_dot(j, y);
                let tol = if phase1 {
                    floor + 1e-13 * scale
                } else {
                    floor + 1e-12 * scale
                };
                let dir = match st {
                    VarStatus::AtLower | VarStatus::Free if d < -tol => 1.0,
                    VarStatus::AtUpper | VarStatus::Free if d > tol => -1.0,
                    _ => continue,
                };
                if use_bland {
                    entering = Some((j, d.abs(), dir));
                    break;
                }
                let score = d.abs() / scale.sqrt();
                match entering {
                    Some((_, best, _)) if score <= best => {}
                    _ => entering = Some((j, score, dir)),
                }
            }

            let Some((q, _, dir)) = entering else {
                // Optimal under perturbed costs: drop the perturbation and
                // re-optimize the true objective from this (usually
                // optimal) basis.
                if !phase1 && self.perturbation.is_some() {
                    self.perturbation = None;
                    guard.perturbation_dropped();
                    confirmed = false;
                    iterations += 1;
                    continue;
                }
                // Phase optimal — but only trust values computed from a
                // fresh factorization (incremental updates drift).
                if !confirmed {
                    self.factorize();
                    self.compute_basics();
                    etas_since_refactor = 0;
                    confirmed = true;
                    iterations += 1;
                    continue;
                }
                if phase1 {
                    // Confirmed phase-1 optimum with positive violation.
                    return self.finish(LpStatus::Infeasible, iterations);
                }
                return self.finish(LpStatus::Optimal, iterations);
            };
            confirmed = false;
            if use_bland {
                self.stalls.bland_pivots += 1;
            }

            // Entering direction d = B^-1 a_q.
            dvec.fill(0.0);
            self.lp.column_axpy(q, 1.0, dvec);
            self.ftran(dvec);

            // Ratio test (two-pass Harris style; strict Bland variant under
            // prolonged degeneracy).
            let (step, leaving) = self.ratio_test(q, dir, dvec, phase1, use_bland);

            match leaving {
                RatioOutcome::Unbounded => {
                    if phase1 {
                        // Should not happen: infeasibility is bounded below.
                        return self.finish(LpStatus::Infeasible, iterations);
                    }
                    return self.finish(LpStatus::Unbounded, iterations);
                }
                RatioOutcome::BoundFlip => {
                    // Entering moves to its opposite bound; basis unchanged.
                    let t = step;
                    self.apply_step(q, dir, t, dvec);
                    self.status[q] = match self.status[q] {
                        VarStatus::AtLower => VarStatus::AtUpper,
                        VarStatus::AtUpper => VarStatus::AtLower,
                        s => s,
                    };
                    self.x[q] = match self.status[q] {
                        VarStatus::AtLower => self.lb[q],
                        VarStatus::AtUpper => self.ub[q],
                        _ => self.x[q],
                    };
                }
                RatioOutcome::Leaving { row, to_upper } => {
                    let t = step;
                    self.apply_step(q, dir, t, dvec);
                    let out_col = self.basis[row];
                    self.status[out_col] = if to_upper {
                        VarStatus::AtUpper
                    } else {
                        VarStatus::AtLower
                    };
                    self.x[out_col] = if to_upper {
                        self.ub[out_col]
                    } else {
                        self.lb[out_col]
                    };
                    self.status[q] = VarStatus::Basic;
                    self.basis[row] = q;
                    let ok = self.factors_mut().push_eta(row, dvec);
                    self.lu_state = LuState::Updated;
                    if ok {
                        etas_since_refactor += 1;
                    } else {
                        self.factorize();
                        self.compute_basics();
                        etas_since_refactor = 0;
                    }
                }
            }

            guard.pivoted(step);
            iterations += 1;
        }
    }

    /// Moves entering `q` by `dir * t` and updates basics along `dvec`.
    fn apply_step(&mut self, q: usize, dir: f64, t: f64, dvec: &[f64]) {
        if t == 0.0 {
            return;
        }
        self.x[q] += dir * t;
        for (i, &di) in dvec.iter().enumerate() {
            if di != 0.0 {
                let col = self.basis[i];
                self.x[col] -= dir * t * di;
            }
        }
    }

    fn ratio_test(
        &self,
        q: usize,
        dir: f64,
        dvec: &[f64],
        phase1: bool,
        bland: bool,
    ) -> (f64, RatioOutcome) {
        // The entering variable's own range provides a bound-flip candidate.
        let own_range = self.ub[q] - self.lb[q];
        let mut limit = if own_range.is_finite() {
            own_range
        } else {
            f64::INFINITY
        };
        let mut limit_is_flip = own_range.is_finite();

        // Pass 1: step limit. Harris relaxation is disabled in Bland mode so
        // that the anti-cycling argument applies to exact ratios.
        for (i, &di) in dvec.iter().enumerate() {
            if di.abs() <= PIVOT_TOL {
                continue;
            }
            let col = self.basis[i];
            let delta = -dir * di; // movement of basic per unit step
            let xb = self.x[col];
            let (l, u) = (self.lb[col], self.ub[col]);
            let target = self.breakpoint(xb, l, u, delta, phase1);
            let Some(target) = target else { continue };
            let slack = if bland { 0.0 } else { feas_tol(target) };
            let relaxed = target + slack * delta.signum();
            let ratio = ((relaxed - xb) / delta).max(0.0);
            if ratio < limit {
                limit = ratio;
                limit_is_flip = false;
            }
        }

        if limit.is_infinite() {
            return (0.0, RatioOutcome::Unbounded);
        }

        // Pass 2: among blocking rows within the limit, choose the largest
        // pivot magnitude (or the smallest variable index under Bland's
        // rule); step to the chosen row's exact bound.
        let mut best: Option<(usize, f64, f64, bool)> = None; // (row, |pivot| or -col, exact ratio, to_upper)
        for (i, &di) in dvec.iter().enumerate() {
            if di.abs() <= PIVOT_TOL {
                continue;
            }
            let col = self.basis[i];
            let delta = -dir * di;
            let xb = self.x[col];
            let (l, u) = (self.lb[col], self.ub[col]);
            let Some(target) = self.breakpoint(xb, l, u, delta, phase1) else {
                continue;
            };
            let exact = ((target - xb) / delta).max(0.0);
            if exact <= limit + 1e-15 {
                // The leaving variable rests at whichever bound blocked.
                let to_upper = target == u && l != u;
                // Bland: prefer the smallest column index; otherwise the
                // largest pivot for numerical stability.
                let score = if bland { -(col as f64) } else { di.abs() };
                match best {
                    Some((_, bs, _, _)) if score <= bs => {}
                    _ => best = Some((i, score, exact, to_upper)),
                }
            }
        }

        match best {
            Some((row, _, exact, to_upper)) => (exact, RatioOutcome::Leaving { row, to_upper }),
            None if limit_is_flip => (own_range, RatioOutcome::BoundFlip),
            None => {
                // Relaxation artifacts: fall back to the entering variable's
                // own range as a flip if possible, otherwise declare
                // unbounded.
                if own_range.is_finite() {
                    (own_range, RatioOutcome::BoundFlip)
                } else {
                    (0.0, RatioOutcome::Unbounded)
                }
            }
        }
    }

    /// The bound at which a basic variable blocks, given its movement
    /// direction, or `None` if it never blocks.
    fn breakpoint(&self, xb: f64, l: f64, u: f64, delta: f64, phase1: bool) -> Option<f64> {
        let below = xb < l - feas_tol(l);
        let above = xb > u + feas_tol(u);
        if delta > 0.0 {
            if below {
                // Infeasible below, moving up: becomes feasible at l.
                Some(l)
            } else if above {
                // Above the upper bound, moving up: no gradient change.
                if phase1 {
                    None
                } else {
                    Some(u)
                }
            } else if u.is_finite() {
                Some(u)
            } else {
                None
            }
        } else if above {
            Some(u)
        } else if below {
            if phase1 {
                None
            } else {
                Some(l)
            }
        } else if l.is_finite() {
            Some(l)
        } else {
            None
        }
    }

    /// Re-solves after bound changes from a dual feasible basis — the
    /// optimal basis of the LP before the bounds were tightened — with the
    /// bounded dual simplex:
    ///
    /// * dual pivots run until the point is primal feasible; the primal
    ///   loop then confirms optimality on fresh factors under its own
    ///   pricing tolerance (and pivots on if it finds an entering column);
    /// * an `Infeasible` verdict is returned only when the dual ray is
    ///   certified on fresh factors (see `certify_infeasible`);
    /// * any other failure — a dual infeasible start, a stall, the pivot
    ///   cap, an unusable pivot, an uncertified ray, the deadline — restores
    ///   the starting basis and runs the primal loop from it (which reports
    ///   a passed deadline before its first pivot).
    pub fn solve_dual(&mut self, limits: &SimplexLimits) -> (LpResult, DualPath) {
        let start = self.basis_snapshot();
        let mut scratch = std::mem::take(&mut self.scratch);
        let end = self.dual_phase(limits, &mut scratch);
        self.scratch = scratch;
        let (mut res, path, pivots) = match end {
            DualEnd::Feasible(pivots) => (self.solve(limits), DualPath::Dual, pivots),
            DualEnd::Infeasible(pivots) => (
                self.finish(LpStatus::Infeasible, 0),
                DualPath::CertifiedInfeasible,
                pivots,
            ),
            DualEnd::Failed(pivots) => {
                self.load_basis(&start);
                (self.solve(limits), DualPath::Fallback, pivots)
            }
        };
        self.iterations_total += pivots;
        res.iterations += pivots;
        (res, path)
    }

    /// The dual pivots of [`solve_dual`](Self::solve_dual): Dantzig choice
    /// of the leaving row (largest bound violation), Harris two-pass ratio
    /// test over the pivot row.
    fn dual_phase(&mut self, limits: &SimplexLimits, scratch: &mut LoopScratch) -> DualEnd {
        let m = self.lp.num_rows;
        self.perturbation = None;
        if self.lu_state == LuState::Stale {
            self.factorize();
        }
        self.compute_basics();
        let LoopScratch {
            y,
            dvec,
            rho,
            eligible,
        } = scratch;
        for v in [&mut *y, &mut *rho, &mut *dvec] {
            v.clear();
            v.resize(m, 0.0);
        }
        self.dual_values(y);
        if !self.dual_feasible(y) {
            return DualEnd::Failed(0);
        }
        let cap = 100 + m as u64;
        let mut pivots = 0u64;
        // The dual objective (the objective of the basic point) never
        // falls: track its negation, which must.
        let mut progress = Progress::RESET;
        loop {
            if progress.stalled >= DUAL_STALL {
                self.stalls.dual_stalls += 1;
                return DualEnd::Failed(pivots);
            }
            if pivots >= cap {
                return DualEnd::Failed(pivots);
            }
            if pivots.is_multiple_of(16) {
                if let Some(deadline) = limits.deadline {
                    if milpjoin_shim::time::now() >= deadline {
                        return DualEnd::Failed(pivots);
                    }
                }
            }
            if self.factors().num_etas() >= REFACTOR_INTERVAL {
                self.factorize();
                self.compute_basics();
            }
            let Some((r, target)) = self.dual_leaving_row() else {
                return DualEnd::Feasible(pivots);
            };
            let p = self.basis[r];
            // +1: the leaving variable must rise to `target`; -1: fall.
            let rise = if self.x[p] < target { 1.0 } else { -1.0 };
            rho.fill(0.0);
            rho[r] = 1.0;
            self.btran(rho);
            if pivots > 0 {
                self.dual_values(y);
            }
            let Some(q) = self.dual_ratio_test(rho, y, rise, eligible) else {
                return if self.certify_infeasible(p, rho) {
                    DualEnd::Infeasible(pivots)
                } else {
                    DualEnd::Failed(pivots)
                };
            };
            dvec.fill(0.0);
            self.lp.column_axpy(q, 1.0, dvec);
            self.ftran(dvec);
            // The pivot element from the column must agree in sign with the
            // one the row priced (x_p moves by -alpha per unit of x_q).
            let alpha = dvec[r];
            if alpha.abs() <= PIVOT_TOL || alpha * self.lp.column_dot(q, rho) <= 0.0 {
                return DualEnd::Failed(pivots);
            }
            let step = (self.x[p] - target) / alpha;
            self.apply_step(q, 1.0, step, dvec);
            self.x[p] = target;
            self.status[p] = if target == self.ub[p] && self.lb[p] != self.ub[p] {
                VarStatus::AtUpper
            } else {
                VarStatus::AtLower
            };
            self.status[q] = VarStatus::Basic;
            self.basis[r] = q;
            let ok = self.factors_mut().push_eta(r, dvec);
            self.lu_state = LuState::Updated;
            if !ok {
                self.factorize();
                self.compute_basics();
            }
            pivots += 1;
            progress.record(-self.objective());
        }
    }

    /// Simplex multipliers `y = B^-T c_B` of the true costs.
    fn dual_values(&mut self, y: &mut [f64]) {
        for (i, &col) in self.basis.iter().enumerate() {
            y[i] = self.lp.obj[col];
        }
        self.btran(y);
    }

    /// Whether every movable nonbasic column prices out under the primal
    /// loop's optimality tolerance, i.e. the basis is dual feasible.
    fn dual_feasible(&self, y: &[f64]) -> bool {
        (0..self.lp.num_cols()).all(|j| {
            if self.status[j] == VarStatus::Basic || self.ub[j] - self.lb[j] <= 0.0 {
                return true;
            }
            let cj = self.lp.obj[j];
            let d = cj - self.lp.column_dot(j, y);
            let tol = DUAL_TOL + 1e-12 * (1.0 + cj.abs() + self.lp.column_abs_dot(j, y));
            match self.status[j] {
                VarStatus::AtLower => d >= -tol,
                VarStatus::AtUpper => d <= tol,
                _ => d.abs() <= tol,
            }
        })
    }

    /// The basis position with the largest bound violation and the bound
    /// it must reach; `None` when the basic point is primal feasible.
    fn dual_leaving_row(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (row, violation, target)
        for (i, &col) in self.basis.iter().enumerate() {
            let (v, l, u) = (self.x[col], self.lb[col], self.ub[col]);
            let (violation, target) = if v < l - feas_tol(l) {
                (l - v, l)
            } else if v > u + feas_tol(u) {
                (v - u, u)
            } else {
                continue;
            };
            match best {
                Some((_, b, _)) if violation <= b => {}
                _ => best = Some((i, violation, target)),
            }
        }
        best.map(|(i, _, target)| (i, target))
    }

    /// Harris two-pass dual ratio test over the pivot row `rho = B^-T e_r`.
    /// A dual step `t` moves each reduced cost to `d_j - t * beta_j`, with
    /// `beta_j = -rise * alpha_j` the rate at which raising `x_j` moves the
    /// leaving variable toward its bound. Returns the entering column, or
    /// `None` when no column can move the leaving variable (a dual ray).
    /// `eligible` is scratch for the candidates.
    fn dual_ratio_test(
        &self,
        rho: &[f64],
        y: &[f64],
        rise: f64,
        eligible: &mut Vec<(usize, f64, f64)>,
    ) -> Option<usize> {
        // (column, dual slack, rate) of every column that can enter.
        eligible.clear();
        let mut limit = f64::INFINITY;
        for j in 0..self.lp.num_cols() {
            let st = self.status[j];
            if st == VarStatus::Basic || self.ub[j] - self.lb[j] <= 0.0 {
                continue;
            }
            let beta = -rise * self.lp.column_dot(j, rho);
            if beta.abs() <= PIVOT_TOL {
                continue;
            }
            let d = self.lp.obj[j] - self.lp.column_dot(j, y);
            // A column at its lower bound can only rise (beta > 0 helps),
            // one at its upper bound only fall; a free column either way.
            let (slack, rate) = match st {
                VarStatus::AtLower if beta > 0.0 => (d, beta),
                VarStatus::AtUpper if beta < 0.0 => (-d, -beta),
                VarStatus::Free => (d * beta.signum(), beta.abs()),
                _ => continue,
            };
            limit = limit.min((slack.max(0.0) + DUAL_TOL) / rate);
            eligible.push((j, slack, rate));
        }
        // Pass 2: the largest rate among the columns whose exact ratio fits
        // under the relaxed limit.
        let mut best: Option<(usize, f64)> = None;
        for &(j, slack, rate) in eligible.iter() {
            if slack.max(0.0) / rate <= limit {
                match best {
                    Some((_, r)) if rate <= r => {}
                    _ => best = Some((j, rate)),
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Certifies a dual ray for leaving column `p` on fresh factors: with
    /// `rho = B^-T e_r`, every solution of `A x = 0` has
    /// `x_p = -sum_j (rho . a_j) x_j` over the nonbasic columns, so if that
    /// sum cannot reach `p`'s violated bound anywhere in the nonbasic box,
    /// the LP is infeasible. Any doubt (the column left the basis on
    /// refactorization, the violation vanished, an unbounded helpful
    /// column, a margin within noise) refuses the certificate. `rho` is
    /// scratch of length m.
    fn certify_infeasible(&mut self, p: usize, rho: &mut [f64]) -> bool {
        self.factorize();
        self.compute_basics();
        let Some(r) = self.basis.iter().position(|&c| c == p) else {
            return false;
        };
        let (v, l, u) = (self.x[p], self.lb[p], self.ub[p]);
        let rise = if v < l - feas_tol(l) {
            true
        } else if v > u + feas_tol(u) {
            false
        } else {
            return false;
        };
        rho.fill(0.0);
        rho[r] = 1.0;
        self.btran(rho);
        // Pivot-row entries below this are rounding noise of the BTRAN
        // and the dot product (the matrix is equilibrated, so true entries
        // are commensurate with `rho`); they are dropped even next to an
        // infinite bound.
        let noise = 1e-11 * rho.iter().fold(1.0f64, |acc, v| acc.max(v.abs()));
        // Range of x_p over the nonbasic box, and the magnitude of its
        // terms for the noise margin.
        let (mut lo, mut hi, mut magnitude) = (0.0f64, 0.0f64, 0.0f64);
        for j in 0..self.lp.num_cols() {
            if self.status[j] == VarStatus::Basic {
                continue;
            }
            let a = self.lp.column_dot(j, rho);
            if a.abs() <= noise {
                continue;
            }
            let (at_lb, at_ub) = (-a * self.lb[j], -a * self.ub[j]);
            lo += at_lb.min(at_ub);
            hi += at_lb.max(at_ub);
            for t in [at_lb, at_ub] {
                if t.is_finite() {
                    magnitude += t.abs();
                }
            }
        }
        if rise {
            hi < l - feas_tol(l) - 1e-9 * magnitude
        } else {
            lo > u + feas_tol(u) + 1e-9 * magnitude
        }
    }

    fn finish(&mut self, status: LpStatus, iterations: u64) -> LpResult {
        self.iterations_total += iterations;
        LpResult {
            status,
            objective: self.objective(),
            iterations,
        }
    }

    /// Columns violating their bounds, with violation amounts (diagnostics).
    pub fn infeasible_columns(&self) -> Vec<(usize, f64)> {
        (0..self.lp.num_cols())
            .filter_map(|j| {
                let v = self.x[j];
                let viol = (self.lb[j] - v).max(0.0) + (v - self.ub[j]).max(0.0);
                (viol > 0.0).then_some((j, viol))
            })
            .collect()
    }

    /// Primal infeasibility of the current point (for diagnostics).
    pub fn primal_infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for j in 0..self.lp.num_cols() {
            let v = self.x[j];
            total += (self.lb[j] - v).max(0.0) + (v - self.ub[j]).max(0.0);
        }
        total
    }

    /// Access to the working bounds (for heuristics).
    pub fn bounds(&self) -> (&[f64], &[f64]) {
        (&self.lb, &self.ub)
    }
}

#[derive(Debug, Clone, Copy)]
enum RatioOutcome {
    Leaving { row: usize, to_upper: bool },
    BoundFlip,
    Unbounded,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lp::LpProblem;
    use crate::model::{Model, Sense};

    fn solve_model(m: &Model) -> (LpResult, Vec<f64>, LpProblem) {
        let lp = LpProblem::from_model(m);
        let mut sx = Simplex::new(&lp);
        let res = sx.solve(&SimplexLimits::default());
        let vals = sx.values()[..lp.num_structural].to_vec();
        (res, vals, lp)
    }

    #[test]
    fn simple_2d_lp() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6, x,y >= 0
        // optimum at x=1.6, y=1.2, obj=2.8
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, f64::INFINITY, "y");
        m.add_le(x + y * 2.0, 4.0, "c0");
        m.add_le(x * 3.0 + y, 6.0, "c1");
        m.set_objective(x + y, Sense::Maximize);
        let (res, vals, lp) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((lp.user_objective(res.objective) - 2.8).abs() < 1e-6);
        assert!((vals[0] - 1.6).abs() < 1e-6);
        assert!((vals[1] - 1.2).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + y = 2, x - y = 0 -> x = y = 1
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        let y = m.add_continuous(0.0, 10.0, "y");
        m.add_eq(x + y, 2.0, "c0");
        m.add_eq(x - y, 0.0, "c1");
        m.set_objective(x + y, Sense::Minimize);
        let (res, vals, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((vals[0] - 1.0).abs() < 1e-6);
        assert!((vals[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 1.0, "x");
        m.add_ge(x.into(), 2.0, "c0");
        m.set_objective(x.into(), Sense::Minimize);
        let (res, _, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, f64::INFINITY, "x");
        m.set_objective(x.into(), Sense::Maximize);
        let (res, _, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Unbounded);
    }

    #[test]
    fn negative_lower_bounds() {
        // min x s.t. x >= -5 -> x = -5
        let mut m = Model::new("t");
        let x = m.add_continuous(-5.0, 5.0, "x");
        m.set_objective(x.into(), Sense::Minimize);
        let (res, vals, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((vals[0] + 5.0).abs() < 1e-8);
    }

    #[test]
    fn free_variable_lp() {
        // min x + 2y, x free, y in [0, 3], x + y >= 1, x >= -4 via constraint
        let mut m = Model::new("t");
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, 3.0, "y");
        m.add_ge(x + y, 1.0, "c0");
        m.add_ge(x.into(), -4.0, "c1");
        m.set_objective(x + y * 2.0, Sense::Minimize);
        let (res, vals, lp) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        // obj = x + 2y = (x + y) + y >= 1 + y, minimized at y = 0, x = 1.
        assert!((lp.user_objective(res.objective) - 1.0).abs() < 1e-6);
        assert!((vals[0] - 1.0).abs() < 1e-6);
        assert!(vals[1].abs() < 1e-6);
    }

    #[test]
    fn ranged_constraint() {
        // max x s.t. 1 <= x <= 3 (as range row), x in [0, 10]
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        m.add_range(1.0, LinExprOf(x), 3.0, "r");
        m.set_objective(x.into(), Sense::Maximize);
        let (res, vals, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((vals[0] - 3.0).abs() < 1e-7);
    }

    #[allow(non_snake_case)]
    fn LinExprOf(v: crate::model::Var) -> crate::expr::LinExpr {
        v.into()
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Highly degenerate: many redundant constraints through the origin.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        let y = m.add_continuous(0.0, 10.0, "y");
        for i in 0..20 {
            let a = 1.0 + (i as f64) * 0.1;
            m.add_ge(x * a + y, 0.0, format!("c{i}"));
        }
        m.add_le(x + y, 5.0, "cap");
        m.set_objective(x + y, Sense::Maximize);
        let (res, _, lp) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((lp.user_objective(res.objective) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn warm_start_after_bound_change() {
        // Solve, tighten a bound, re-solve from the old basis.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 4.0, "x");
        let y = m.add_continuous(0.0, 4.0, "y");
        m.add_le(x + y, 6.0, "c0");
        m.set_objective(x + y, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let mut sx = Simplex::new(&lp);
        let r1 = sx.solve(&SimplexLimits::default());
        assert_eq!(r1.status, LpStatus::Optimal);
        assert!((r1.objective - (-6.0)).abs() < 1e-6); // min space: -(x+y)

        sx.set_bounds(0, 0.0, 1.0); // x <= 1
        let (r2, path) = sx.solve_dual(&SimplexLimits::default());
        assert_eq!(path, DualPath::Dual);
        assert_eq!(r2.status, LpStatus::Optimal);
        assert!((r2.objective - (-5.0)).abs() < 1e-6);
        // The warm-started solve should be quick.
        assert!(
            r2.iterations <= 10,
            "warm start took {} iterations",
            r2.iterations
        );
    }

    #[test]
    fn dual_infeasible_free_column_falls_back_to_the_optimum() {
        // min x + 2y, x free, y in [0, 3], x + y >= 1, x >= -4 (a row):
        // optimum 1 at x = 1, y = 0. Starting from a basis that leaves the
        // free column nonbasic with a nonzero reduced cost, the dual has no
        // dual feasible start; the primal loop must take over from it.
        let mut m = Model::new("t");
        let x = m.add_continuous(f64::NEG_INFINITY, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, 3.0, "y");
        m.add_ge(x + y, 1.0, "c0");
        m.add_ge(x.into(), -4.0, "c1");
        m.set_objective(x + y * 2.0, Sense::Minimize);
        let lp = LpProblem::from_model(&m);
        let mut sx = Simplex::new(&lp);
        sx.load_basis(&BasisSnapshot {
            status: vec![
                VarStatus::Free,
                VarStatus::AtLower,
                VarStatus::Basic,
                VarStatus::Basic,
            ],
            order: Vec::new(),
        });
        let (res, path) = sx.solve_dual(&SimplexLimits::default());
        assert_eq!(path, DualPath::Fallback);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((lp.user_objective(res.objective) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn uncertified_dual_ray_is_not_reported_infeasible() {
        // min 2x + 1e-6 n s.t. x + 5e-9 n >= 1.5, x in [0, 2], n in
        // [0, 1e4] (integer columns keep their scale): the optimum uses x
        // alone. Once x <= 1.5 - 1e-5, only n can make up the row, at a
        // rate below the pivot tolerance, so the dual ratio test finds no
        // entering column. The row's bound over the nonbasic box still
        // reaches x <= 1.5 - 1e-5 (n = 2000 does it), so the ray must not
        // be certified: the re-solve falls back to the primal loop and
        // reports whatever the primal reports from a cold start.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 2.0, "x");
        let n = m.add_integer(0.0, 1e4, "n");
        m.add_ge(x + n * 5e-9, 1.5, "c");
        m.set_objective(x * 2.0 + n * 1e-6, Sense::Minimize);
        let lp = LpProblem::from_model(&m);
        let cap = (1.5 - 1e-5) / lp.col_scale[0];
        let mut warm = Simplex::new(&lp);
        assert_eq!(
            warm.solve(&SimplexLimits::default()).status,
            LpStatus::Optimal
        );
        warm.set_bounds(0, lp.lb[0], cap);
        let (res, path) = warm.solve_dual(&SimplexLimits::default());
        let mut cold = Simplex::new(&lp);
        cold.set_bounds(0, lp.lb[0], cap);
        let reference = cold.solve(&SimplexLimits::default());
        assert_eq!(path, DualPath::Fallback);
        assert_ne!(res.status, LpStatus::Infeasible);
        assert_eq!(res.status, reference.status);
    }

    #[test]
    fn fresh_factors_are_not_rebuilt() {
        // max x + y s.t. x + 2y <= 4, 3x + y <= 6: the slack basis is not
        // optimal, so a cold solve pivots and confirms on a second build.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, f64::INFINITY, "x");
        let y = m.add_continuous(0.0, f64::INFINITY, "y");
        m.add_le(x + y * 2.0, 4.0, "c0");
        m.add_le(x * 3.0 + y, 6.0, "c1");
        m.set_objective(x + y, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let mut cold = Simplex::new(&lp);
        let res = cold.solve(&SimplexLimits::default());
        assert_eq!(res.status, LpStatus::Optimal);
        assert_eq!(cold.refactorizations(), 2);
        // A second solve confirms on the factors the last build left.
        let res = cold.solve(&SimplexLimits::default());
        assert_eq!(res.status, LpStatus::Optimal);
        assert_eq!(cold.refactorizations(), 2);

        // A solve that starts on the optimal basis builds it once, and the
        // optimality check confirms on those fresh factors.
        let mut warm = Simplex::new(&lp);
        warm.load_basis(&cold.basis_snapshot());
        let again = warm.solve(&SimplexLimits::default());
        assert_eq!(again.status, LpStatus::Optimal);
        assert_eq!(warm.refactorizations(), 1);
        assert_eq!(again.objective.to_bits(), res.objective.to_bits());
    }

    #[test]
    fn a_build_that_replaced_a_column_is_built_again() {
        // x and y have the same scaled column, so a basis holding both is
        // singular: the build replaces y by the logical of row 1.
        let mut m = Model::new("t");
        let x = m.add_continuous(0.0, 10.0, "x");
        let y = m.add_continuous(0.0, 10.0, "y");
        m.add_le(x + y, 4.0, "c0");
        m.add_le(x * 2.0 + y * 2.0, 10.0, "c1");
        m.set_objective(x + y, Sense::Maximize);
        let lp = LpProblem::from_model(&m);
        let mut sx = Simplex::new(&lp);
        sx.load_basis(&BasisSnapshot {
            status: vec![
                VarStatus::Basic,
                VarStatus::Basic,
                VarStatus::AtLower,
                VarStatus::AtLower,
            ],
            order: vec![0, 1],
        });
        sx.factorize();
        assert_eq!(sx.lu.replaced(), [(1, 1)]);
        assert_eq!(sx.basis, [0, 3]);
        assert_eq!(sx.refactorizations(), 1);
        // The patched basis is built again: its factors came from another
        // elimination order.
        sx.factorize();
        assert!(sx.lu.replaced().is_empty());
        assert_eq!(sx.refactorizations(), 2);
        // That build is clean, so the next one is skipped.
        sx.factorize();
        assert_eq!(sx.refactorizations(), 2);
    }

    /// Deterministic generator for the differential tests (xorshift64*).
    struct Gen(u64);

    impl Gen {
        fn unit(&mut self) -> f64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
        }

        fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * self.unit()
        }
    }

    /// One differential case: a random LP over boxed columns whose ranged
    /// rows contain a random interior point (so the root LP is feasible),
    /// solved to optimality; then a few column boxes shrink — often past
    /// what the rows allow — and the LP is re-solved warm through the dual
    /// and cold through the primal. Status and objective must agree.
    /// Returns the warm solve's route.
    fn dual_matches_cold_primal(seed: u64) -> DualPath {
        let mut g = Gen(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let n = 3 + (g.unit() * 6.0) as usize;
        let rows = 2 + (g.unit() * 5.0) as usize;
        let mut m = Model::new("diff");
        let mut point = Vec::new();
        let vars: Vec<_> = (0..n)
            .map(|j| {
                let lo = g.range(-3.0, 0.0);
                let hi = lo + g.range(0.5, 5.0);
                point.push(g.range(lo, hi));
                m.add_continuous(lo, hi, format!("x{j}"))
            })
            .collect();
        for i in 0..rows {
            let mut expr = crate::expr::LinExpr::new();
            let mut activity = 0.0;
            for (j, &v) in vars.iter().enumerate() {
                if g.unit() < 0.6 {
                    let a = g.range(-2.0, 2.0);
                    expr += v * a;
                    activity += a * point[j];
                }
            }
            let half = g.range(0.05, 1.5);
            m.add_range(activity - half, expr, activity + half, format!("r{i}"));
        }
        let mut obj = crate::expr::LinExpr::new();
        for &v in &vars {
            obj += v * g.range(-1.0, 1.0);
        }
        m.set_objective(obj, Sense::Minimize);
        let lp = LpProblem::from_model(&m);

        let mut warm = Simplex::new(&lp);
        let root = warm.solve(&SimplexLimits::default());
        assert_eq!(root.status, LpStatus::Optimal, "seed {seed}: root LP");
        let mut cold = Simplex::new(&lp);
        for _ in 0..1 + (g.unit() * 3.0) as usize {
            let j = (g.unit() * n as f64) as usize;
            let (l, u) = (lp.lb[j], lp.ub[j]);
            let a = g.range(l, u);
            let b = g.range(l, u);
            let (l2, u2) = (a.min(b), a.max(b));
            warm.set_bounds(j, l2, u2);
            cold.set_bounds(j, l2, u2);
        }
        let (w, path) = warm.solve_dual(&SimplexLimits::default());
        let c = cold.solve(&SimplexLimits::default());
        assert_eq!(w.status, c.status, "seed {seed}: warm {path:?} vs cold");
        if c.status == LpStatus::Optimal {
            assert!(
                (w.objective - c.objective).abs() <= 1e-6 * (1.0 + c.objective.abs()),
                "seed {seed}: warm {path:?} objective {} vs cold {}",
                w.objective,
                c.objective
            );
        }
        path
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        #[test]
        fn dual_resolve_agrees_with_cold_primal(seed in 0u64..u64::MAX) {
            dual_matches_cold_primal(seed);
        }
    }

    #[test]
    fn differential_cases_cover_every_dual_route() {
        let mut dual = 0;
        let mut certified = 0;
        for seed in 0..200 {
            match dual_matches_cold_primal(seed) {
                DualPath::Dual => dual += 1,
                DualPath::CertifiedInfeasible => certified += 1,
                DualPath::Fallback => {}
            }
        }
        assert!(dual >= 100, "{dual} of 200 re-solves finished in the dual");
        assert!(
            certified >= 25,
            "{certified} of 200 re-solves certified infeasible"
        );
    }

    /// `max Σ_j (1 + j/n) x_j` subject to one row `x_j <= 1` per column:
    /// from the slack basis, every primal pivot brings one `x_j` in at a
    /// step of 1 and raises the objective, so the walk never stalls.
    fn diagonal_lp(n: usize, weighted: bool) -> Model {
        let mut m = Model::new("diagonal");
        let mut obj = crate::expr::LinExpr::new();
        for j in 0..n {
            let x = m.add_continuous(0.0, f64::INFINITY, format!("x{j}"));
            m.add_le(x.into(), 1.0, format!("r{j}"));
            if weighted {
                obj += x * (1.0 + j as f64 / n as f64);
            }
        }
        m.set_objective(obj, Sense::Maximize);
        m
    }

    /// Stage pinned: none. A primal walk that improves at every pivot, for
    /// longer than `STALL_BLAND` and `STALL_PERTURB` pivots, is priced by
    /// Dantzig's rule throughout and never perturbed.
    #[test]
    fn an_improving_walk_never_engages_a_stall_stage() {
        let n = 2 * STALL_PERTURB as usize;
        let lp = LpProblem::from_model(&diagonal_lp(n, true));
        let mut sx = Simplex::new(&lp);
        let res = sx.solve(&SimplexLimits::default());
        assert_eq!(res.status, LpStatus::Optimal);
        assert!(res.iterations >= n as u64, "{} pivots", res.iterations);
        assert_eq!(sx.stall_counts(), StallCounts::default());
    }

    /// Stage pinned: none. A dual re-solve whose every pivot raises the
    /// objective runs past `DUAL_STALL` pivots and ends in the dual.
    #[test]
    fn an_improving_dual_runs_past_the_dual_stall_limit() {
        let n = 2 * DUAL_STALL as usize;
        let lp = LpProblem::from_model(&diagonal_lp(n, true));
        let mut sx = Simplex::new(&lp);
        assert_eq!(
            sx.solve(&SimplexLimits::default()).status,
            LpStatus::Optimal
        );
        // Every x_j sits at 1 in the optimal basis; capping each at a half
        // leaves n basic columns over their bounds, and each dual pivot
        // repairs one and lowers the objective by a half of its weight.
        for j in 0..n {
            sx.set_bounds(j, lp.lb[j], 0.5 / lp.col_scale[j]);
        }
        let (res, path) = sx.solve_dual(&SimplexLimits::default());
        assert_eq!(path, DualPath::Dual);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!(res.iterations >= n as u64, "{} pivots", res.iterations);
        assert_eq!(sx.stall_counts(), StallCounts::default());
    }

    /// Stage pinned: the dual give-up. With a zero objective no dual pivot
    /// makes progress, so the dual gives up `DUAL_STALL` pivots after its
    /// first, restores the starting basis and hands it to the primal loop.
    #[test]
    fn a_dual_without_progress_gives_up_after_dual_stall_pivots() {
        let n = 2 * DUAL_STALL as usize;
        let lp = LpProblem::from_model(&diagonal_lp(n, false));
        let mut sx = Simplex::new(&lp);
        // Every x_j basic at 1, every row tight: dual feasible under a zero
        // objective, and primal feasible until the caps below.
        let mut status = vec![VarStatus::Basic; n];
        status.extend((0..n).map(|i| sx.nonbasic_resting_status(n + i)));
        sx.load_basis(&BasisSnapshot {
            status,
            order: Vec::new(),
        });
        for j in 0..n {
            sx.set_bounds(j, lp.lb[j], 0.5 / lp.col_scale[j]);
        }
        let (res, path) = sx.solve_dual(&SimplexLimits::default());
        assert_eq!(path, DualPath::Fallback);
        assert_eq!(res.status, LpStatus::Optimal);
        assert_eq!(sx.stall_counts().dual_stalls, 1);
    }

    /// Stage pinned: the last-resort abort, `stall_abort` phase-1 pivots
    /// without progress. One row `Σ x_j >= 1e15` over 5,100 columns boxed
    /// in `[0, 0.01]`: each phase-1 iteration flips one column to its upper
    /// bound, and all of them together cut the violation by 51, below the
    /// relative 1e-13 (about 100) that counts as progress. No test solve
    /// of an encoding reaches this stage.
    #[test]
    fn a_phase_one_stall_ends_at_stall_abort() {
        let n = 5_100;
        let mut m = Model::new("out of reach");
        let mut row = crate::expr::LinExpr::new();
        for j in 0..n {
            row += m.add_continuous(0.0, 0.01, format!("x{j}"));
        }
        m.add_ge(row, 1e15, "r");
        let lp = LpProblem::from_model(&m);
        let mut sx = Simplex::new(&lp);
        let res = sx.solve(&SimplexLimits::default());
        assert_eq!(res.status, LpStatus::IterationLimit);
        // The first value counts as progress; the abort fires on the
        // observation after `stall_abort` more.
        assert_eq!(res.iterations, StallGuard::new(1).abort);
        let counts = sx.stall_counts();
        assert_eq!(counts.stall_exits, 1);
        assert_eq!(counts.perturbations, 0);
    }

    /// Feeds `count` copies of `objective` to the guard and returns the
    /// first step other than a plain pivot, with its observation number.
    fn observe_flat(
        guard: &mut StallGuard,
        phase1: bool,
        objective: f64,
        count: u64,
    ) -> Option<(u64, StallStep)> {
        (1..=count).find_map(|k| match guard.observe(phase1, objective) {
            StallStep::Pivot => None,
            step => Some((k, step)),
        })
    }

    /// Stages pinned: none engage while every observation improves, however
    /// long the walk, in either phase.
    #[test]
    fn guard_counts_the_first_value_after_each_reset_as_progress() {
        let mut guard = StallGuard::new(10);
        for phase1 in [true, false, true] {
            for k in 0..2 * STALL_PERTURB {
                let step = guard.observe(phase1, 1e6 - k as f64);
                assert_eq!(step, StallStep::Pivot, "phase1 {phase1}, pivot {k}");
                assert!(!guard.bland(), "phase1 {phase1}, pivot {k}");
                guard.pivoted(1.0);
            }
        }
    }

    /// Stage pinned: Bland's rule, after `STALL_BLAND` pivots without
    /// progress and after `DEGEN_LIMIT` degenerate pivots.
    #[test]
    fn guard_switches_to_bland_on_a_stall_or_a_degenerate_streak() {
        let mut guard = StallGuard::new(10);
        assert_eq!(observe_flat(&mut guard, false, 5.0, STALL_BLAND + 1), None);
        assert!(!guard.bland());
        guard.observe(false, 5.0);
        assert!(guard.bland());
        // Progress ends the stall.
        guard.observe(false, 4.0);
        assert!(!guard.bland());

        let mut guard = StallGuard::new(10);
        for k in 0..=DEGEN_LIMIT {
            guard.observe(false, -(k as f64));
            guard.pivoted(0.0);
        }
        assert!(guard.bland());
        guard.pivoted(1.0);
        assert!(!guard.bland());
    }

    /// Stages pinned: the perturbation engages after `STALL_PERTURB`
    /// phase-2 pivots without progress, and a stall under it ends the
    /// solve within `STALL_PERTURB` more pivots, long before `stall_abort`.
    #[test]
    fn guard_ends_a_perturbed_stall_within_stall_perturb_pivots() {
        let mut guard = StallGuard::new(10);
        assert_eq!(
            observe_flat(&mut guard, false, 5.0, 2 * STALL_PERTURB),
            Some((STALL_PERTURB + 1, StallStep::Perturb))
        );
        assert!(!guard.bland(), "the perturbation resets the stall count");
        assert_eq!(
            observe_flat(&mut guard, false, 7.0, 2 * STALL_PERTURB),
            Some((
                STALL_PERTURB + 1,
                StallStep::Exit(StallExit::PerturbedStall)
            ))
        );
        assert!(2 * STALL_PERTURB + 2 < guard.abort);
    }

    /// Stage pinned: the second stall, a stall after the perturbation was
    /// dropped at its optimum.
    #[test]
    fn guard_ends_a_second_stall_after_the_perturbation_was_dropped() {
        let mut guard = StallGuard::new(10);
        let engaged = observe_flat(&mut guard, false, 5.0, 2 * STALL_PERTURB);
        assert_eq!(engaged, Some((STALL_PERTURB + 1, StallStep::Perturb)));
        observe_flat(&mut guard, false, 6.0, 10);
        guard.perturbation_dropped();
        assert_eq!(
            observe_flat(&mut guard, false, 5.0, 2 * STALL_PERTURB),
            Some((STALL_PERTURB + 1, StallStep::Exit(StallExit::SecondStall)))
        );
    }

    /// Stage pinned: the last-resort abort. Phase 1 never perturbs, so only
    /// `stall_abort` pivots without progress end a phase-1 stall.
    #[test]
    fn guard_aborts_a_phase_one_stall_at_stall_abort() {
        let mut guard = StallGuard::new(10);
        let abort = guard.abort;
        assert_eq!(abort, 5_040);
        assert_eq!(
            observe_flat(&mut guard, true, 3.0, 2 * abort),
            Some((abort + 1, StallStep::Exit(StallExit::Abort)))
        );
        // A phase change resets the count: the phase-2 objective is on
        // another scale.
        let mut guard = StallGuard::new(10);
        observe_flat(&mut guard, true, 3.0, STALL_PERTURB);
        assert_eq!(
            observe_flat(&mut guard, false, 3.0, 2 * STALL_PERTURB),
            Some((STALL_PERTURB + 1, StallStep::Perturb))
        );
    }

    #[test]
    fn many_bound_flips() {
        // Boxed variables with no constraints: optimum is a pure sequence of
        // bound flips.
        let mut m = Model::new("t");
        let mut obj = crate::expr::LinExpr::new();
        for i in 0..8 {
            let v = m.add_continuous(-1.0, 1.0, format!("v{i}"));
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            obj += v * sign;
        }
        m.set_objective(obj, Sense::Minimize);
        let (res, vals, _) = solve_model(&m);
        assert_eq!(res.status, LpStatus::Optimal);
        assert!((res.objective + 8.0).abs() < 1e-7);
        for (i, v) in vals.iter().enumerate() {
            let expect = if i % 2 == 0 { -1.0 } else { 1.0 };
            assert!((v - expect).abs() < 1e-8);
        }
    }
}
