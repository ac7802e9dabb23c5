//! Public solve facade: validation, presolve, search, result mapping.

use std::fmt;

use crate::branch_bound::{BranchBound, SolverEvent};
use crate::lp::LpProblem;
use crate::model::{Model, ModelError};
use crate::options::SolverOptions;
use crate::presolve::{presolve, PresolveOutcome};
use crate::solution::{MipResult, Solution};
use crate::status::{SearchStats, SolveStatus};

/// Errors surfaced before the search starts.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    Model(ModelError),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Model(e) => write!(f, "invalid model: {e}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<ModelError> for SolveError {
    fn from(e: ModelError) -> Self {
        SolveError::Model(e)
    }
}

/// The MILP solver entry point.
///
/// ```
/// use milpjoin_milp::{Model, Sense, Solver, SolverOptions};
/// let mut m = Model::new("tiny");
/// let x = m.add_integer(0.0, 10.0, "x");
/// m.add_le(x * 3.0, 10.0, "c");
/// m.set_objective(x.into(), Sense::Maximize);
/// let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
/// assert_eq!(r.objective, Some(3.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    options: SolverOptions,
}

// Concurrency audit: the solver facade is options-only and every solve
// builds its own working model, LP, and branch-and-bound state on the call
// stack (no interior mutability, no shared scratch), so solvers, models,
// and results may cross thread boundaries freely — the property the
// worker pool of `milpjoin-qopt`'s `QueryService` is built on.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Solver>();
    assert_send_sync::<SolverOptions>();
    assert_send_sync::<Model>();
    assert_send_sync::<MipResult>();
    assert_send_sync::<crate::solution::Solution>();
    assert_send_sync::<crate::branch_bound::SolverEvent>();
};

impl Solver {
    pub fn new(options: SolverOptions) -> Self {
        Solver { options }
    }

    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Solves the model, discarding intermediate events.
    pub fn solve(&self, model: &Model) -> Result<MipResult, SolveError> {
        self.solve_with_callback(model, |_| {})
    }

    /// Solves the model, invoking `callback` on every incumbent and global
    /// bound improvement (the anytime stream). The events of all
    /// [`SolverOptions::threads`] workers are merged into one stream
    /// (serialized under the shared-pool lock, so incumbent objectives stay
    /// monotone and bounds stay sound); the callback therefore must be
    /// `Send` — with more than one worker it may run on a worker thread.
    pub fn solve_with_callback(
        &self,
        model: &Model,
        callback: impl FnMut(&SolverEvent) + Send,
    ) -> Result<MipResult, SolveError> {
        model.validate()?;
        let start = milpjoin_shim::time::now();

        let mut working = model.clone();
        if let PresolveOutcome::Infeasible = presolve(&mut working, 10) {
            return Ok(MipResult {
                status: SolveStatus::Infeasible,
                stop: crate::status::StopReason::Finished,
                objective: None,
                bound: f64::NAN,
                solution: None,
                solve_time: start.elapsed(),
                search: SearchStats::default(),
            });
        }

        let lp = LpProblem::from_model(&working);
        let outcome = BranchBound::new(&lp, &self.options, callback).run();

        let objective = outcome
            .incumbent
            .as_ref()
            .map(|(_, obj)| lp.user_objective(*obj));
        let solution = outcome
            .incumbent
            .map(|(vals, _)| Solution::new(lp.unscale_values(&vals)));
        Ok(MipResult {
            status: outcome.status,
            stop: outcome.stop,
            objective,
            bound: lp.user_objective(outcome.bound),
            solution,
            solve_time: start.elapsed(),
            search: outcome.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Sense;
    use std::time::Duration;

    #[test]
    fn knapsack_via_facade() {
        let mut m = Model::new("ks");
        let items = [(3.0, 4.0), (4.0, 5.0), (2.0, 3.0)];
        let vars: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, _)| m.add_binary(format!("x{i}")))
            .collect();
        let weight: crate::expr::LinExpr = vars.iter().zip(&items).map(|(&v, &(w, _))| v * w).sum();
        let value: crate::expr::LinExpr = vars.iter().zip(&items).map(|(&v, &(_, p))| v * p).sum();
        m.add_le(weight, 6.0, "cap");
        m.set_objective(value, Sense::Maximize);
        let r = Solver::new(SolverOptions::default()).solve(&m).unwrap();
        assert_eq!(r.status, SolveStatus::Optimal);
        assert_eq!(r.objective, Some(8.0));
        let sol = r.solution_ref();
        assert!(m.is_feasible(sol.values(), 1e-6));
        assert!(r.relative_gap().unwrap() <= 1e-6);
    }

    #[test]
    fn invalid_model_rejected() {
        let mut m = Model::new("bad");
        m.add_continuous(2.0, 1.0, "x");
        let err = Solver::default().solve(&m).unwrap_err();
        assert!(matches!(err, SolveError::Model(_)));
    }

    #[test]
    fn presolve_catches_infeasibility() {
        let mut m = Model::new("inf");
        let x = m.add_integer(0.0, 1.0, "x");
        m.add_ge(x * 1.0, 3.0, "c");
        m.set_objective(x.into(), Sense::Minimize);
        let r = Solver::default().solve(&m).unwrap();
        assert_eq!(r.status, SolveStatus::Infeasible);
    }

    #[test]
    fn time_limit_respected() {
        // A model small enough to solve instantly still must return quickly
        // with an aggressive limit.
        let mut m = Model::new("tl");
        let x = m.add_integer(0.0, 5.0, "x");
        m.set_objective(x.into(), Sense::Maximize);
        let opts = SolverOptions::with_time_limit(Duration::from_millis(200));
        let start = milpjoin_shim::time::now();
        let r = Solver::new(opts).solve(&m).unwrap();
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(r.status.has_solution() || r.status == SolveStatus::NoSolutionFound);
    }

    #[test]
    fn anytime_callback_receives_events() {
        let mut m = Model::new("anytime");
        let n = 10;
        let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
        let mut w = crate::expr::LinExpr::new();
        let mut p = crate::expr::LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            w += v * (1.0 + (i % 4) as f64);
            p += v * (1.0 + (i % 5) as f64 * 1.7);
        }
        m.add_le(w, 9.0, "cap");
        m.set_objective(p, Sense::Maximize);
        let mut events = Vec::new();
        let r = Solver::default()
            .solve_with_callback(&m, |ev| {
                if let SolverEvent::Incumbent(inc) = ev {
                    events.push(inc.objective);
                }
            })
            .unwrap();
        assert_eq!(r.status, SolveStatus::Optimal);
        assert!(!events.is_empty());
        // Maximization incumbents must be non-decreasing.
        for pair in events.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-9);
        }
        assert_eq!(events.last().copied(), r.objective);
    }
}
