//! Solutions, incumbents, and solve results.

use std::time::Duration;

use crate::model::Var;
use crate::status::{SearchStats, SolveStatus, StopReason};

/// A (feasible) assignment of values to the model variables.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
}

impl Solution {
    pub fn new(values: Vec<f64>) -> Self {
        Solution { values }
    }

    /// Value of a variable.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.index()]
    }

    /// Rounded 0/1 interpretation of a binary variable.
    pub fn is_one(&self, v: Var) -> bool {
        self.value(v) > 0.5
    }

    /// All values, indexed by variable index.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Emitted every time the branch-and-bound search finds an improving
/// incumbent — the anytime stream the paper's evaluation is built on.
#[derive(Debug, Clone)]
pub struct IncumbentEvent {
    /// Time since the solve started.
    pub elapsed: Duration,
    /// Objective of the new incumbent (model sense).
    pub objective: f64,
    /// Global dual bound at this moment (model sense).
    pub bound: f64,
    /// Nodes processed so far.
    pub nodes: u64,
    /// The incumbent assignment.
    pub solution: Solution,
}

/// Final result of a MILP solve.
#[derive(Debug, Clone)]
pub struct MipResult {
    pub status: SolveStatus,
    /// Which budget (if any) cut the search short
    /// ([`crate::status::StopReason::Finished`] for conclusive verdicts).
    /// Lets callers classify a limit-stopped solve precisely: a node-budget
    /// stop is deterministic (a resource limit), a deadline stop is a
    /// timeout.
    pub stop: StopReason,
    /// Objective of the best incumbent (model sense).
    pub objective: Option<f64>,
    /// Final global dual bound (model sense).
    pub bound: f64,
    /// Best incumbent.
    pub solution: Option<Solution>,
    /// Wall-clock time spent.
    pub solve_time: Duration,
    /// Search counters: nodes expanded, LP iterations (root and total),
    /// workers used, speculative work.
    pub search: SearchStats,
}

impl MipResult {
    /// Relative gap `(objective - bound) / max(|objective|, eps)` in
    /// minimization orientation; `None` without an incumbent.
    pub fn relative_gap(&self) -> Option<f64> {
        let obj = self.objective?;
        let denom = obj.abs().max(1e-10);
        Some(((obj - self.bound).max(0.0)) / denom)
    }

    /// Convenience accessor that panics without a solution.
    pub fn solution_ref(&self) -> &Solution {
        // audit-allow(no-panic): documented panicking convenience accessor
        // (see the doc comment); fallible callers use `solution` directly.
        self.solution.as_ref().expect("no incumbent available")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_accessors() {
        let s = Solution::new(vec![0.0, 0.99, 2.5]);
        assert!(!s.is_one(Var::from_index(0)));
        assert!(s.is_one(Var::from_index(1)));
        assert_eq!(s.value(Var::from_index(2)), 2.5);
    }

    #[test]
    fn relative_gap() {
        let r = MipResult {
            status: SolveStatus::Feasible,
            stop: StopReason::NodeLimit,
            objective: Some(10.0),
            bound: 9.0,
            solution: Some(Solution::new(vec![])),
            solve_time: Duration::ZERO,
            search: SearchStats::default(),
        };
        assert!((r.relative_gap().unwrap() - 0.1).abs() < 1e-12);
    }
}
