//! Solver configuration.

use std::time::Duration;

use crate::model::Var;

/// Options controlling a MILP solve: the budgets, the gap target, the
/// worker count and an optional warm start. Everything else about the
/// search is fixed — bound-tightening presolve and a root dive always run,
/// and variables are branched on by pseudocost.
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Wall-clock limit for the whole solve.
    pub time_limit: Option<Duration>,
    /// Stop as soon as the relative gap `(incumbent - bound)/max(|incumbent|, eps)`
    /// falls below this value. `0.0` demands proven optimality (within
    /// tolerances).
    pub relative_gap: f64,
    /// Maximum number of branch-and-bound nodes — a hard cap, checked
    /// before every node LP. A one-worker solve expands at most this many
    /// nodes; with more workers, each in-flight worker may finish the one
    /// node it cleared before the limit tripped.
    pub node_limit: Option<u64>,
    /// Workers of the branch-and-bound search ([`crate::branch_bound`]):
    /// one search over a shared open-node pool, with worker 0 on the
    /// calling thread and the rest on scoped threads. `0` counts as `1`
    /// (the default), which spawns nothing and is deterministic — node
    /// order, events, results. More workers reach the same optimum and
    /// certificates under non-binding budgets, but node exploration order
    /// (and therefore intermediate incumbents, node counts at limits, and
    /// tie-broken optima) depends on thread scheduling.
    pub threads: usize,
    /// Warm start: suggested values for (a subset of) the *integer*
    /// variables. Before the search begins, the hinted variables are fixed
    /// to their (rounded, bound-clamped) values and the resulting LP is
    /// solved — completed by one fractional dive if other integer variables
    /// remain fractional. A feasible completion becomes the root incumbent,
    /// so the anytime stream opens with a finite objective and the search
    /// can prune against it immediately. Infeasible or incompletable hints
    /// are dropped silently (the solve proceeds cold, exactly as without
    /// hints). Hints on continuous variables are ignored — the LP chooses
    /// their optimal completion.
    pub initial_solution: Option<Vec<(Var, f64)>>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            time_limit: None,
            relative_gap: 1e-6,
            node_limit: None,
            threads: 1,
            initial_solution: None,
        }
    }
}

impl SolverOptions {
    /// Convenience: options with a time limit.
    pub fn with_time_limit(limit: Duration) -> Self {
        SolverOptions {
            time_limit: Some(limit),
            ..Default::default()
        }
    }

    /// Builder-style setter for the relative gap target.
    pub fn relative_gap(mut self, gap: f64) -> Self {
        self.relative_gap = gap;
        self
    }

    /// Builder-style setter for a warm-start hint.
    pub fn initial_solution(mut self, hints: Vec<(Var, f64)>) -> Self {
        self.initial_solution = Some(hints);
        self
    }

    /// Builder-style setter for the worker thread count (see
    /// [`Self::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let o = SolverOptions::default();
        assert!(o.time_limit.is_none());
        assert!(o.relative_gap >= 0.0);
        assert!(o.node_limit.is_none());
        assert!(o.initial_solution.is_none());
    }

    #[test]
    fn builders() {
        let o = SolverOptions::with_time_limit(Duration::from_secs(3))
            .relative_gap(0.05)
            .initial_solution(vec![(Var::from_index(0), 1.0)])
            .threads(4);
        assert_eq!(o.time_limit, Some(Duration::from_secs(3)));
        assert_eq!(o.relative_gap, 0.05);
        assert_eq!(o.initial_solution, Some(vec![(Var::from_index(0), 1.0)]));
        assert_eq!(o.threads, 4);
    }

    #[test]
    fn default_is_sequential() {
        assert_eq!(SolverOptions::default().threads, 1);
    }
}
