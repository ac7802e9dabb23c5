//! Solve outcome classification.

use std::fmt;

/// Final status of a MILP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An incumbent was found and proven optimal within the gap target.
    Optimal,
    /// An incumbent was found but the search stopped on a limit; the
    /// reported gap bounds its distance from the optimum.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A limit was hit before any incumbent was found.
    NoSolutionFound,
}

impl SolveStatus {
    /// Whether a usable incumbent exists.
    pub fn has_solution(self) -> bool {
        matches!(self, SolveStatus::Optimal | SolveStatus::Feasible)
    }
}

/// Why the branch-and-bound search stopped. Orthogonal to [`SolveStatus`]:
/// the status says what was (or was not) found, the stop reason says which
/// budget — if any — cut the search short. Consumers use it to classify
/// "no plan found" outcomes precisely (a node budget is a *resource* limit,
/// deterministic under CPU contention; a wall-clock deadline is a timeout)
/// instead of guessing from the configured options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StopReason {
    /// The search ran to its natural end (optimum proven, gap target
    /// reached, or infeasibility/unboundedness established). Always the
    /// reason when [`SolveStatus::Optimal`] is reported.
    #[default]
    Finished,
    /// The wall-clock deadline ([`crate::SolverOptions::time_limit`]) fired.
    TimeLimit,
    /// The node budget ([`crate::SolverOptions::node_limit`]) was exhausted
    /// — a deterministic stop: with one worker, the same model and options
    /// exhaust the budget at the same tree state regardless of machine
    /// load.
    NodeLimit,
    /// Numerically stalled subtrees were parked and not pruned, leaving the
    /// search inconclusive without any configured budget firing.
    Stalled,
}

/// Per-solve search observability counters, carried on
/// [`crate::branch_bound::SearchOutcome`] and [`crate::MipResult`].
/// Consumers aggregate them across solves to understand where search effort
/// went, how much of it was wasted speculation, and whether a solve was
/// root-LP-bound (one huge root simplex) or search-bound (many nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Branch-and-bound nodes whose LP relaxation was solved — the count
    /// that [`crate::SolverOptions::node_limit`] caps.
    pub nodes_expanded: u64,
    /// Workers the search ran with (`1` by default: the calling thread
    /// alone).
    pub workers_used: usize,
    /// Nodes expanded whose justifying bound (the parent LP objective the
    /// node was opened under) already exceeded the final optimum — work a
    /// clairvoyant search would have pruned. In a parallel search this is
    /// the natural measure of speculative overhead: workers expand
    /// best-bound-at-the-time nodes that a later incumbent retroactively
    /// proves useless. `0` whenever no incumbent was found.
    pub speculative_nodes: u64,
    /// Simplex iterations spent on the *root* relaxation's LP solve
    /// (including a cold retry when the warm verdict needed verification).
    /// A solve where this dominates `total_lp_iterations` is root-LP-bound:
    /// node-level parallelism cannot help it, a faster simplex (or
    /// decomposition) can. `0` when the root was never solved (presolve
    /// infeasibility, zero node budget).
    pub root_lp_iterations: u64,
    /// Simplex iterations across every LP solved during the search: warm
    /// start, node relaxations, and heuristic dives alike. Together with
    /// `nodes_expanded` this separates "many cheap LPs" from "few enormous
    /// ones".
    pub total_lp_iterations: u64,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StopReason::Finished => "finished",
            StopReason::TimeLimit => "time limit",
            StopReason::NodeLimit => "node limit",
            StopReason::Stalled => "numerically stalled",
        };
        f.write_str(s)
    }
}

impl fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SolveStatus::Optimal => "optimal",
            SolveStatus::Feasible => "feasible (limit reached)",
            SolveStatus::Infeasible => "infeasible",
            SolveStatus::Unbounded => "unbounded",
            SolveStatus::NoSolutionFound => "no solution found",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_solution() {
        assert!(SolveStatus::Optimal.has_solution());
        assert!(SolveStatus::Feasible.has_solution());
        assert!(!SolveStatus::Infeasible.has_solution());
        assert!(!SolveStatus::Unbounded.has_solution());
        assert!(!SolveStatus::NoSolutionFound.has_solution());
    }

    #[test]
    fn display() {
        assert_eq!(SolveStatus::Optimal.to_string(), "optimal");
    }
}
