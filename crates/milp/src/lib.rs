//! # milpjoin-milp — a from-scratch mixed integer linear programming solver
//!
//! This crate implements the MILP solving substrate required by the
//! reproduction of *"Solving the Join Ordering Problem via Mixed Integer
//! Linear Programming"* (Trummer & Koch, SIGMOD 2017). The paper delegates
//! query optimization to an off-the-shelf MILP solver (Gurobi); since no such
//! solver is available here, this crate provides one:
//!
//! * a **model builder** ([`Model`], [`LinExpr`]) for variables, linear
//!   constraints, and a linear objective;
//! * a **bounded-variable primal simplex** over a sparse LU-factorized basis
//!   with product-form updates, plus a bounded **dual simplex** phase that
//!   re-solves a branch-and-bound node from its parent's optimal basis
//!   ([`simplex`], [`lu`]). The LU factors and the eta file are flat
//!   vectors that each simplex refills in place, and a basis whose
//!   installed factors are already a clean build of it is not factorized
//!   again;
//! * **branch and bound** with best-first + diving node selection,
//!   pseudocost branching, bound-tightening presolve, rounding and diving
//!   primal heuristics, and — crucially for the paper — **anytime behaviour**:
//!   a stream of improving incumbents with global lower bounds, so a
//!   guaranteed optimality factor is available at every point in time
//!   ([`solver`], [`branch_bound`]). One search runs
//!   [`SolverOptions::threads`] workers over a shared open-node pool, one
//!   of them on the calling thread; its node budget is a hard cap.
//!
//! ## Quick example
//!
//! ```
//! use milpjoin_milp::{Model, Sense, Solver, SolverOptions, SolveStatus};
//!
//! let mut m = Model::new("knapsack");
//! let items = [(3.0, 4.0), (4.0, 5.0), (2.0, 3.0)]; // (weight, value)
//! let vars: Vec<_> =
//!     items.iter().enumerate().map(|(i, _)| m.add_binary(format!("x{i}"))).collect();
//! let weight: milpjoin_milp::LinExpr =
//!     vars.iter().zip(&items).map(|(&v, &(w, _))| v * w).sum();
//! let value: milpjoin_milp::LinExpr =
//!     vars.iter().zip(&items).map(|(&v, &(_, p))| v * p).sum();
//! m.add_le(weight, 6.0, "capacity");
//! m.set_objective(value, Sense::Maximize);
//!
//! let result = Solver::new(SolverOptions::default()).solve(&m).unwrap();
//! assert_eq!(result.status, SolveStatus::Optimal);
//! assert_eq!(result.objective.unwrap(), 8.0);
//! ```

// The simplex / branch-and-bound kernels walk several parallel arrays
// (values, bounds, integrality flags) by column index; iterator rewrites of
// those loops obscure the math for no gain.
#![allow(clippy::needless_range_loop)]

pub mod branch_bound;
pub mod branching;
pub mod expr;
pub mod heuristics;
pub mod lp;
pub mod lu;
pub mod model;
pub mod options;
pub(crate) mod pool;
pub mod presolve;
pub mod simplex;
pub mod solution;
pub mod solver;
pub mod sparse;
pub mod status;

pub use expr::LinExpr;
pub use model::{ConstrId, Model, ModelError, Sense, Var, VarType};
pub use options::SolverOptions;
pub use solution::{IncumbentEvent, MipResult, Solution};
pub use solver::{SolveError, Solver};
pub use status::{SearchStats, SolveStatus, StopReason};
