//! # milpjoin — join ordering via mixed integer linear programming
//!
//! A from-scratch reproduction of *"Solving the Join Ordering Problem via
//! Mixed Integer Linear Programming"* (Immanuel Trummer & Christoph Koch,
//! SIGMOD 2017). The crate transforms left-deep join ordering into a MILP:
//!
//! * binary variables place tables into join operands (§4.1);
//! * predicate-applicability variables and *logarithmic* cardinalities keep
//!   everything linear (§4.2);
//! * a geometric threshold grid converts log-cardinalities back into
//!   (approximate) raw cardinalities, with configurable precision (§4.2,
//!   §7.1: tolerance factors 3 / 10 / 100);
//! * the C_out, hash-join, sort-merge and block-nested-loop cost functions
//!   are written as linear expressions over those variables (§4.3);
//! * optional extensions: n-ary and correlated predicates, expensive
//!   predicates, projection with byte-size tracking, per-join operator
//!   selection, and interesting orders (§5).
//!
//! The MILP is solved by the in-workspace solver (`milpjoin-milp`), giving
//! the key property the paper gets from Gurobi: **anytime optimization** —
//! a stream of improving plans with a guaranteed optimality factor at every
//! point in time.
//!
//! ## Quick start
//!
//! ```
//! use milpjoin::{EncoderConfig, MilpOptimizer, OrderingOptions, Precision};
//! use milpjoin_qopt::{Catalog, Predicate, Query};
//!
//! // The paper's running example: R(10) ⋈ S(1000) ⋈ T(100) with one
//! // predicate between R and S of selectivity 0.1.
//! let mut catalog = Catalog::new();
//! let r = catalog.add_table("R", 10.0);
//! let s = catalog.add_table("S", 1000.0);
//! let t = catalog.add_table("T", 100.0);
//! let mut query = Query::new(vec![r, s, t]);
//! query.add_predicate(Predicate::binary(r, s, 0.1));
//!
//! let optimizer = MilpOptimizer::new(EncoderConfig::default().precision(Precision::High));
//! let outcome = optimizer
//!     .optimize(&catalog, &query, &OrderingOptions::default(), None)
//!     .unwrap();
//!
//! outcome.plan.validate(&query).unwrap();
//! // The worst plan joins S and T first (100,000 intermediate tuples);
//! // the optimum keeps R in the first join (1,000).
//! assert!(outcome.true_cost <= 1000.0 * 3.0); // within the tolerance factor
//! ```

pub mod config;
pub mod decode;
pub mod decompose;
pub mod encode;
pub mod hybrid;
pub mod optimizer;
pub mod router;
pub mod stats;
pub mod thresholds;

pub use config::{ConfigError, EncoderConfig, PageMode};
pub use decode::{decode, DecodeError, DecodedPlan};
pub use decompose::{
    partition_join_graph, DecomposeOptions, DecomposingOptimizer, QUOTIENT_DP_MAX,
};
pub use encode::{encode, warm_start_assignment, EncodeError, Encoding, EncodingVars, PhysOp};
pub use hybrid::HybridOptimizer;
pub use optimizer::{
    bound_projection, cost_space_bound, MilpOptimizer, OptimizeOutcome, MIN_RELATIVE_GAP,
};
pub use router::standard_router;
pub use stats::{ConstrCategory, FormulationStats, VarCategory};
pub use thresholds::{
    max_grid_decades, tuples_per_unit_cost, ApproxMode, CostSpaceProjection, Precision,
    ThresholdGrid,
};

// Backend-agnostic ordering interface and the session service layer
// (defined in `milpjoin_qopt`), re-exported so downstream users need only
// one dependency.
pub use milpjoin_qopt::cache::ShardedPlanCache;
pub use milpjoin_qopt::orderer::{
    CostTrace, CostTracePoint, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome,
};
pub use milpjoin_qopt::persist::{SnapshotConfig, SnapshotLoadStats, SnapshotWriteStats};
pub use milpjoin_qopt::router::{
    BackendArm, QueryFeatures, RouteCounts, RouteDecision, RouterOptimizer, RouterOptions,
};
pub use milpjoin_qopt::service::{PlanTicket, QueryService};
pub use milpjoin_qopt::session::{PlanSession, SessionOutcome, SessionStats};
pub use milpjoin_qopt::{Fingerprint, FingerprintOptions, FingerprintedQuery};

// Re-export the substrate crates so downstream users need only one
// dependency.
pub use milpjoin_dp as dp;
pub use milpjoin_milp as milp;
pub use milpjoin_qopt as qopt;
