//! # milpjoin-qopt — query optimization substrate
//!
//! Shared domain model for the reproduction of *"Solving the Join Ordering
//! Problem via Mixed Integer Linear Programming"* (Trummer & Koch, SIGMOD
//! 2017): catalogs, join queries, cardinality estimation, left-deep plans,
//! and the paper's cost models. Both the MILP-based optimizer (crate
//! `milpjoin`) and the dynamic-programming baseline (`milpjoin-dp`) are
//! built on this crate, so their plan costs are directly comparable.
//!
//! ```
//! use milpjoin_qopt::{Catalog, Query, Predicate, LeftDeepPlan};
//! use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
//!
//! let mut catalog = Catalog::new();
//! let r = catalog.add_table("R", 10.0);
//! let s = catalog.add_table("S", 1000.0);
//! let t = catalog.add_table("T", 100.0);
//! let mut query = Query::new(vec![r, s, t]);
//! query.add_predicate(Predicate::binary(r, s, 0.1));
//!
//! let plan = LeftDeepPlan::from_order(vec![r, s, t]);
//! let cost = plan_cost(&catalog, &query, &plan, CostModelKind::Cout,
//!                      &CostParams::default());
//! assert_eq!(cost.total, 1000.0);
//! ```

pub mod cache;
pub mod card;
pub mod catalog;
pub mod cost;
pub mod fingerprint;
pub mod graph;
pub mod orderer;
pub mod persist;
pub mod plan;
pub mod query;
pub mod router;
pub mod service;
pub mod session;
pub mod table_set;

pub use cache::ShardedPlanCache;
pub use card::Estimator;
pub use catalog::{Catalog, Column, ColumnId, Table, TableId};
pub use cost::{CostModelKind, CostParams, JoinContext, PlanCost};
pub use fingerprint::{Fingerprint, FingerprintOptions, FingerprintedQuery};
pub use graph::{GraphShape, JoinGraph};
pub use orderer::{
    CostTrace, CostTracePoint, JoinOrderer, OrdererFactory, OrderingError, OrderingOptions,
    OrderingOutcome, SearchStats,
};
pub use persist::{SnapshotConfig, SnapshotLoadStats, SnapshotWriteStats};
pub use plan::{eager_evaluation_joins, JoinOp, LeftDeepPlan, PlanError};
pub use query::{CorrelatedGroup, Predicate, PredicateId, Query, QueryError};
pub use router::{
    BackendArm, QueryFeatures, RouteCounts, RouteDecision, RouterOptimizer, RouterOptions,
};
pub use service::{PlanTicket, QueryService};
pub use session::{PlanSession, SessionOutcome, SessionStats};
pub use table_set::TableSet;
