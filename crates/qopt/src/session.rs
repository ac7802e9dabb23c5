//! The [`PlanSession`] service layer: one catalog, one backend, many
//! queries.
//!
//! The paper's optimizer — like every [`JoinOrderer`] backend — answers one
//! query per call. Production traffic is a *stream*: many structurally
//! similar queries against one catalog, where re-solving each from scratch
//! wastes almost all of the work (the observation behind the hybrid-MILP
//! pipeline of Schönberger & Trummer, 2025). A session owns the catalog, a
//! chosen backend, and a plan cache keyed by the canonical query
//! fingerprint of [`crate::fingerprint`]:
//!
//! * [`PlanSession::optimize`] answers one query, consulting the cache
//!   first;
//! * [`PlanSession::optimize_batch`] drives a whole slice of queries in
//!   order — deterministic: the same batch against a fresh session always
//!   produces the same plans, solves and hit pattern;
//! * [`PlanSession::explain`] reports what happened (hits, misses, backend
//!   solves, error counts, in-flight dedup and fingerprint-fallback
//!   counters).
//!
//! The session is the *sequential* surface over the per-query engine
//! (`process_query`) that the continuous-ingest
//! [`crate::service::QueryService`] workers also run — including the
//! cross-batch in-flight claim protocol, so a session sharing its cache
//! handle with a service deduplicates solves against the service's workers
//! too.
//!
//! ## Cache semantics
//!
//! A hit means the new query's *canonical structure* matches a solved one
//! within the fingerprint quantization. The cached join order is
//! instantiated over the new query's tables and **re-costed exactly**, so
//! [`OrderingOutcome::cost`] is always truthful. Optimality certificates
//! (`bound`, `proven_optimal`) are carried over only when the unquantized
//! statistics match exactly; an approximate hit returns them as
//! `None`/`false` — the plan is near-optimal by construction, but nothing
//! is proven for the perturbed statistics. Queries carrying projection
//! information are cached like any other: the fingerprint canonicalizes
//! the carried-column payload (quantized widths, output/predicate roles),
//! so structurally identical projection queries share one solve.
//!
//! The cache is **bounded**: at most
//! [`DEFAULT_CACHE_CAPACITY`] structures by default
//! ([`PlanSession::with_cache_capacity`] overrides it), with
//! least-recently-used eviction — a streaming workload of ever-new
//! structures holds the session's footprint constant instead of growing
//! forever. [`PlanSession::explain`] reports the eviction count.

use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::cache::{CachedPlan, InFlightClaim, ShardedPlanCache};
use crate::catalog::Catalog;
use crate::cost::plan_cost;
use crate::fingerprint::{FingerprintOptions, FingerprintedQuery};
use crate::orderer::{
    CostTrace, JoinOrderer, OrderingError, OrderingOptions, OrderingOutcome, SearchStats,
};
use crate::persist::{SnapshotConfig, SnapshotWriteStats};
use crate::plan::LeftDeepPlan;
use crate::query::Query;
use crate::router::RouteCounts;

/// Cache hit/miss statistics of one session (see [`PlanSession::explain`]).
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Queries submitted (including failed ones).
    pub queries: u64,
    /// Queries answered from the plan cache.
    pub cache_hits: u64,
    /// Cache hits whose unquantized statistics matched exactly, so the
    /// original solve's certificates were carried over.
    pub exact_hits: u64,
    /// Queries handed to the backend (cache misses).
    pub backend_solves: u64,
    /// Backend solves that returned an error.
    pub backend_errors: u64,
    /// Cached structures evicted to respect the cache capacity
    /// ([`PlanSession::with_cache_capacity`]).
    pub evictions: u64,
    /// Fingerprint computations whose individualization budget
    /// ([`FingerprintOptions::individualization_budget`]) ran out with
    /// symmetric ties unresolved — the ties fell back to input-order
    /// tie-breaks (sound, but such queries may miss the cache under
    /// permuted listings).
    pub fingerprint_fallbacks: u64,
    /// Cache misses that registered as the in-flight **leader** of their
    /// fingerprint and ran the backend solve.
    pub inflight_leaders: u64,
    /// Submissions that found their fingerprint already being solved and
    /// **blocked** on the leader's in-flight slot instead of solving
    /// (counted once per blocking wait; a submission can wait more than
    /// once if its leader fails).
    pub inflight_followers: u64,
    /// Blocked followers that resolved from the leader's published record
    /// — cache hits that would have been duplicate concurrent solves
    /// without the in-flight table. A subset of `cache_hits`.
    pub inflight_wait_hits: u64,
    /// Branch-and-bound nodes expanded across every backend solve (cache
    /// hits expand none; non-search backends report zero).
    pub nodes_expanded: u64,
    /// Nodes whose justifying bound already exceeded their solve's final
    /// optimum — speculative search work, summed across solves (see
    /// [`crate::orderer::SearchStats::speculative_nodes`]).
    pub speculative_nodes: u64,
    /// The largest intra-solve worker count any backend solve ran with
    /// (`0` until a search backend reports; `1` for single-worker solves).
    pub max_workers_used: usize,
    /// Simplex iterations spent on root LP relaxations, summed across
    /// backend solves. Read next to `total_lp_iterations`: a session whose
    /// root share dominates is root-LP-bound (large queries stalling at the
    /// relaxation), not search-bound.
    pub root_lp_iterations: u64,
    /// Simplex iterations across every LP of every backend solve.
    pub total_lp_iterations: u64,
    /// Per-arm dispatch counts of every routed backend solve (zero unless
    /// the backend is a [`crate::router::RouterOptimizer`]). Cache hits
    /// never re-route and are not counted: on a duplicate-heavy stream
    /// `routes.total()` equals the routed backend solves, so
    /// `routes.search_solves() == 0` proves no query of the stream ever
    /// reached branch-and-bound.
    pub routes: RouteCounts,
    /// Entries serialized by snapshot exports ([`PlanSession::snapshot_to`],
    /// `QueryService::snapshot`, and the service's shutdown hook), summed.
    pub snapshot_entries_written: u64,
    /// Entries accepted from loaded snapshots ([`PlanSession::with_snapshot`]
    /// / `QueryService::with_snapshot`).
    pub snapshot_entries_loaded: u64,
    /// Entries (or unreadable whole files, counted as one unit) refused by
    /// snapshot validation: corruption, version skew, or a
    /// fingerprint-options / cost-config hash mismatch. A rejected snapshot
    /// is a clean cold boot — this counter is how you see it happened.
    pub snapshot_entries_rejected: u64,
    /// Cache hits served from a snapshot-loaded entry (a subset of
    /// `cache_hits`): `warm_hits == queries` with zero `backend_solves`
    /// proves a boot snapshot absorbed the entire stream.
    pub warm_hits: u64,
}

impl SessionStats {
    /// Fraction of submitted queries answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Folds one service job's stats into the service totals. The eviction
    /// count is deliberately **not** folded: it lives in the (possibly
    /// shared) cache and is re-read at `explain()` time, so folding it here
    /// would double-count.
    pub(crate) fn absorb(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.exact_hits += other.exact_hits;
        self.backend_solves += other.backend_solves;
        self.backend_errors += other.backend_errors;
        self.fingerprint_fallbacks += other.fingerprint_fallbacks;
        self.inflight_leaders += other.inflight_leaders;
        self.inflight_followers += other.inflight_followers;
        self.inflight_wait_hits += other.inflight_wait_hits;
        self.nodes_expanded += other.nodes_expanded;
        self.speculative_nodes += other.speculative_nodes;
        self.max_workers_used = self.max_workers_used.max(other.max_workers_used);
        self.root_lp_iterations += other.root_lp_iterations;
        self.total_lp_iterations += other.total_lp_iterations;
        self.routes.absorb(&other.routes);
        self.snapshot_entries_written += other.snapshot_entries_written;
        self.snapshot_entries_loaded += other.snapshot_entries_loaded;
        self.snapshot_entries_rejected += other.snapshot_entries_rejected;
        self.warm_hits += other.warm_hits;
    }

    /// Folds one backend solve's observability counters — search stats and
    /// any routing decision — into the session totals.
    pub(crate) fn record_solve(&mut self, outcome: &OrderingOutcome) {
        self.nodes_expanded += outcome.search.nodes_expanded;
        self.speculative_nodes += outcome.search.speculative_nodes;
        self.max_workers_used = self.max_workers_used.max(outcome.search.workers_used);
        self.root_lp_iterations += outcome.search.root_lp_iterations;
        self.total_lp_iterations += outcome.search.total_lp_iterations;
        if let Some(route) = &outcome.route {
            self.routes.record(route.arm);
        }
    }
}

/// One session answer: the backend-shaped outcome plus cache provenance.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    pub outcome: OrderingOutcome,
    /// Whether the plan came from the cache rather than a backend solve.
    pub cache_hit: bool,
    /// Whether a cache hit matched the original query's statistics exactly
    /// (certificates carried over). Always `false` on a miss.
    pub exact_hit: bool,
}

/// Default bound on the number of cached structures
/// ([`PlanSession::with_cache_capacity`] overrides it).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// The cacheable record of one solved outcome: the plan's join order mapped
/// into canonical table indices plus the solve's certificates.
fn record_for_cache(
    query: &Query,
    fp: &FingerprintedQuery,
    outcome: &OrderingOutcome,
) -> CachedPlan {
    let canonical_order: Vec<usize> = outcome
        .plan
        .order
        .iter()
        .map(|&t| fp.to_canonical[query.position_of(t)])
        .collect();
    CachedPlan {
        canonical_order,
        operators: outcome.plan.operators.clone(),
        exact: fp.exact.clone(),
        bound: outcome.bound,
        proven_optimal: outcome.proven_optimal,
        warm: false,
    }
}

/// The shared per-query configuration of the optimization engine: both
/// surfaces — the sequential [`PlanSession`] and the continuous-ingest
/// [`crate::service::QueryService`] workers — answer a query by building
/// one of these over their backend and calling [`process_query`]. One
/// engine, two surfaces: that is what makes their results identical by
/// construction.
pub(crate) struct EngineCtx<'a> {
    pub catalog: &'a Catalog,
    pub backend: &'a dyn JoinOrderer,
    pub options: &'a OrderingOptions,
    pub fingerprint_options: &'a FingerprintOptions,
    pub cache: &'a ShardedPlanCache,
    /// Externally assigned LRU recency stamp for every cache operation of
    /// this query (see `Shard::stamp`). `None` for sequential facades (the
    /// cache's own clock is submission order there); the `QueryService`
    /// passes each job's submission index so eviction order matches the
    /// order queries were submitted, not the order workers finished them.
    pub recency: Option<u64>,
}

/// Answers one query through the full service pipeline: validate →
/// fingerprint → in-flight claim ([`ShardedPlanCache::claim`]) → cache
/// hit / leader solve / follower wait. Thread-safe by construction — the
/// only shared mutable state is inside the cache — and, for any
/// interleaving of concurrent callers over one cache handle, each
/// fingerprint is solved exactly once (leaders) with every concurrent
/// duplicate either hitting the cache or blocking on the leader's slot and
/// instantiating its record through the same [`answer_hit`] the
/// sequential path uses.
pub(crate) fn process_query(
    ctx: &EngineCtx<'_>,
    query: &Query,
    stats: &mut SessionStats,
) -> Result<SessionOutcome, OrderingError> {
    stats.queries += 1;
    query.validate(ctx.catalog)?;
    let fp = FingerprintedQuery::compute(ctx.catalog, query, ctx.fingerprint_options);
    if fp.budget_exhausted {
        stats.fingerprint_fallbacks += 1;
    }
    loop {
        match ctx.cache.claim_at(&fp.fingerprint, ctx.recency) {
            InFlightClaim::Cached(cached) => {
                let start = milpjoin_shim::time::now();
                return answer_hit(ctx, query, &fp, &cached, start, false, stats);
            }
            InFlightClaim::Lead(guard) => {
                stats.inflight_leaders += 1;
                // On an error the guard drops, which abandons the slot:
                // followers wake empty-handed and re-enter the protocol.
                let solved = solve(ctx, query, stats)?;
                guard.publish(Arc::new(record_for_cache(query, &fp, &solved.outcome)));
                return Ok(solved);
            }
            InFlightClaim::Wait(slot) => {
                stats.inflight_followers += 1;
                let start = milpjoin_shim::time::now();
                // A `None` wait means the leader failed: fall through and
                // re-enter the claim protocol — one ex-follower becomes
                // the next leader and the rest wait again, which
                // reproduces the sequential session's per-occurrence
                // retry of an uncached structure (deterministic backends
                // fail identically).
                if let Some(record) = slot.wait() {
                    return answer_hit(ctx, query, &fp, &record, start, true, stats);
                }
            }
        }
    }
}

/// Answers a query from `record` — a cached entry, or (`waited`) the
/// record its in-flight leader published — and counts the hit: maps the
/// canonical join order through the query's fingerprint relabeling,
/// re-costs the plan exactly under the backend's cost model, and carries
/// the original solve's certificates only when the unquantized statistics
/// match exactly. Every hit — a sequential lookup or a service follower
/// woken by its leader — goes through this one function, which is what
/// makes their outcomes bit-identical.
fn answer_hit(
    ctx: &EngineCtx<'_>,
    query: &Query,
    fp: &FingerprintedQuery,
    record: &CachedPlan,
    start: Instant,
    waited: bool,
    stats: &mut SessionStats,
) -> Result<SessionOutcome, OrderingError> {
    let order: Vec<_> = record
        .canonical_order
        .iter()
        .map(|&c| query.tables[fp.from_canonical[c]])
        .collect();
    let plan = if record.operators.is_empty() {
        LeftDeepPlan::from_order(order)
    } else {
        LeftDeepPlan::with_operators(order, record.operators.clone())
    };
    // A fingerprint hit guarantees a structurally compatible plan; a
    // validation failure would be a canonicalization bug — treated as a
    // miss, solved and re-cached, never returned as a wrong answer.
    if plan.validate(query).is_err() {
        debug_assert!(false, "cached plan does not fit a fingerprint-equal query");
        let solved = solve(ctx, query, stats)?;
        let repaired = Arc::new(record_for_cache(query, fp, &solved.outcome));
        ctx.cache
            .insert_at(fp.fingerprint.clone(), repaired, ctx.recency);
        return Ok(solved);
    }
    let exact = fp.exact == record.exact;
    let (bound, proven_optimal) = if exact {
        (record.bound, record.proven_optimal)
    } else {
        (None, false)
    };
    let (model, params) = ctx.backend.cost_model();
    let cost = plan_cost(ctx.catalog, query, &plan, model, &params).total;
    let elapsed = start.elapsed();
    stats.cache_hits += 1;
    stats.inflight_wait_hits += u64::from(waited);
    stats.warm_hits += u64::from(record.warm);
    stats.exact_hits += u64::from(exact);
    Ok(SessionOutcome {
        outcome: OrderingOutcome {
            plan,
            cost,
            objective: cost,
            bound,
            proven_optimal,
            trace: CostTrace::single(elapsed, cost, bound),
            elapsed,
            // A cache hit expands no search nodes and makes no routing
            // decision.
            search: SearchStats::default(),
            route: None,
        },
        cache_hit: true,
        exact_hit: exact,
    })
}

/// Runs the backend on `query` and counts the solve (and its error, if
/// any): the one backend call of the engine, for a leader and for the
/// repair of a record that did not instantiate.
fn solve(
    ctx: &EngineCtx<'_>,
    query: &Query,
    stats: &mut SessionStats,
) -> Result<SessionOutcome, OrderingError> {
    stats.backend_solves += 1;
    let outcome = ctx
        .backend
        .order(ctx.catalog, query, ctx.options)
        .inspect_err(|_| stats.backend_errors += 1)?;
    stats.record_solve(&outcome);
    Ok(SessionOutcome {
        outcome,
        cache_hit: false,
        exact_hit: false,
    })
}

/// A long-lived optimization service over one catalog and one backend.
///
/// ```
/// use std::time::Duration;
/// use milpjoin_qopt::{Catalog, Predicate, Query};
/// use milpjoin_qopt::session::PlanSession;
/// # use milpjoin_qopt::cost::{CostModelKind, CostParams, plan_cost};
/// # use milpjoin_qopt::orderer::*;
/// # use milpjoin_qopt::LeftDeepPlan;
/// # struct Sorter;
/// # impl JoinOrderer for Sorter {
/// #     fn name(&self) -> &'static str { "sorter" }
/// #     fn cost_model(&self) -> (CostModelKind, CostParams) {
/// #         (CostModelKind::Cout, CostParams::default())
/// #     }
/// #     fn order(&self, catalog: &Catalog, query: &Query, _o: &OrderingOptions)
/// #         -> Result<OrderingOutcome, OrderingError> {
/// #         let mut order = query.tables.clone();
/// #         order.sort_by(|&a, &b| catalog.cardinality(a).total_cmp(&catalog.cardinality(b)));
/// #         let plan = LeftDeepPlan::from_order(order);
/// #         let cost = plan_cost(catalog, query, &plan, CostModelKind::Cout,
/// #                              &CostParams::default()).total;
/// #         Ok(OrderingOutcome { plan, cost, objective: cost, bound: None,
/// #             proven_optimal: false, trace: CostTrace::default(),
/// #             elapsed: Duration::ZERO, search: Default::default(),
/// #             route: None })
/// #     }
/// # }
///
/// let mut catalog = Catalog::new();
/// let r = catalog.add_table("R", 10.0);
/// let s = catalog.add_table("S", 1000.0);
/// let mut query = Query::new(vec![r, s]);
/// query.add_predicate(Predicate::binary(r, s, 0.1));
///
/// let mut session = PlanSession::new(catalog, Box::new(Sorter));
/// let first = session.optimize(&query).unwrap();
/// let second = session.optimize(&query).unwrap();
/// assert!(!first.cache_hit && second.cache_hit);
/// assert_eq!(session.explain().backend_solves, 1);
/// ```
pub struct PlanSession {
    catalog: Catalog,
    backend: Box<dyn JoinOrderer>,
    options: OrderingOptions,
    fingerprint_options: FingerprintOptions,
    /// The shard-locked plan cache. One shard (exact global LRU) unless
    /// replaced by [`Self::with_shared_cache`]; shareable with other
    /// sessions and with services through [`Self::shared_cache`].
    cache: Arc<ShardedPlanCache>,
    stats: SessionStats,
}

impl PlanSession {
    pub fn new(catalog: Catalog, backend: Box<dyn JoinOrderer>) -> Self {
        PlanSession {
            catalog,
            backend,
            options: OrderingOptions::default(),
            fingerprint_options: FingerprintOptions::default(),
            cache: Arc::new(ShardedPlanCache::new(DEFAULT_CACHE_CAPACITY, 1)),
            stats: SessionStats::default(),
        }
    }

    /// Builder-style setter for the per-query runtime limits.
    pub fn with_options(mut self, options: OrderingOptions) -> Self {
        self.options = options;
        self
    }

    /// Builder-style setter for the fingerprint quantization.
    pub fn with_fingerprint_options(mut self, options: FingerprintOptions) -> Self {
        self.fingerprint_options = options;
        self
    }

    /// Builder-style setter for the plan-cache capacity (default
    /// [`DEFAULT_CACHE_CAPACITY`]). The least-recently-used structure is
    /// evicted when an insert would exceed it — a streaming workload of
    /// ever-new structures no longer grows the cache without bound. `0`
    /// stores nothing (lookups still run). Shrinking below the current
    /// population evicts immediately.
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.cache.set_capacity(capacity);
        self
    }

    /// The shared handle to the plan cache. Hand it to another session (or
    /// keep it across sessions) to share solved structures; eviction and
    /// hit accounting then aggregate across all users of the handle.
    pub fn shared_cache(&self) -> Arc<ShardedPlanCache> {
        Arc::clone(&self.cache)
    }

    /// Builder-style setter replacing this session's cache with an existing
    /// shared one (see [`Self::shared_cache`]), or with a fresh cache of
    /// another shape: `ShardedPlanCache::new(capacity, shards)` trades exact
    /// global LRU for less lock contention when the cache is shared with a
    /// service's workers.
    pub fn with_shared_cache(mut self, cache: Arc<ShardedPlanCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The snapshot compatibility key of this session: its fingerprint
    /// quantization plus the backend's cost model and parameters. A
    /// persisted snapshot is only loadable by a session whose key hashes
    /// match (see [`crate::persist`]).
    pub fn snapshot_config(&self) -> SnapshotConfig {
        let (cost_model, cost_params) = self.backend.cost_model();
        SnapshotConfig {
            fingerprint_options: self.fingerprint_options,
            cost_model,
            cost_params,
        }
    }

    /// Exports the plan cache to a snapshot file at `path` (atomic: temp
    /// file + rename), keyed to [`Self::snapshot_config`]. The export is
    /// counted as `snapshot_entries_written` in [`Self::explain`].
    pub fn snapshot_to(&mut self, path: impl AsRef<Path>) -> io::Result<SnapshotWriteStats> {
        let written = self
            .cache
            .write_snapshot(path.as_ref(), &self.snapshot_config())?;
        self.stats.snapshot_entries_written += written.entries;
        Ok(written)
    }

    /// Warm-boots the session from a snapshot file: loads every entry that
    /// passes validation into the plan cache (counted as
    /// `snapshot_entries_loaded` / `snapshot_entries_rejected` in
    /// [`Self::explain`]). A missing, corrupt, or config-mismatched
    /// snapshot degrades to a cold boot — never an error, never a stale
    /// plan. Loaded entries behave exactly like in-process solves on a
    /// hit: re-validated against the live query, re-costed against the
    /// live catalog, certificates only on an exact statistics match — and
    /// additionally count `warm_hits`.
    pub fn with_snapshot(mut self, path: impl AsRef<Path>) -> Self {
        let loaded = self
            .cache
            .load_snapshot(path.as_ref(), &self.snapshot_config());
        self.stats.snapshot_entries_loaded += loaded.loaded;
        self.stats.snapshot_entries_rejected += loaded.rejected;
        self
    }

    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The underlying backend's name (`"milp"`, `"hybrid"`, ...).
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Cache hit/miss statistics accumulated so far (a snapshot; the
    /// eviction count is read from the — possibly shared — cache, where it
    /// aggregates across every session using the handle).
    pub fn explain(&self) -> SessionStats {
        SessionStats {
            evictions: self.cache.evictions(),
            ..self.stats.clone()
        }
    }

    /// Number of distinct solved structures currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Optimizes one query, reusing a cached plan when a structurally
    /// identical query was solved before. Runs the same engine
    /// (`process_query`) as the [`crate::service::QueryService`] workers
    /// — including the in-flight claim protocol, so a sequential session
    /// sharing its cache with a service participates in cross-session
    /// dedup: if a service worker is already solving this structure, the
    /// session blocks on that solve instead of duplicating it.
    pub fn optimize(&mut self, query: &Query) -> Result<SessionOutcome, OrderingError> {
        let ctx = EngineCtx {
            catalog: &self.catalog,
            backend: &*self.backend,
            options: &self.options,
            fingerprint_options: &self.fingerprint_options,
            cache: &self.cache,
            recency: None,
        };
        process_query(&ctx, query, &mut self.stats)
    }

    /// Optimizes a batch of queries in order. Deterministic: cache lookups
    /// and inserts happen in slice order, so identical batches against
    /// identically-configured fresh sessions produce identical plans and
    /// hit patterns. Structurally identical queries within the batch share
    /// a single backend solve.
    pub fn optimize_batch(
        &mut self,
        queries: &[Query],
    ) -> Vec<Result<SessionOutcome, OrderingError>> {
        queries.iter().map(|q| self.optimize(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::cost::{CostModelKind, CostParams};
    use crate::query::Predicate;

    /// A deterministic toy backend: joins tables smallest-first and counts
    /// its invocations. The call counter is atomic because `JoinOrderer`
    /// is `Send + Sync` (`order` may run from several worker threads).
    struct CountingBackend {
        calls: std::sync::atomic::AtomicU64,
        prove: bool,
    }

    impl CountingBackend {
        fn new(prove: bool) -> Self {
            CountingBackend {
                calls: std::sync::atomic::AtomicU64::new(0),
                prove,
            }
        }
    }

    impl JoinOrderer for CountingBackend {
        fn name(&self) -> &'static str {
            "counting"
        }

        fn cost_model(&self) -> (CostModelKind, CostParams) {
            (CostModelKind::Cout, CostParams::default())
        }

        fn order(
            &self,
            catalog: &Catalog,
            query: &Query,
            _options: &OrderingOptions,
        ) -> Result<OrderingOutcome, OrderingError> {
            self.calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let mut order = query.tables.clone();
            order.sort_by(|&a, &b| catalog.cardinality(a).total_cmp(&catalog.cardinality(b)));
            let plan = LeftDeepPlan::from_order(order);
            let cost = plan_cost(
                catalog,
                query,
                &plan,
                CostModelKind::Cout,
                &CostParams::default(),
            )
            .total;
            Ok(OrderingOutcome {
                plan,
                cost,
                objective: cost,
                bound: self.prove.then_some(cost),
                proven_optimal: self.prove,
                trace: CostTrace::single(Duration::ZERO, cost, self.prove.then_some(cost)),
                elapsed: Duration::ZERO,
                search: SearchStats {
                    nodes_expanded: 3,
                    workers_used: 1,
                    speculative_nodes: 1,
                    root_lp_iterations: 2,
                    total_lp_iterations: 5,
                },
                route: None,
            })
        }
    }

    fn two_structures(catalog: &mut Catalog, copies: usize) -> Vec<Query> {
        let mut queries = Vec::new();
        for _ in 0..copies {
            for (cards, sel) in [(&[10.0, 500.0, 2000.0], 0.1), (&[7.0, 7.0, 70000.0], 0.5)] {
                let ids: Vec<_> = cards
                    .iter()
                    .map(|&c| catalog.add_table(format!("t{c}_{}", catalog.num_tables()), c))
                    .collect();
                let mut q = Query::new(ids.clone());
                q.add_predicate(Predicate::binary(ids[0], ids[1], sel));
                q.add_predicate(Predicate::binary(ids[1], ids[2], sel));
                queries.push(q);
            }
        }
        queries
    }

    #[test]
    fn batch_shares_one_solve_per_structure() {
        let mut catalog = Catalog::new();
        let queries = two_structures(&mut catalog, 10); // 20 queries, 2 structures
        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(true)));
        let results = session.optimize_batch(&queries);
        assert_eq!(results.len(), 20);
        for r in &results {
            r.as_ref().unwrap();
        }
        let stats = session.explain();
        assert_eq!(stats.backend_solves, 2);
        assert_eq!(stats.cache_hits, 18);
        assert_eq!(stats.exact_hits, 18); // identical stats -> certificates carried
        assert_eq!(session.cache_len(), 2);
        assert!((stats.hit_rate() - 0.9).abs() < 1e-12);
        // Carried certificates on exact hits.
        let hit = results[2].as_ref().unwrap();
        assert!(hit.cache_hit && hit.exact_hit);
        assert!(hit.outcome.proven_optimal);
        assert_eq!(hit.outcome.bound, Some(hit.outcome.cost));
    }

    #[test]
    fn approximate_hit_recosts_and_drops_certificates() {
        let mut catalog = Catalog::new();
        let a1 = catalog.add_table("a1", 100.0);
        let b1 = catalog.add_table("b1", 9000.0);
        let mut q1 = Query::new(vec![a1, b1]);
        q1.add_predicate(Predicate::binary(a1, b1, 0.1));
        // ~1.5% drift: same fingerprint bucket, different exact stats.
        let a2 = catalog.add_table("a2", 101.5);
        let b2 = catalog.add_table("b2", 9100.0);
        let mut q2 = Query::new(vec![a2, b2]);
        q2.add_predicate(Predicate::binary(a2, b2, 0.1));

        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(true)));
        let first = session.optimize(&q1).unwrap();
        let second = session.optimize(&q2).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit && !second.exact_hit);
        assert!(!second.outcome.proven_optimal);
        assert_eq!(second.outcome.bound, None);
        // The reused plan is re-costed exactly for the new statistics.
        let expected = plan_cost(
            session.catalog(),
            &q2,
            &second.outcome.plan,
            CostModelKind::Cout,
            &CostParams::default(),
        )
        .total;
        assert_eq!(second.outcome.cost, expected);
    }

    /// One two-table structure per distinct (cardinality, selectivity)
    /// pair — distinct fingerprints by construction.
    fn structure(catalog: &mut Catalog, small: f64, sel: f64) -> Query {
        let n = catalog.num_tables();
        let a = catalog.add_table(format!("s{n}a"), small);
        let b = catalog.add_table(format!("s{n}b"), small * 90.0);
        let mut q = Query::new(vec![a, b]);
        q.add_predicate(Predicate::binary(a, b, sel));
        q
    }

    #[test]
    fn cache_capacity_is_enforced_with_lru_eviction() {
        let mut catalog = Catalog::new();
        let qa = structure(&mut catalog, 10.0, 0.1);
        let qb = structure(&mut catalog, 1000.0, 0.2);
        let qc = structure(&mut catalog, 100000.0, 0.4);
        let mut session =
            PlanSession::new(catalog, Box::new(CountingBackend::new(false))).with_cache_capacity(2);

        // Fill: A, B. Touch A (hit), then insert C -> B is the LRU victim.
        assert!(!session.optimize(&qa).unwrap().cache_hit);
        assert!(!session.optimize(&qb).unwrap().cache_hit);
        assert!(session.optimize(&qa).unwrap().cache_hit);
        assert!(!session.optimize(&qc).unwrap().cache_hit);
        assert_eq!(session.cache_len(), 2);
        assert_eq!(session.explain().evictions, 1);
        // A survived (recency was refreshed); B was evicted and re-solves.
        assert!(session.optimize(&qa).unwrap().cache_hit);
        assert!(!session.optimize(&qb).unwrap().cache_hit);
        assert_eq!(session.explain().evictions, 2);
    }

    #[test]
    fn streaming_workload_stays_bounded() {
        let mut catalog = Catalog::new();
        // Geometric spacing (> the fingerprint's 0.1-decade bucket) keeps
        // every structure a distinct fingerprint.
        let queries: Vec<Query> = (0..40)
            .map(|i| structure(&mut catalog, 10.0 * 1.5f64.powi(i), 0.1))
            .collect();
        let mut session =
            PlanSession::new(catalog, Box::new(CountingBackend::new(false))).with_cache_capacity(8);
        for r in session.optimize_batch(&queries) {
            r.unwrap();
        }
        assert_eq!(session.cache_len(), 8);
        assert_eq!(session.explain().evictions, 32);
        assert_eq!(session.explain().backend_solves, 40);
    }

    #[test]
    fn shrinking_capacity_evicts_immediately_and_zero_stores_nothing() {
        let mut catalog = Catalog::new();
        let qa = structure(&mut catalog, 10.0, 0.1);
        let qb = structure(&mut catalog, 1000.0, 0.2);
        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(false)));
        session.optimize(&qa).unwrap();
        session.optimize(&qb).unwrap();
        assert_eq!(session.cache_len(), 2);
        let session = session.with_cache_capacity(1);
        assert_eq!(session.cache_len(), 1);
        assert_eq!(session.explain().evictions, 1);
        let mut session = session.with_cache_capacity(0);
        assert_eq!(session.cache_len(), 0);
        // Capacity zero: solves are never stored, lookups always miss.
        assert!(!session.optimize(&qa).unwrap().cache_hit);
        assert!(!session.optimize(&qa).unwrap().cache_hit);
        assert_eq!(session.cache_len(), 0);
    }

    #[test]
    fn projection_queries_hit_the_cache() {
        // Regression: projection queries used to bypass the cache entirely.
        // Structurally identical carried-column payloads over disjoint
        // tables must now share one backend solve, with certificates
        // carried on the exact match.
        let mut catalog = Catalog::new();
        let make = |catalog: &mut Catalog| {
            let n = catalog.num_tables();
            let a = catalog.add_table(format!("p{n}a"), 20.0);
            let b = catalog.add_table(format!("p{n}b"), 4000.0);
            let mut q = Query::new(vec![a, b]);
            q.add_predicate(Predicate::binary(a, b, 0.2));
            let col = catalog.add_column(a, "k", 8.0);
            let needed = catalog.add_column(b, "v", 16.0);
            q.output_columns.push(col);
            q.predicates[0].columns.push(needed);
            q
        };
        let q1 = make(&mut catalog);
        let q2 = make(&mut catalog);
        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(true)));
        let first = session.optimize(&q1).unwrap();
        let second = session.optimize(&q2).unwrap();
        assert!(!first.cache_hit);
        assert!(second.cache_hit && second.exact_hit);
        assert!(second.outcome.proven_optimal);
        let stats = session.explain();
        assert_eq!(stats.backend_solves, 1);
    }

    #[test]
    fn individualization_fallbacks_are_counted() {
        // A 4-cycle with uniform statistics: 1-WL leaves all four tables
        // tied, so with a zero individualization budget the fingerprint
        // falls back to input-order tie-breaks — and the session counts it.
        let mut catalog = Catalog::new();
        let ids: Vec<_> = (0..4)
            .map(|i| catalog.add_table(format!("c{i}"), 500.0))
            .collect();
        let mut q = Query::new(ids.clone());
        for i in 0..4 {
            q.add_predicate(Predicate::binary(ids[i], ids[(i + 1) % 4], 0.2));
        }
        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(false)))
            .with_fingerprint_options(crate::fingerprint::FingerprintOptions {
                individualization_budget: 0,
                ..Default::default()
            });
        session.optimize(&q).unwrap();
        session.optimize(&q).unwrap();
        let stats = session.explain();
        assert_eq!(stats.fingerprint_fallbacks, 2);
        // Identical listings still hit (the fallback is deterministic).
        assert_eq!(stats.cache_hits, 1);
        // The default budget resolves the symmetry without fallbacks.
        let mut catalog2 = Catalog::new();
        let ids2: Vec<_> = (0..4)
            .map(|i| catalog2.add_table(format!("e{i}"), 500.0))
            .collect();
        let mut q3 = Query::new(ids2.clone());
        for i in 0..4 {
            q3.add_predicate(Predicate::binary(ids2[i], ids2[(i + 1) % 4], 0.2));
        }
        let mut default_session = PlanSession::new(catalog2, Box::new(CountingBackend::new(false)));
        default_session.optimize(&q3).unwrap();
        assert_eq!(default_session.explain().fingerprint_fallbacks, 0);
    }

    #[test]
    fn invalid_queries_are_counted_and_reported() {
        let catalog = Catalog::new();
        let mut other = Catalog::new();
        let r = other.add_table("R", 10.0);
        let query = Query::new(vec![r]);
        let mut session = PlanSession::new(catalog, Box::new(CountingBackend::new(false)));
        let err = session.optimize(&query).unwrap_err();
        assert!(matches!(err, OrderingError::InvalidQuery(_)));
        assert_eq!(session.explain().queries, 1);
        assert_eq!(session.explain().backend_solves, 0);
    }

    #[test]
    fn batch_is_deterministic() {
        let mut c1 = Catalog::new();
        let queries1 = two_structures(&mut c1, 3);
        let mut c2 = Catalog::new();
        let queries2 = two_structures(&mut c2, 3);
        let mut s1 = PlanSession::new(c1, Box::new(CountingBackend::new(true)));
        let mut s2 = PlanSession::new(c2, Box::new(CountingBackend::new(true)));
        let r1 = s1.optimize_batch(&queries1);
        let r2 = s2.optimize_batch(&queries2);
        for (i, (a, b)) in r1.iter().zip(&r2).enumerate() {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.cache_hit, b.cache_hit);
            assert_eq!(a.outcome.cost, b.outcome.cost);
            // Same join order up to the (deterministic) table renaming:
            // mapping each plan through its *own* query's positions must
            // give identical permutations.
            let positions = |q: &Query, plan: &LeftDeepPlan| -> Vec<usize> {
                plan.order.iter().map(|&t| q.position_of(t)).collect()
            };
            assert_eq!(
                positions(&queries1[i], &a.outcome.plan),
                positions(&queries2[i], &b.outcome.plan),
                "query {i}: join orders diverged between identical sessions"
            );
        }
        assert_eq!(s1.explain().cache_hits, s2.explain().cache_hits);
    }
}
