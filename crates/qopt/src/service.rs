//! [`QueryService`]: the continuous-ingest optimization service.
//!
//! [`crate::session::PlanSession`] answers queries one call at a time on
//! the caller's thread; production traffic arrives concurrently. A
//! `QueryService` is the same optimization engine re-shaped for serving —
//! which is where the paper's anytime MILP formulation pays off in the
//! first place (and the argument the hybrid-MILP follow-up, Schönberger &
//! Trummer 2025, makes explicitly): a long-running process accepts queries
//! **from any thread at any time**, solves them on a pool of worker
//! threads that all answer through one shared backend instance, and
//! resolves each submission through a [`PlanTicket`]:
//!
//! * [`QueryService::submit`] enqueues one query and returns immediately;
//!   [`QueryService::submit_many`] enqueues a stream;
//! * [`PlanTicket::wait`] blocks for the outcome; [`PlanTicket::try_get`]
//!   polls it;
//! * [`QueryService::drain`] blocks until everything submitted so far has
//!   resolved; [`QueryService::shutdown`] drains the queue, stops the
//!   workers, and returns the final statistics. Submissions after
//!   shutdown resolve immediately with an error — a ticket can never get
//!   stuck.
//!
//! ## Cross-batch in-flight deduplication
//!
//! A continuous stream has no batch boundary to deduplicate over. The
//! service instead relies on the **in-flight table** inside
//! [`ShardedPlanCache`]: one condvar-backed slot per fingerprint currently
//! being solved (`ShardedPlanCache::claim`). The first worker to miss a
//! structure becomes its *leader* and solves; every concurrent duplicate —
//! from any worker, any submitter thread, any session sharing the cache
//! handle — *blocks on the leader's slot* and instantiates its published
//! record.
//! Concurrent identical submissions therefore trigger **exactly one
//! backend solve**, and every follower's outcome goes through the same
//! `answer_hit` path a sequential cache hit uses. *Which*
//! concurrent duplicate carries the miss (`cache_hit: false`) is decided
//! by the claim race, not by submission order — exactly one per
//! structure, but scheduling-dependent. If a leader fails, followers wake
//! empty-handed and re-enter the claim protocol — reproducing the
//! sequential session's per-occurrence retry of an uncached structure.
//!
//! ## Determinism under load
//!
//! Solves are deterministic per backend configuration, and
//! followers derive from the leader's record. What that buys:
//!
//! * A one-worker service processes submissions FIFO and returns exactly
//!   what a [`crate::session::PlanSession`] fed the same stream returns,
//!   hit flags included.
//! * At any worker count, returned values — plan, exact cost, bound,
//!   certificate — do not depend on scheduling **when duplicates carry
//!   identical statistics**. Only which duplicate reports the miss does.
//! * *Approximate duplicates* — queries sharing a fingerprint bucket but
//!   differing in unquantized statistics — are the exception. When two
//!   are in flight together, the claim race picks whose solve is shared;
//!   the other query gets that plan re-costed exactly for its own
//!   statistics, with no certificates. Every plan still validates and
//!   every cost is exact, but which plan and which certificates a query
//!   gets can vary between runs.
//!
//! A *binding wall-clock budget* measures CPU contention and so also
//! varies with load; set
//! [`crate::orderer::OrderingOptions::deterministic_budget`] (node-metered)
//! instead and budget-limited outcomes are identical at any worker count.
//! LRU recency is stamped by **submission index** (each accepted
//! submission carries its admission number into the cache, max-merged on
//! hits), so under capacity pressure the eviction order follows arrival
//! order deterministically even when a slow early solve publishes after
//! later fast ones — the sequential session's order.
//!
//! ```
//! use milpjoin_qopt::cost::{plan_cost, CostModelKind, CostParams};
//! use milpjoin_qopt::orderer::*;
//! use milpjoin_qopt::service::QueryService;
//! use milpjoin_qopt::{Catalog, LeftDeepPlan, Predicate, Query};
//! use std::time::Duration;
//!
//! struct Sorter;
//! impl JoinOrderer for Sorter {
//!     fn name(&self) -> &'static str { "sorter" }
//!     fn cost_model(&self) -> (CostModelKind, CostParams) {
//!         (CostModelKind::Cout, CostParams::default())
//!     }
//!     fn order(&self, catalog: &Catalog, query: &Query, _o: &OrderingOptions)
//!         -> Result<OrderingOutcome, OrderingError> {
//!         let mut order = query.tables.clone();
//!         order.sort_by(|&a, &b| catalog.cardinality(a).total_cmp(&catalog.cardinality(b)));
//!         let plan = LeftDeepPlan::from_order(order);
//!         let cost = plan_cost(catalog, query, &plan, CostModelKind::Cout,
//!                              &CostParams::default()).total;
//!         Ok(OrderingOutcome { plan, cost, objective: cost, bound: None,
//!             proven_optimal: false, trace: CostTrace::default(),
//!             elapsed: Duration::ZERO, search: Default::default(),
//!             route: None })
//!     }
//! }
//!
//! let mut catalog = Catalog::new();
//! let r = catalog.add_table("R", 10.0);
//! let s = catalog.add_table("S", 1000.0);
//! let mut query = Query::new(vec![r, s]);
//! query.add_predicate(Predicate::binary(r, s, 0.1));
//!
//! let service = QueryService::new(catalog, Sorter).with_workers(2);
//! let tickets = service.submit_many(vec![query.clone(), query]);
//! let first = tickets[0].wait().unwrap();
//! let second = tickets[1].wait().unwrap();
//! // Identical concurrent submissions share one backend solve.
//! assert!(first.cache_hit != second.cache_hit || first.cache_hit);
//! let stats = service.shutdown();
//! assert_eq!(stats.backend_solves, 1);
//! ```

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use milpjoin_shim::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

use crate::cache::ShardedPlanCache;
use crate::catalog::Catalog;
use crate::fingerprint::FingerprintOptions;
use crate::orderer::{JoinOrderer, OrderingError, OrderingOptions};
use crate::persist::{SnapshotConfig, SnapshotWriteStats};
use crate::query::Query;
use crate::session::{
    process_query, EngineCtx, SessionOutcome, SessionStats, DEFAULT_CACHE_CAPACITY,
};

/// Default shard count of a service's plan cache — enough that a handful
/// of workers rarely contend on one lock, while each shard still holds a
/// meaningful slice of the capacity.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// Resolution state of one submission. (The variant size difference is
/// deliberate: `Pending` is transient and per-ticket, `Done` holds the
/// full outcome exactly once.)
#[allow(clippy::large_enum_variant)]
enum TicketState {
    Pending,
    Done(Result<SessionOutcome, OrderingError>),
}

struct TicketShared {
    state: Mutex<TicketState>,
    cv: Condvar,
}

fn resolve_ticket(ticket: &TicketShared, result: Result<SessionOutcome, OrderingError>) {
    let mut state = ticket.state.lock();
    // First resolution wins (the panic-path guard may race a regular
    // resolve only if a backend panicked *after* resolving — impossible —
    // so this is belt-and-braces).
    if matches!(*state, TicketState::Pending) {
        *state = TicketState::Done(result);
        ticket.cv.notify_all();
    }
}

/// A claim on one submitted query's outcome (returned by
/// [`QueryService::submit`]).
///
/// Tickets are independent of the service's lifetime: they resolve when a
/// worker answers the query (or immediately with an error if the service
/// was already shut down), and remain readable afterwards — [`Self::wait`]
/// and [`Self::try_get`] can be called any number of times, from any
/// thread.
pub struct PlanTicket {
    shared: Arc<TicketShared>,
}

impl PlanTicket {
    /// Blocks until the submission resolves and returns its outcome.
    pub fn wait(&self) -> Result<SessionOutcome, OrderingError> {
        let mut state = self.shared.state.lock();
        loop {
            match &*state {
                TicketState::Done(result) => return result.clone(),
                TicketState::Pending => state = self.shared.cv.wait(state),
            }
        }
    }

    /// Non-blocking poll: `None` while the query is still queued or being
    /// solved.
    pub fn try_get(&self) -> Option<Result<SessionOutcome, OrderingError>> {
        match &*self.shared.state.lock() {
            TicketState::Done(result) => Some(result.clone()),
            TicketState::Pending => None,
        }
    }

    /// Whether the submission has resolved.
    pub fn is_done(&self) -> bool {
        matches!(*self.shared.state.lock(), TicketState::Done(_))
    }
}

/// One queued submission.
struct Job {
    query: Query,
    ticket: Arc<TicketShared>,
    /// LRU recency stamp: the submission index offset above the cache's
    /// boot-time clock watermark. Every cache operation this job performs
    /// uses it, so eviction order matches submission order — the
    /// sequential-session semantics — whatever order workers finish in.
    recency: u64,
}

/// The ingest queue plus lifecycle counters, under one lock.
struct ServiceState {
    queue: VecDeque<Job>,
    submitted: u64,
    resolved: u64,
    shutdown: bool,
}

/// Everything the worker threads share.
struct ServiceShared {
    catalog: Arc<Catalog>,
    /// The one backend instance every worker answers through (backends are
    /// immutable configurations; see [`JoinOrderer`]).
    backend: Box<dyn JoinOrderer>,
    options: OrderingOptions,
    fingerprint_options: FingerprintOptions,
    cache: Arc<ShardedPlanCache>,
    /// Worker-pool size (applied when the pool lazily spawns on first
    /// submit).
    workers: usize,
    /// Snapshot file armed by `with_snapshot`: loaded at build time and
    /// re-exported once at shutdown (first closer wins, Drop included).
    snapshot_path: Option<PathBuf>,
    /// Whether the shutdown snapshot export already ran.
    snapshot_written: AtomicBool,
    /// Base of the submission-index recency domain: the cache's clock
    /// watermark at first submission (so service stamps outrank
    /// snapshot-loaded entries), computed lazily via compare-exchange.
    /// `u64::MAX` = not yet computed.
    recency_base: AtomicU64,
    state: Mutex<ServiceState>,
    /// Workers sleep here while the queue is empty.
    work_cv: Condvar,
    /// `drain()` sleeps here until `resolved == submitted`.
    idle_cv: Condvar,
    stats: Mutex<SessionStats>,
}

fn mark_resolved(shared: &ServiceShared) {
    let mut state = shared.state.lock();
    state.resolved += 1;
    if state.resolved == state.submitted {
        shared.idle_cv.notify_all();
    }
}

/// A long-running, continuously-ingesting optimization service (see the
/// module docs). `Send + Sync`: share it between submitter threads with an
/// [`Arc`] (or scoped borrows) and call [`Self::submit`] from any of them.
///
/// Configuration is builder-style and must complete **before the first
/// submission** (builders panic afterwards): one config surface — options,
/// fingerprinting, cache capacity or handle, snapshot, worker count —
/// mirroring [`crate::session::PlanSession`].
pub struct QueryService {
    shared: Arc<ServiceShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl QueryService {
    /// A service over `catalog` whose workers all answer through
    /// `backend`, one shared instance. Defaults: worker count = available
    /// parallelism, a [`DEFAULT_CACHE_SHARDS`]-way shared cache of
    /// [`DEFAULT_CACHE_CAPACITY`] structures, default options.
    pub fn new(catalog: Catalog, backend: impl JoinOrderer + 'static) -> Self {
        QueryService {
            shared: Arc::new(ServiceShared {
                catalog: Arc::new(catalog),
                backend: Box::new(backend),
                options: OrderingOptions::default(),
                fingerprint_options: FingerprintOptions::default(),
                cache: Arc::new(ShardedPlanCache::new(
                    DEFAULT_CACHE_CAPACITY,
                    DEFAULT_CACHE_SHARDS,
                )),
                workers: default_workers(),
                snapshot_path: None,
                snapshot_written: AtomicBool::new(false),
                recency_base: AtomicU64::new(u64::MAX),
                state: Mutex::new(ServiceState {
                    queue: VecDeque::new(),
                    submitted: 0,
                    resolved: 0,
                    shutdown: false,
                }),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                stats: Mutex::new(SessionStats::default()),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Exclusive access to the shared configuration; panics once tickets
    /// or workers exist (configure before submitting).
    fn config_mut(&mut self) -> &mut ServiceShared {
        Arc::get_mut(&mut self.shared)
            // audit-allow(no-panic): documented API contract — configuration
            // happens before the service is shared with workers.
            .expect("QueryService must be configured before the first submission")
    }

    /// Builder-style setter for the worker-pool size (clamped to at least
    /// 1; the pool spawns on the first submission).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.config_mut().workers = workers.max(1);
        self
    }

    /// Builder-style setter for the per-query runtime limits. For
    /// result-identity under load prefer
    /// [`OrderingOptions::deterministic_budget`] over a binding wall-clock
    /// `time_limit` (see the module docs).
    pub fn with_options(mut self, options: OrderingOptions) -> Self {
        self.config_mut().options = options;
        self
    }

    /// Builder-style setter for the fingerprint quantization and
    /// individualization budget.
    pub fn with_fingerprint_options(mut self, options: FingerprintOptions) -> Self {
        self.config_mut().fingerprint_options = options;
        self
    }

    /// Builder-style setter for the total plan-cache capacity (split
    /// across the shards).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.shared.cache.set_capacity(capacity);
        self
    }

    /// Builder-style setter replacing the cache with an existing shared
    /// one — sessions and services sharing a handle share solved
    /// structures *and* the in-flight table (cross-session dedup) — or
    /// with a fresh cache of another shape
    /// (`ShardedPlanCache::new(capacity, shards)`).
    pub fn with_shared_cache(mut self, cache: Arc<ShardedPlanCache>) -> Self {
        self.config_mut().cache = cache;
        self
    }

    /// Arms a snapshot file for this service: loads it now (validated per
    /// entry; a missing/corrupt/mismatched file is a clean cold boot,
    /// counted in `explain()`), and exports the cache back to the same
    /// path once, when the service shuts down (explicit [`Self::shutdown`]
    /// or drop). For an error-checked export at a moment of your choosing,
    /// call [`Self::snapshot`] — the shutdown hook is best-effort (a
    /// drop-path write has nowhere to report an error).
    pub fn with_snapshot(mut self, path: impl AsRef<Path>) -> Self {
        let path = path.as_ref().to_path_buf();
        let config = self.snapshot_config();
        let loaded = self.shared.cache.load_snapshot(&path, &config);
        {
            let mut stats = self.shared.stats.lock();
            stats.snapshot_entries_loaded += loaded.loaded;
            stats.snapshot_entries_rejected += loaded.rejected;
        }
        self.config_mut().snapshot_path = Some(path);
        self
    }

    /// Exports the plan cache to a snapshot file at `path` (atomic: temp
    /// file + rename), keyed to [`Self::snapshot_config`]. Safe while
    /// serving: the export clones entries one brief shard lock at a time
    /// and serializes lock-free, so in-flight claims never block on it
    /// (concurrently-published solves may or may not make the cut — the
    /// snapshot is a consistent-enough point-in-time view, not a barrier).
    pub fn snapshot(&self, path: impl AsRef<Path>) -> io::Result<SnapshotWriteStats> {
        let written = self
            .shared
            .cache
            .write_snapshot(path.as_ref(), &self.snapshot_config())?;
        self.shared.stats.lock().snapshot_entries_written += written.entries;
        Ok(written)
    }

    /// The snapshot compatibility key of this service (see
    /// [`crate::persist`]): fingerprint quantization plus the backend's
    /// cost model and parameters.
    pub fn snapshot_config(&self) -> SnapshotConfig {
        let (cost_model, cost_params) = self.shared.backend.cost_model();
        SnapshotConfig {
            fingerprint_options: self.shared.fingerprint_options,
            cost_model,
            cost_params,
        }
    }

    /// The shared handle to the plan cache.
    pub fn shared_cache(&self) -> Arc<ShardedPlanCache> {
        Arc::clone(&self.shared.cache)
    }

    pub fn catalog(&self) -> &Catalog {
        &self.shared.catalog
    }

    /// The underlying backend's name (`"milp"`, `"hybrid"`, ...).
    pub fn backend_name(&self) -> &'static str {
        self.shared.backend.name()
    }

    /// Number of distinct solved structures currently cached.
    pub fn cache_len(&self) -> usize {
        self.shared.cache.len()
    }

    /// Aggregate statistics across all workers so far (same shape and
    /// accounting as [`crate::session::PlanSession::explain`], plus the
    /// in-flight dedup counters).
    pub fn explain(&self) -> SessionStats {
        SessionStats {
            evictions: self.shared.cache.evictions(),
            ..self.shared.stats.lock().clone()
        }
    }

    /// Enqueues one query; the returned ticket resolves when a worker
    /// answers it. Callable from any thread at any time. After
    /// [`Self::shutdown`] the ticket resolves immediately with an
    /// [`OrderingError::InvalidConfig`] — never left pending.
    pub fn submit(&self, query: Query) -> PlanTicket {
        let ticket = Arc::new(TicketShared {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        });
        // The recency base touches every cache shard, so it is computed
        // outside the state lock (lazily, once — losers of the race adopt
        // the winner's value).
        let recency_base = self.recency_base();
        let accepted = {
            let mut state = self.shared.state.lock();
            let accepted = !state.shutdown;
            if accepted {
                state.submitted += 1;
                let recency = recency_base + state.submitted;
                state.queue.push_back(Job {
                    query,
                    ticket: Arc::clone(&ticket),
                    recency,
                });
                self.shared.work_cv.notify_one();
            }
            accepted
        };
        if accepted {
            self.ensure_workers();
        } else {
            let error = OrderingError::InvalidConfig("query service is shut down".into());
            resolve_ticket(&ticket, Err(error));
        }
        PlanTicket { shared: ticket }
    }

    /// The submission-index recency domain's base: the cache's clock
    /// watermark observed at the first submission, so every service stamp
    /// (`base + submission index`) outranks whatever the cache already
    /// held (snapshot-loaded entries in particular). Computed once via
    /// compare-exchange; `u64::MAX` is the unset sentinel.
    fn recency_base(&self) -> u64 {
        let base = self.shared.recency_base.load(Ordering::Acquire);
        if base != u64::MAX {
            return base;
        }
        let computed = self.shared.cache.max_clock();
        match self.shared.recency_base.compare_exchange(
            u64::MAX,
            computed,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => computed,
            Err(current) => current,
        }
    }

    /// Enqueues a stream of queries, returning one ticket per query in
    /// order.
    pub fn submit_many<I>(&self, queries: I) -> Vec<PlanTicket>
    where
        I: IntoIterator<Item = Query>,
    {
        queries.into_iter().map(|q| self.submit(q)).collect()
    }

    /// Blocks until the service is **idle**: every accepted submission —
    /// including ones other threads race in while this call sleeps — has
    /// resolved. Under truly continuous ingress this is a quiescent
    /// point, not a per-submission barrier; to wait for specific work,
    /// wait on its tickets.
    pub fn drain(&self) {
        let mut state = self.shared.state.lock();
        while state.resolved < state.submitted {
            state = self.shared.idle_cv.wait(state);
        }
    }

    /// Drains the queue (workers finish every already-accepted
    /// submission), stops the worker pool, and returns the final
    /// statistics. Subsequent submissions resolve immediately with an
    /// error; tickets already handed out remain readable.
    pub fn shutdown(self) -> SessionStats {
        self.shutdown_impl();
        self.explain()
    }

    fn shutdown_impl(&self) {
        {
            let mut state = self.shared.state.lock();
            state.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        let handles: Vec<_> = self.handles.lock().drain(..).collect();
        for handle in handles {
            // A worker that panicked already resolved its ticket through
            // the job guard; surface nothing here.
            let _ = handle.join();
        }
        // The armed warm-boot export, after every worker has drained (the
        // snapshot sees the final cache). Exactly once, whichever of
        // `shutdown`/drop closes the service first; best-effort by
        // necessity — the drop path has nowhere to report an IO error
        // (use `snapshot()` for an error-checked export).
        if let Some(path) = &self.shared.snapshot_path {
            if !self.shared.snapshot_written.swap(true, Ordering::SeqCst) {
                if let Ok(written) = self
                    .shared
                    .cache
                    .write_snapshot(path, &self.snapshot_config())
                {
                    self.shared.stats.lock().snapshot_entries_written += written.entries;
                }
            }
        }
    }

    /// Spawns the worker pool on first use (so builder configuration can
    /// finish before any thread observes it).
    fn ensure_workers(&self) {
        let mut handles = self.handles.lock();
        if !handles.is_empty() {
            return;
        }
        for _ in 0..self.shared.workers {
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(shared)));
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// Default worker-pool size: the machine's available parallelism (the
/// solver is single-threaded per query, so one worker per core saturates
/// the hardware without oversubscribing it).
fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn worker_loop(shared: Arc<ServiceShared>) {
    loop {
        let job = {
            let mut state = shared.state.lock();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work_cv.wait(state);
            }
        };
        let Some(Job {
            query,
            ticket,
            recency,
        }) = job
        else {
            return;
        };
        let mut local = SessionStats::default();
        // A panicking backend must neither stick the ticket nor kill the
        // worker (a shrinking pool would eventually hang the queue): catch
        // the unwind, resolve the ticket with an error, keep the partial
        // per-job statistics, and move on to the next job. The engine's
        // own cleanup is unwind-safe — the in-flight guard abandons its
        // slot on the panic path, waking any blocked followers — and the
        // `AssertUnwindSafe` is sound because `local` is only read after
        // the catch and the shared cache guards itself with locks.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Every worker answers through the one shared backend: its
            // per-solve scratch lives on this call stack, so solves
            // contend only on the cache's shard locks.
            let ctx = EngineCtx {
                catalog: &shared.catalog,
                backend: &*shared.backend,
                options: &shared.options,
                fingerprint_options: &shared.fingerprint_options,
                cache: &shared.cache,
                recency: Some(recency),
            };
            process_query(&ctx, &query, &mut local)
        }))
        .unwrap_or_else(|_panic| {
            Err(OrderingError::Backend(
                "worker panicked while solving".into(),
            ))
        });
        resolve_ticket(&ticket, result);
        shared.stats.lock().absorb(&local);
        mark_resolved(&shared);
    }
}

// The service exists to be shared across submitter threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
    assert_send_sync::<PlanTicket>();
};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    use super::*;
    use crate::cost::{plan_cost, CostModelKind, CostParams};
    use crate::orderer::{CostTrace, OrderingOutcome};
    use crate::plan::LeftDeepPlan;
    use crate::query::Predicate;

    /// Deterministic smallest-first toy backend with a shared call
    /// counter and an optional artificial solve latency (to hold leaders
    /// in flight long enough for followers to block).
    #[derive(Clone)]
    struct CountingBackend {
        calls: Arc<AtomicU64>,
        delay: Duration,
        fail: bool,
    }

    impl CountingBackend {
        fn new() -> Self {
            CountingBackend {
                calls: Arc::new(AtomicU64::new(0)),
                delay: Duration::ZERO,
                fail: false,
            }
        }

        fn slow(delay: Duration) -> Self {
            CountingBackend {
                delay,
                ..Self::new()
            }
        }

        fn calls(&self) -> u64 {
            self.calls.load(Ordering::Relaxed)
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
            self.calls.fetch_add(1, Ordering::Relaxed);
            if !self.delay.is_zero() {
                std::thread::sleep(self.delay);
            }
            if self.fail {
                return Err(OrderingError::Backend("injected failure".into()));
            }
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
                bound: Some(cost),
                proven_optimal: true,
                trace: CostTrace::single(Duration::ZERO, cost, Some(cost)),
                elapsed: Duration::ZERO,
                search: Default::default(),
                route: None,
            })
        }
    }

    fn chain(catalog: &mut Catalog, scale: f64) -> Query {
        let ids: Vec<_> = [scale, scale * 37.0, scale * 900.0]
            .iter()
            .map(|&c| catalog.add_table(format!("t{}", catalog.num_tables()), c))
            .collect();
        let mut q = Query::new(ids.clone());
        q.add_predicate(Predicate::binary(ids[0], ids[1], 0.1));
        q.add_predicate(Predicate::binary(ids[1], ids[2], 0.3));
        q
    }

    #[test]
    fn concurrent_identical_submissions_share_one_solve() {
        let mut catalog = Catalog::new();
        let query = chain(&mut catalog, 10.0);
        let backend = CountingBackend::slow(Duration::from_millis(30));
        let counter = backend.clone();
        let service = QueryService::new(catalog, backend).with_workers(4);
        // All four workers can pick up a copy concurrently; the in-flight
        // table must still collapse them onto one backend solve.
        let tickets = service.submit_many(std::iter::repeat_n(query, 8));
        for t in &tickets {
            let out = t.wait().unwrap();
            assert!(out.outcome.cost.is_finite());
        }
        assert_eq!(counter.calls(), 1, "exactly one backend solve");
        let stats = service.shutdown();
        assert_eq!(stats.queries, 8);
        assert_eq!(stats.backend_solves, 1);
        assert_eq!(stats.inflight_leaders, 1);
        assert_eq!(stats.cache_hits, 7);
        assert_eq!(stats.exact_hits, 7);
        // Every wait-resolved follower is also a cache hit.
        assert!(stats.inflight_wait_hits <= stats.cache_hits);
        assert!(stats.inflight_followers >= stats.inflight_wait_hits);
    }

    #[test]
    fn tickets_resolve_out_of_submission_order() {
        let mut catalog = Catalog::new();
        let slow_query = chain(&mut catalog, 10.0);
        let fast_query = chain(&mut catalog, 100000.0);
        let service = QueryService::new(catalog, CountingBackend::slow(Duration::from_millis(40)))
            .with_workers(2);
        let slow = service.submit(slow_query);
        let fast = service.submit(fast_query);
        // Both resolve regardless of order; try_get eventually observes it.
        assert!(fast.wait().is_ok());
        assert!(slow.wait().is_ok());
        assert!(slow.try_get().is_some() && fast.try_get().is_some());
        service.drain(); // everything resolved: returns immediately
    }

    #[test]
    fn failed_leader_retries_followers_like_sequential() {
        let mut catalog = Catalog::new();
        let query = chain(&mut catalog, 10.0);
        let backend = CountingBackend {
            fail: true,
            ..CountingBackend::slow(Duration::from_millis(20))
        };
        let counter = backend.clone();
        let service = QueryService::new(catalog, backend).with_workers(3);
        let tickets = service.submit_many(std::iter::repeat_n(query, 3));
        for t in &tickets {
            assert!(matches!(t.wait(), Err(OrderingError::Backend(_))));
        }
        let stats = service.shutdown();
        // Every occurrence re-solves (and fails), like the sequential
        // session re-missing an uncached structure.
        assert_eq!(counter.calls(), 3);
        assert_eq!(stats.backend_solves, 3);
        assert_eq!(stats.backend_errors, 3);
    }

    #[test]
    fn drain_then_shutdown_leaves_no_stuck_tickets() {
        let mut catalog = Catalog::new();
        let queries: Vec<Query> = (0..6)
            .map(|i| chain(&mut catalog, 10.0 * 3f64.powi(i)))
            .collect();
        let service = QueryService::new(catalog, CountingBackend::new()).with_workers(2);
        let tickets = service.submit_many(queries);
        service.drain();
        for t in &tickets {
            assert!(t.is_done(), "drain() must resolve every submission");
            assert!(t.try_get().unwrap().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.queries, 6);
        assert_eq!(stats.backend_solves, 6);
    }

    #[test]
    fn submissions_after_shutdown_resolve_with_an_error() {
        let mut catalog = Catalog::new();
        let query = chain(&mut catalog, 10.0);
        let service = QueryService::new(catalog.clone(), CountingBackend::new());
        let ok = service.submit(query.clone());
        assert!(ok.wait().is_ok());
        // Keep a second handle alive through shutdown via drop semantics:
        // `shutdown` consumes the service, so re-create to test the flag.
        let service2 = QueryService::new(catalog, CountingBackend::new());
        service2.shared.state.lock().shutdown = true;
        let rejected = service2.submit(query);
        assert!(matches!(
            rejected.wait(),
            Err(OrderingError::InvalidConfig(_))
        ));
        assert!(rejected.is_done());
    }

    #[test]
    fn invalid_queries_resolve_with_invalid_query() {
        let catalog = Catalog::new();
        let foreign = Query::new(vec![crate::catalog::TableId(9999)]);
        let service = QueryService::new(catalog, CountingBackend::new());
        let t = service.submit(foreign);
        assert!(matches!(t.wait(), Err(OrderingError::InvalidQuery(_))));
        let stats = service.shutdown();
        assert_eq!(stats.queries, 1);
        assert_eq!(stats.backend_solves, 0);
    }

    #[test]
    fn panicking_backend_resolves_the_ticket_and_keeps_the_worker_alive() {
        /// Panics on the first call only — later submissions must still be
        /// served by the *same* single worker, proving the pool does not
        /// shrink on a backend panic.
        #[derive(Clone)]
        struct Panicker {
            panicked: Arc<std::sync::atomic::AtomicBool>,
            inner: CountingBackend,
        }
        impl JoinOrderer for Panicker {
            fn name(&self) -> &'static str {
                "panicker"
            }
            fn cost_model(&self) -> (CostModelKind, CostParams) {
                (CostModelKind::Cout, CostParams::default())
            }
            fn order(
                &self,
                c: &Catalog,
                q: &Query,
                o: &OrderingOptions,
            ) -> Result<OrderingOutcome, OrderingError> {
                if !self.panicked.swap(true, Ordering::SeqCst) {
                    panic!("injected panic");
                }
                self.inner.order(c, q, o)
            }
        }
        let mut catalog = Catalog::new();
        let query = chain(&mut catalog, 10.0);
        let healthy = chain(&mut catalog, 100000.0);
        let service = QueryService::new(
            catalog,
            Panicker {
                panicked: Arc::new(std::sync::atomic::AtomicBool::new(false)),
                inner: CountingBackend::new(),
            },
        )
        .with_workers(1);
        let t = service.submit(query);
        assert!(matches!(t.wait(), Err(OrderingError::Backend(_))));
        // The lone worker survived the panic: later submissions resolve,
        // drain() does not hang, and the panicked job was counted.
        let t2 = service.submit(healthy);
        assert!(t2.wait().is_ok());
        service.drain();
        let stats = service.shutdown();
        assert_eq!(stats.queries, 2);
    }

    /// Delays only the queries whose smallest table is below a threshold,
    /// so one submission can be made to finish *after* later ones.
    #[derive(Clone)]
    struct SelectiveDelay {
        inner: CountingBackend,
        slow_below: f64,
        delay: Duration,
    }

    impl JoinOrderer for SelectiveDelay {
        fn name(&self) -> &'static str {
            "selective-delay"
        }

        fn cost_model(&self) -> (CostModelKind, CostParams) {
            self.inner.cost_model()
        }

        fn order(
            &self,
            catalog: &Catalog,
            query: &Query,
            options: &OrderingOptions,
        ) -> Result<OrderingOutcome, OrderingError> {
            let min = query
                .tables
                .iter()
                .map(|&t| catalog.cardinality(t))
                .fold(f64::INFINITY, f64::min);
            if min < self.slow_below {
                std::thread::sleep(self.delay);
            }
            self.inner.order(catalog, query, options)
        }
    }

    #[test]
    fn cache_recency_follows_submission_order_not_completion_order() {
        let mut catalog = Catalog::new();
        let a = chain(&mut catalog, 10.0); // slow: completes *last*
        let b = chain(&mut catalog, 1000.0);
        let c = chain(&mut catalog, 100000.0);
        let backend = SelectiveDelay {
            inner: CountingBackend::new(),
            slow_below: 100.0,
            delay: Duration::from_millis(80),
        };
        let counter = backend.inner.clone();
        let service = QueryService::new(catalog, backend)
            .with_workers(2)
            .with_shared_cache(Arc::new(ShardedPlanCache::new(2, 1)));
        // A is submitted first but publishes its plan last (B and C both
        // complete while A's backend sleeps). Submission-index stamping
        // makes A the LRU victim anyway; completion-order stamping would
        // instead make A look freshest and evict B.
        let tickets = service.submit_many(vec![a.clone(), b.clone(), c]);
        for t in &tickets {
            assert!(t.wait().is_ok());
        }
        service.drain();
        assert_eq!(counter.calls(), 3);
        // A was evicted (capacity 2 kept B and C): re-solves.
        assert!(service.submit(a).wait().is_ok());
        assert_eq!(
            counter.calls(),
            4,
            "A must miss: it is the oldest submission"
        );
        service.drain();
        // A's re-insert evicted B, the next-oldest submission: re-solves.
        assert!(service.submit(b).wait().is_ok());
        assert_eq!(counter.calls(), 5, "B must miss after A reclaimed a slot");
        let stats = service.shutdown();
        assert_eq!(stats.backend_solves, 5);
        // A's publish, A's re-insert, and B's re-insert each displaced the
        // then-oldest submission from the two-slot cache.
        assert_eq!(stats.evictions, 3);
    }

    #[test]
    fn one_backend_instance_serves_every_worker() {
        /// Deliberately not `Clone`: the service cannot make a copy per
        /// worker. The first two solves meet at a barrier, so two workers
        /// must be inside this one instance at the same time.
        struct Solo {
            calls: Arc<AtomicU64>,
            rendezvous: std::sync::Barrier,
            params: CostParams,
        }
        impl JoinOrderer for Solo {
            fn name(&self) -> &'static str {
                "solo"
            }
            fn cost_model(&self) -> (CostModelKind, CostParams) {
                (CostModelKind::Cout, self.params)
            }
            fn order(
                &self,
                c: &Catalog,
                q: &Query,
                o: &OrderingOptions,
            ) -> Result<OrderingOutcome, OrderingError> {
                if self.calls.fetch_add(1, Ordering::SeqCst) < 2 {
                    self.rendezvous.wait();
                }
                CountingBackend::new().order(c, q, o)
            }
        }
        let mut catalog = Catalog::new();
        let queries: Vec<Query> = (0..8)
            .map(|i| chain(&mut catalog, 10.0 * 3f64.powi(i)))
            .collect();
        let calls = Arc::new(AtomicU64::new(0));
        let service = QueryService::new(
            catalog,
            Solo {
                calls: Arc::clone(&calls),
                rendezvous: std::sync::Barrier::new(2),
                params: CostParams {
                    buffer_pages: 17.0,
                    ..CostParams::default()
                },
            },
        )
        .with_workers(4);
        assert_eq!(service.backend_name(), "solo");
        assert_eq!(service.snapshot_config().cost_params.buffer_pages, 17.0);
        for t in service.submit_many(queries) {
            assert!(t.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.backend_solves, 8);
        assert_eq!(calls.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn shared_cache_dedups_across_service_and_session() {
        let mut catalog = Catalog::new();
        let query = chain(&mut catalog, 10.0);
        let backend = CountingBackend::new();
        let counter = backend.clone();
        let service = QueryService::new(catalog.clone(), backend.clone()).with_workers(1);
        service.submit(query.clone()).wait().unwrap();
        // A sequential session sharing the cache hits the service's solve.
        let mut session = crate::session::PlanSession::new(catalog, Box::new(backend))
            .with_shared_cache(service.shared_cache());
        assert!(session.optimize(&query).unwrap().cache_hit);
        assert_eq!(counter.calls(), 1);
    }
}
