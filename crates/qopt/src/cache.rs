//! Shard-locked fingerprint → plan cache shared between sessions and
//! worker threads.
//!
//! The [`crate::session::PlanSession`] of PR 2 kept its plan cache as a
//! plain `HashMap` inside the session — correct for one thread, useless
//! for a worker pool. [`ShardedPlanCache`] is that cache split out and made
//! shareable: entries are distributed over `N` independently-locked shards
//! by a *deterministic* hash of the fingerprint, so concurrent workers
//! solving different structures contend only when their fingerprints land
//! on the same shard. Each shard keeps the PR 3 bookkeeping locally —
//! bounded population, least-recently-used eviction driven by a monotone
//! per-shard logical clock, an eviction counter — and the cache aggregates
//! them for `explain()`-style reporting.
//!
//! Design notes:
//!
//! * **Deterministic sharding.** The shard index comes from a fixed-key
//!   SipHash ([`DefaultHasher`]), not the process-randomized `RandomState`,
//!   so the same fingerprint lands on the same shard in every run —
//!   eviction behavior (which structures survive a capacity squeeze) is
//!   reproducible across runs and machines.
//! * **Per-shard LRU.** Recency is tracked per shard; eviction picks the
//!   least-recently-used entry *of the full shard*. With one shard
//!   (the [`crate::session::PlanSession`] default) this is exactly the
//!   global LRU of PR 3; with many shards it is the standard sharded
//!   approximation (a globally-stale entry survives while its shard has
//!   room).
//! * **Coarse-grained locking.** A lookup or insert holds exactly one shard
//!   lock for a map operation — never across a backend solve. Solves run
//!   lock-free.
//! * **Cross-batch in-flight table.** Each shard additionally tracks the
//!   fingerprints currently *being solved*, one condvar-backed slot per
//!   fingerprint. `ShardedPlanCache::claim` is the single entry point of
//!   the dedup protocol: a claimant either gets the cached entry, becomes
//!   the **leader** (an `InFlightGuard` obliging it to publish or
//!   abandon), or gets the leader's slot to **wait** on. Concurrent
//!   identical submissions — across threads, batches, and sessions sharing
//!   the cache handle — therefore trigger exactly one backend solve;
//!   followers block until the leader publishes and instantiate its
//!   record. The slot lives in the shard, so the claim check ("cached? in
//!   flight? neither?") is atomic under the shard lock, and publishing
//!   inserts the record *before* retiring the slot — a new claimant can
//!   never observe the gap between "solved" and "cached".
//! * **Model-checked protocol.** The locks and condvars here are
//!   `milpjoin_shim::sync` primitives: plain `std` types in a release
//!   build, but under the interleaving explorer
//!   (`milpjoin_shim::explore`) the *real* claim/publish/abandon code is
//!   driven through every yield-point schedule for 2–3 threads. The
//!   `interleave_tests` module exhaustively checks leader publish vs.
//!   follower wake vs. abandoned- and panicked-leader re-entry, and its
//!   seeded mutations (retire-before-insert gap, dropped wakeup) prove
//!   the checker detects the bug classes this protocol is designed out
//!   of.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use milpjoin_shim::sync::{Condvar, Mutex};

use crate::fingerprint::{ExactStats, Fingerprint};
use crate::plan::JoinOp;

/// A solved structure: the join order in canonical table indices plus what
/// the backend proved about it. Stored per fingerprint; instantiated over a
/// hitting query's concrete tables by the session layer.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    pub(crate) canonical_order: Vec<usize>,
    pub(crate) operators: Vec<JoinOp>,
    pub(crate) exact: ExactStats,
    pub(crate) bound: Option<f64>,
    pub(crate) proven_optimal: bool,
    /// Loaded from a persisted snapshot rather than solved in-process.
    /// Hits on warm entries are counted as `SessionStats::warm_hits`, so a
    /// booted service can prove its snapshot actually absorbed the traffic.
    pub(crate) warm: bool,
}

/// State of one in-flight solve slot.
enum SlotState {
    /// The leader is still solving.
    Pending,
    /// The leader finished: `Some` carries its published record, `None`
    /// means it failed (or panicked) — followers then re-enter the claim
    /// protocol, exactly like a sequential session re-missing an uncached
    /// structure.
    Done(Option<Arc<CachedPlan>>),
}

/// One condvar-backed in-flight slot: the rendezvous between the leader
/// solving a fingerprint and the followers blocked on it.
pub(crate) struct InFlightSlot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

impl InFlightSlot {
    fn new() -> Self {
        InFlightSlot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        }
    }

    /// Blocks until the leader resolves the slot; returns its published
    /// record, or `None` when the leader failed.
    pub(crate) fn wait(&self) -> Option<Arc<CachedPlan>> {
        let mut state = self.state.lock();
        loop {
            match &*state {
                SlotState::Done(record) => return record.clone(),
                SlotState::Pending => state = self.cv.wait(state),
            }
        }
    }

    fn resolve(&self, record: Option<Arc<CachedPlan>>, notify: bool) {
        *self.state.lock() = SlotState::Done(record);
        if notify {
            self.cv.notify_all();
        }
    }
}

/// Seedable protocol mutations for the interleaving-explorer self-tests
/// (`interleave_tests`): each flag re-introduces one bug class the claim
/// protocol is designed out of, so the tests can prove the explorer
/// detects it. Debug builds only; release builds have no flags and no
/// branches.
#[cfg(debug_assertions)]
#[derive(Default)]
pub(crate) struct CacheFaults {
    /// Publish retires the in-flight slot (and wakes followers) *before*
    /// inserting the record — re-opening the solved-but-uncached gap a
    /// concurrent claimant can fall through (double solve).
    pub(crate) publish_retire_first: std::sync::atomic::AtomicBool,
    /// Publish resolves the slot without notifying — a lost wakeup, which
    /// the explorer observes as a deadlock.
    pub(crate) drop_publish_notify: std::sync::atomic::AtomicBool,
}

/// Leadership of one in-flight solve, handed out by
/// [`ShardedPlanCache::claim`]. The holder **must** end the solve one way
/// or the other: [`publish`](Self::publish) on success, or drop the guard
/// to abandon (failure and panic paths alike) — either wakes every blocked
/// follower, so no thread can wait forever on a dead leader.
pub(crate) struct InFlightGuard<'a> {
    cache: &'a ShardedPlanCache,
    fingerprint: Fingerprint,
    slot: Arc<InFlightSlot>,
    published: bool,
    /// Recency stamp of the claim that produced this guard (see
    /// [`Shard::stamp`]); the publish re-uses it so a job's insert lands at
    /// its submission index, not at solve-completion time.
    at: Option<u64>,
}

impl InFlightGuard<'_> {
    /// Publishes the leader's solved record: inserts it into the cache,
    /// retires the in-flight slot, and wakes the followers with the
    /// record. Insert-before-retire (under one shard lock) means a
    /// concurrent claimant always sees the structure as either in flight
    /// or cached — never as a fresh miss that would trigger a second
    /// solve.
    pub(crate) fn publish(mut self, record: Arc<CachedPlan>) {
        self.published = true;
        #[cfg(debug_assertions)]
        if self
            .cache
            .faults
            .publish_retire_first
            .load(std::sync::atomic::Ordering::SeqCst)
        {
            // Seeded bug (see `CacheFaults`): retire the slot and wake the
            // followers first, insert the record only after a scheduling
            // point — the solved-but-uncached gap the real path closes by
            // insert-before-retire under one shard lock.
            self.cache.retire_inflight(&self.fingerprint);
            self.slot
                .resolve(Some(Arc::clone(&record)), self.cache.publish_notifies());
            milpjoin_shim::yield_point();
            self.cache
                .insert_at(self.fingerprint.clone(), record, self.at);
            return;
        }
        self.cache
            .publish_inflight(&self.fingerprint, Arc::clone(&record), self.at);
        self.slot
            .resolve(Some(record), self.cache.publish_notifies());
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // Abandon: retire the slot and wake the followers empty-handed
        // (they re-enter the claim protocol). Runs on the panic path too.
        self.cache.retire_inflight(&self.fingerprint);
        self.slot.resolve(None, true);
    }
}

/// Verdict of [`ShardedPlanCache::claim`] for one fingerprint.
pub(crate) enum InFlightClaim<'a> {
    /// Already solved and cached: the entry, recency refreshed.
    Cached(Arc<CachedPlan>),
    /// Nobody is solving this structure: the claimant is now the leader.
    Lead(InFlightGuard<'a>),
    /// Another thread is solving it: wait on the slot for its outcome.
    Wait(Arc<InFlightSlot>),
}

struct Shard {
    /// Entries plus their last-touched logical time (the LRU key).
    map: HashMap<Fingerprint, (Arc<CachedPlan>, u64)>,
    /// Fingerprints currently being solved (the in-flight dedup table).
    inflight: HashMap<Fingerprint, Arc<InFlightSlot>>,
    capacity: usize,
    /// Monotone logical clock stamping lookups and inserts.
    clock: u64,
    evictions: u64,
}

impl Shard {
    /// Advances the clock and returns the recency stamp for one operation.
    /// `at: None` is the sequential domain (the next clock tick);
    /// `at: Some(t)` is an externally assigned logical time — the
    /// `QueryService` stamps every cache operation of job *i* with its
    /// submission index, so eviction order matches the order queries were
    /// submitted, not the order worker threads happened to finish them.
    /// The clock max-merges external stamps, keeping it monotone across
    /// mixed domains (snapshot-loaded entries, sequential sessions, and
    /// service traffic sharing one cache).
    fn stamp(&mut self, at: Option<u64>) -> u64 {
        match at {
            Some(t) => {
                self.clock = self.clock.max(t);
                t
            }
            None => {
                self.clock += 1;
                self.clock
            }
        }
    }

    /// Evicts least-recently-used entries until the shard fits its
    /// capacity; returns how many were evicted.
    fn enforce_capacity(&mut self) -> u64 {
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            // O(population) scan per eviction: deterministic, and at real
            // capacities the scan is trivially cheap next to a backend
            // solve. Recency ties are impossible within one stamping
            // domain (the clock is monotone, and a submission index is
            // used for exactly one fingerprint); the fingerprint tie-break
            // keeps the victim deterministic even if independent external
            // domains ever collide.
            // audit-allow(no-unordered-iter): min_by over (clock,
            // fingerprint) — a total order, so the winner is
            // order-independent.
            let lru = self
                .map
                .iter()
                .min_by(|(ka, &(_, ta)), (kb, &(_, tb))| ta.cmp(&tb).then_with(|| ka.cmp(kb)))
                .map(|(k, _)| k.clone())
                // audit-allow(no-panic): loop guard proves len > capacity
                // >= 0, so the shard is non-empty here.
                .expect("non-empty shard above capacity");
            self.map.remove(&lru);
            evicted += 1;
        }
        self.evictions += evicted;
        evicted
    }
}

/// A bounded, shard-locked fingerprint → plan cache (see the module docs).
///
/// Shared by reference ([`std::sync::Arc`]) between sessions and the
/// workers of a [`crate::service::QueryService`]. Entries are `Arc`-wrapped internally,
/// so a hit hands out a pointer clone — no per-hit deep copy of the plan
/// payload — and no lock is held while the caller instantiates the plan.
pub struct ShardedPlanCache {
    shards: Vec<Mutex<Shard>>,
    #[cfg(debug_assertions)]
    pub(crate) faults: CacheFaults,
}

impl std::fmt::Debug for ShardedPlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPlanCache")
            .field("shards", &self.shards.len())
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl ShardedPlanCache {
    /// A cache of `capacity` total entries over `shards` independently
    /// locked shards. `shards` is clamped to `1..=max(capacity, 1)`: a
    /// shard that could never hold an entry would silently disable caching
    /// for every fingerprint hashing to it, so a small capacity gets fewer
    /// shards instead. The capacity is distributed as evenly as possible;
    /// shard `i` gets `capacity / shards` entries plus one of the
    /// remainder.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let base = capacity / shards;
        let remainder = capacity % shards;
        ShardedPlanCache {
            shards: (0..shards)
                .map(|i| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        inflight: HashMap::new(),
                        capacity: base + usize::from(i < remainder),
                        clock: 0,
                        evictions: 0,
                    })
                })
                .collect(),
            #[cfg(debug_assertions)]
            faults: CacheFaults::default(),
        }
    }

    /// Whether publishing should notify slot waiters — `true` unless the
    /// `drop_publish_notify` seeded mutation is armed (debug builds only).
    fn publish_notifies(&self) -> bool {
        #[cfg(debug_assertions)]
        {
            !self
                .faults
                .drop_publish_notify
                .load(std::sync::atomic::Ordering::SeqCst)
        }
        #[cfg(not(debug_assertions))]
        {
            true
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total entry budget across all shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.lock().capacity).sum()
    }

    /// Re-distributes a new total capacity across the existing shards,
    /// evicting immediately where a shard now exceeds its share. Returns
    /// how many entries were evicted by this call.
    ///
    /// The shard count is fixed (the handle may be shared), so a nonzero
    /// capacity smaller than the shard count is rounded up to one entry
    /// per shard — a zero-capacity shard would silently disable caching
    /// for every fingerprint hashing to it. [`Self::capacity`] reports the
    /// effective total. Prefer configuring the shard count alongside the
    /// capacity (session builders rebuild via [`Self::new`], which clamps
    /// the shard count instead).
    pub fn set_capacity(&self, capacity: usize) -> u64 {
        let n = self.shards.len();
        let base = capacity / n;
        let remainder = capacity % n;
        let mut evicted = 0;
        for (i, shard) in self.shards.iter().enumerate() {
            let mut s = shard.lock();
            s.capacity = if capacity == 0 {
                0
            } else {
                (base + usize::from(i < remainder)).max(1)
            };
            evicted += s.enforce_capacity();
        }
        evicted
    }

    /// Number of distinct solved structures currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().map.clear();
        }
    }

    /// Total entries evicted over the cache's lifetime (all shards).
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().evictions).sum()
    }

    /// Deterministic shard index of a fingerprint (fixed-key hash; see the
    /// module docs).
    fn shard_of(&self, fp: &Fingerprint) -> usize {
        let mut hasher = DefaultHasher::new();
        fp.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    /// Refreshes an entry's LRU recency without cloning it; returns whether
    /// the entry was present. (Test-only: the snapshot tests probe which
    /// entries survived eviction without running the claim protocol.)
    #[cfg(test)]
    pub(crate) fn touch(&self, fp: &Fingerprint) -> bool {
        let mut shard = self.shards[self.shard_of(fp)].lock();
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(fp) {
            Some((_, last_used)) => {
                *last_used = clock;
                true
            }
            None => false,
        }
    }

    /// Inserts (or replaces) a solved structure, evicting the shard's LRU
    /// entries beyond capacity. Returns how many entries were evicted. A
    /// zero-capacity cache stores nothing.
    pub(crate) fn insert(&self, fp: Fingerprint, plan: Arc<CachedPlan>) -> u64 {
        self.insert_at(fp, plan, None)
    }

    /// [`Self::insert`] with an explicit recency stamp (see
    /// [`Shard::stamp`]). When replacing an existing entry the recency is
    /// max-merged, so a stale external stamp can never *age* an entry a
    /// later operation already refreshed.
    pub(crate) fn insert_at(&self, fp: Fingerprint, plan: Arc<CachedPlan>, at: Option<u64>) -> u64 {
        let mut shard = self.shards[self.shard_of(&fp)].lock();
        if shard.capacity == 0 {
            return 0;
        }
        let clock = shard.stamp(at);
        match shard.map.get_mut(&fp) {
            Some((existing, last_used)) => {
                *existing = plan;
                *last_used = (*last_used).max(clock);
            }
            None => {
                shard.map.insert(fp, (plan, clock));
            }
        }
        shard.enforce_capacity()
    }

    /// The in-flight dedup protocol's single entry point (see the module
    /// docs): atomically — under one shard lock — answers whether `fp` is
    /// cached (recency refreshed), currently being solved (wait on the
    /// returned slot), or unclaimed (the caller becomes the leader and
    /// receives the guard obliging it to publish or abandon).
    /// (Production callers go through [`Self::claim_at`] — the engine
    /// always threads an explicit recency domain; the protocol tests use
    /// this shorthand.)
    #[cfg(test)]
    pub(crate) fn claim(&self, fp: &Fingerprint) -> InFlightClaim<'_> {
        self.claim_at(fp, None)
    }

    /// [`Self::claim`] with an explicit recency stamp (see
    /// [`Shard::stamp`]): the `QueryService` passes each job's submission
    /// index so hit refreshes and the eventual publish both land at
    /// submission order, whatever order worker threads finish in.
    pub(crate) fn claim_at(&self, fp: &Fingerprint, at: Option<u64>) -> InFlightClaim<'_> {
        let mut shard = self.shards[self.shard_of(fp)].lock();
        let clock = shard.stamp(at);
        if let Some((cached, last_used)) = shard.map.get_mut(fp) {
            *last_used = (*last_used).max(clock);
            return InFlightClaim::Cached(Arc::clone(cached));
        }
        if let Some(slot) = shard.inflight.get(fp) {
            return InFlightClaim::Wait(Arc::clone(slot));
        }
        let slot = Arc::new(InFlightSlot::new());
        shard.inflight.insert(fp.clone(), Arc::clone(&slot));
        InFlightClaim::Lead(InFlightGuard {
            cache: self,
            fingerprint: fp.clone(),
            slot,
            published: false,
            at,
        })
    }

    /// Leader success path: inserts the record and retires the in-flight
    /// slot under one shard lock (a concurrent [`Self::claim`] sees the
    /// structure as cached the instant it stops being in flight).
    fn publish_inflight(&self, fp: &Fingerprint, plan: Arc<CachedPlan>, at: Option<u64>) {
        let mut shard = self.shards[self.shard_of(fp)].lock();
        shard.inflight.remove(fp);
        if shard.capacity == 0 {
            return;
        }
        let clock = shard.stamp(at);
        match shard.map.get_mut(fp) {
            Some((existing, last_used)) => {
                *existing = plan;
                *last_used = (*last_used).max(clock);
            }
            None => {
                shard.map.insert(fp.clone(), (plan, clock));
            }
        }
        shard.enforce_capacity();
    }

    /// Leader failure path: retires the slot without caching anything.
    fn retire_inflight(&self, fp: &Fingerprint) {
        let mut shard = self.shards[self.shard_of(fp)].lock();
        shard.inflight.remove(fp);
    }

    /// Number of structures currently being solved (across all shards).
    pub fn inflight_len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().inflight.len()).sum()
    }

    /// The largest logical-clock value across all shards — the watermark
    /// above which an external recency domain (service submission indexes)
    /// must start so its stamps outrank everything already present (e.g.
    /// snapshot-loaded entries).
    pub(crate) fn max_clock(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().clock)
            .max()
            .unwrap_or(0)
    }

    /// Clones out every cached entry with its recency stamp, one brief
    /// shard lock at a time — the snapshot writer's read side. In-flight
    /// claims on other shards proceed untouched, and claims on the shard
    /// being copied only wait for `Arc` pointer clones, never for
    /// serialization or file IO (both happen after every lock is dropped):
    /// snapshot-while-serving never blocks the claim protocol.
    ///
    /// The collection order is per-shard hash order and deliberately
    /// carries no meaning — the snapshot writer re-sorts globally by
    /// `(last_used, shard, fingerprint)` before assigning recency ranks.
    pub(crate) fn snapshot_entries(&self) -> Vec<SnapshotSource> {
        let mut out = Vec::new();
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            let s = shard.lock();
            for (fp, (plan, last_used)) in &s.map {
                out.push(SnapshotSource {
                    fingerprint: fp.clone(),
                    plan: Arc::clone(plan),
                    last_used: *last_used,
                    shard: shard_idx,
                });
            }
        }
        out
    }
}

/// One cached entry as extracted for snapshotting: the key, the shared
/// plan record, and where/when it last lived in the LRU order.
pub(crate) struct SnapshotSource {
    pub(crate) fingerprint: Fingerprint,
    pub(crate) plan: Arc<CachedPlan>,
    pub(crate) last_used: u64,
    pub(crate) shard: usize,
}

// The whole point of this type: share it between worker threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ShardedPlanCache>();
    assert_send_sync::<CachedPlan>();
};

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn small_capacities_never_strand_a_shard() {
        // Construction clamps the shard count so every shard can hold an
        // entry: capacity 4 with 16 requested shards becomes 4 shards of 1.
        let cache = ShardedPlanCache::new(4, 16);
        assert_eq!(cache.num_shards(), 4);
        assert_eq!(cache.capacity(), 4);
        // Zero capacity keeps a single (empty) shard.
        let empty = ShardedPlanCache::new(0, 16);
        assert_eq!(empty.num_shards(), 1);
        assert_eq!(empty.capacity(), 0);
    }

    /// A fingerprinted two-table structure parameterized by cardinality
    /// (distinct cardinalities give distinct fingerprints).
    pub(crate) fn fingerprinted(card: f64) -> crate::fingerprint::FingerprintedQuery {
        let mut c = crate::catalog::Catalog::new();
        let a = c.add_table("a", card);
        let b = c.add_table("b", card * 10.0);
        let mut q = crate::query::Query::new(vec![a, b]);
        q.add_predicate(crate::query::Predicate::binary(a, b, 0.5));
        crate::fingerprint::FingerprintedQuery::compute(
            &c,
            &q,
            &crate::fingerprint::FingerprintOptions::default(),
        )
    }

    pub(crate) fn fingerprint_of(card: f64) -> Fingerprint {
        fingerprinted(card).fingerprint
    }

    pub(crate) fn dummy_plan() -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            canonical_order: vec![0, 1],
            operators: Vec::new(),
            exact: fingerprinted(10.0).exact,
            bound: None,
            proven_optimal: false,
            warm: false,
        })
    }

    #[test]
    fn claim_protocol_leads_waits_and_caches() {
        let cache = ShardedPlanCache::new(8, 2);
        let fp = fingerprint_of(10.0);
        // First claimant leads.
        let InFlightClaim::Lead(guard) = cache.claim(&fp) else {
            panic!("first claim must lead");
        };
        assert_eq!(cache.inflight_len(), 1);
        // Second claimant waits on the leader's slot.
        let InFlightClaim::Wait(slot) = cache.claim(&fp) else {
            panic!("second claim must wait");
        };
        // A different structure is unaffected: it leads its own slot.
        let other = fingerprint_of(100000.0);
        let InFlightClaim::Lead(other_guard) = cache.claim(&other) else {
            panic!("distinct structure must lead its own slot");
        };
        assert_eq!(cache.inflight_len(), 2);
        // Publishing retires the slot, caches the record, wakes waiters.
        guard.publish(dummy_plan());
        assert!(slot.wait().is_some());
        assert_eq!(cache.inflight_len(), 1);
        assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
        drop(other_guard);
        assert_eq!(cache.inflight_len(), 0);
    }

    #[test]
    fn abandoned_leader_wakes_followers_empty_handed() {
        let cache = ShardedPlanCache::new(8, 1);
        let fp = fingerprint_of(10.0);
        let InFlightClaim::Lead(guard) = cache.claim(&fp) else {
            panic!("first claim must lead");
        };
        let InFlightClaim::Wait(slot) = cache.claim(&fp) else {
            panic!("second claim must wait");
        };
        drop(guard); // failure path (also the panic path)
        assert!(slot.wait().is_none());
        assert_eq!(cache.inflight_len(), 0);
        // The structure is unclaimed again: the next claimant leads.
        assert!(matches!(cache.claim(&fp), InFlightClaim::Lead(_)));
    }

    #[test]
    fn blocked_follower_is_woken_across_threads() {
        let cache = Arc::new(ShardedPlanCache::new(8, 4));
        let fp = fingerprint_of(42.0);
        let InFlightClaim::Lead(guard) = cache.claim(&fp) else {
            panic!("first claim must lead");
        };
        let follower = {
            let cache = Arc::clone(&cache);
            let fp = fp.clone();
            std::thread::spawn(move || match cache.claim(&fp) {
                InFlightClaim::Wait(slot) => slot.wait().is_some(),
                InFlightClaim::Cached(_) => true, // leader already published
                InFlightClaim::Lead(_) => panic!("leader is still in flight"),
            })
        };
        // Give the follower a moment to block (correctness does not depend
        // on it — publishing after the wait started is the interesting
        // interleaving, publishing before it is handled by `Cached`).
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.publish(dummy_plan());
        assert!(follower.join().unwrap(), "follower must get the record");
        assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
    }

    #[test]
    fn set_capacity_rounds_up_to_one_entry_per_shard() {
        // The shard count is fixed after construction (the handle may be
        // shared), so shrinking the capacity below it rounds each shard up
        // to one entry instead of silently disabling caching for the
        // fingerprints hashing to a zero-capacity shard.
        let cache = ShardedPlanCache::new(64, 16);
        assert_eq!(cache.num_shards(), 16);
        cache.set_capacity(4);
        assert_eq!(cache.capacity(), 16);
        // Zero still means "store nothing", everywhere.
        cache.set_capacity(0);
        assert_eq!(cache.capacity(), 0);
    }
}

/// Exhaustive interleaving checks of the claim protocol, driving the real
/// [`ShardedPlanCache`] code through every yield-point schedule via the
/// shim explorer (see the module docs and `milpjoin_shim`'s crate docs for
/// the yield-point contract). Debug builds only: release builds compile
/// the scheduler out of the primitives.
#[cfg(all(test, debug_assertions))]
mod interleave_tests {
    use super::tests::{dummy_plan, fingerprint_of};
    use super::*;
    use milpjoin_shim::explore::{Explorer, Trial};
    use std::sync::atomic::{AtomicU32, Ordering};

    /// The engine-loop shape of `session::process_query`: claim until a
    /// record is obtained, solving (and counting the solve) when
    /// leadership lands here, re-entering when a leader abandons.
    fn drive(cache: &ShardedPlanCache, fp: &Fingerprint, solves: &AtomicU32) {
        loop {
            match cache.claim(fp) {
                InFlightClaim::Cached(_) => return,
                InFlightClaim::Lead(guard) => {
                    solves.fetch_add(1, Ordering::SeqCst);
                    guard.publish(dummy_plan());
                    return;
                }
                InFlightClaim::Wait(slot) => {
                    if slot.wait().is_some() {
                        return;
                    }
                    // Leader abandoned: re-enter the claim protocol.
                }
            }
        }
    }

    fn harness() -> (Arc<ShardedPlanCache>, Fingerprint, Arc<AtomicU32>) {
        (
            Arc::new(ShardedPlanCache::new(8, 1)),
            fingerprint_of(10.0),
            Arc::new(AtomicU32::new(0)),
        )
    }

    /// The acceptance-criterion test: every 2-thread schedule of the claim
    /// protocol (leader publish vs. follower wake) ends with exactly one
    /// solve, the record cached, and the in-flight table empty. The
    /// schedule count is printed (run with `--nocapture` to see it).
    #[test]
    fn two_thread_claim_protocol_exhaustive() {
        let report = Explorer::new().run(|| {
            let (cache, fp, solves) = harness();
            let mut trial = Trial::new();
            for _ in 0..2 {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                trial = trial.thread(move || drive(&cache, &fp, &solves));
            }
            trial.check(move || {
                assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
                assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
                assert_eq!(cache.inflight_len(), 0, "no slot left behind");
            })
        });
        report.assert_clean(2);
        println!(
            "claim protocol: exhaustively explored {} two-thread schedules",
            report.schedules
        );
    }

    /// Abandoned-leader re-entry: one thread abandons its first leadership
    /// (the failure path), then re-enters alongside a normal claimant.
    /// Under every schedule the followers are woken empty-handed, re-enter,
    /// and exactly one publish happens.
    #[test]
    fn abandoned_leader_reentry_exhaustive() {
        let report = Explorer::new().run(|| {
            let (cache, fp, solves) = harness();
            let abandoner = {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                move || {
                    if let InFlightClaim::Lead(guard) = cache.claim(&fp) {
                        drop(guard); // abandon: followers wake empty-handed
                    }
                    drive(&cache, &fp, &solves);
                }
            };
            let follower = {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                move || drive(&cache, &fp, &solves)
            };
            Trial::new()
                .thread(abandoner)
                .thread(follower)
                .check(move || {
                    assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
                    assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
                    assert_eq!(cache.inflight_len(), 0);
                })
        });
        report.assert_clean(2);
    }

    /// Panicked-leader path: the leader's solve panics with the guard live,
    /// so the guard's `Drop` runs on the unwind — followers must be woken
    /// empty-handed and the protocol must converge exactly as for a polite
    /// abandon. (`claim` is inside the `catch_unwind` so the unwind crosses
    /// the guard, like a real solver panic in the session loop would.)
    #[test]
    fn panicked_leader_wakes_followers_exhaustive() {
        let report = Explorer::new().run(|| {
            let (cache, fp, solves) = harness();
            let panicker = {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                move || {
                    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        if let InFlightClaim::Lead(_guard) = cache.claim(&fp) {
                            panic!("solver exploded mid-solve");
                        }
                    }));
                    let _ = unwound;
                    drive(&cache, &fp, &solves);
                }
            };
            let follower = {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                move || drive(&cache, &fp, &solves)
            };
            Trial::new()
                .thread(panicker)
                .thread(follower)
                .check(move || {
                    assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
                    assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
                    assert_eq!(cache.inflight_len(), 0);
                })
        });
        report.assert_clean(2);
    }

    /// Three threads — an abandoning first leader plus two normal
    /// claimants — so abandoned-leader wakeups with *multiple* blocked
    /// followers are covered: both re-enter, exactly one publish wins.
    /// (The abandoner claims once and leaves; giving it a full drive loop
    /// too roughly squares the schedule count without adding coverage —
    /// re-entry is exercised by the two followers.)
    #[test]
    fn three_thread_abandon_with_two_followers() {
        let report = Explorer::new().run(|| {
            let (cache, fp, solves) = harness();
            let abandoner = {
                let (cache, fp) = (Arc::clone(&cache), fp.clone());
                move || {
                    if let InFlightClaim::Lead(guard) = cache.claim(&fp) {
                        drop(guard);
                    }
                }
            };
            let mut trial = Trial::new().thread(abandoner);
            for _ in 0..2 {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                trial = trial.thread(move || drive(&cache, &fp, &solves));
            }
            trial.check(move || {
                assert_eq!(solves.load(Ordering::SeqCst), 1, "exactly one solve");
                assert!(matches!(cache.claim(&fp), InFlightClaim::Cached(_)));
                assert_eq!(cache.inflight_len(), 0);
            })
        });
        report.assert_clean(6);
        println!(
            "claim protocol: explored {} three-thread schedules",
            report.schedules
        );
    }

    /// Seeded mutation: publishing retire-first re-opens the
    /// solved-but-uncached gap, and the explorer must catch the resulting
    /// double solve under some schedule. Proves the checker detects the
    /// bug class the insert-before-retire ordering exists to prevent.
    #[test]
    fn seeded_retire_first_gap_is_detected() {
        let report = Explorer::new().fail_fast(false).run(|| {
            let (cache, fp, solves) = harness();
            cache
                .faults
                .publish_retire_first
                .store(true, Ordering::SeqCst);
            let mut trial = Trial::new();
            for _ in 0..2 {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                trial = trial.thread(move || drive(&cache, &fp, &solves));
            }
            trial.check(move || {
                assert_eq!(
                    solves.load(Ordering::SeqCst),
                    1,
                    "a claimant slipped through the solved-but-uncached gap"
                );
            })
        });
        assert!(
            report.check_failures > 0,
            "the retire-first gap must surface as a double solve: {report:?}"
        );
        // The friendly schedules still pass — the gap is schedule-dependent,
        // which is exactly why exhaustive enumeration matters.
        assert!(report.schedules > report.check_failures);
    }

    /// Seeded mutation: publishing without notifying is a lost wakeup; the
    /// schedule where a follower is already parked on the slot must be
    /// reported as a deadlock.
    #[test]
    fn seeded_dropped_notify_is_detected() {
        let report = Explorer::new().fail_fast(false).run(|| {
            let (cache, fp, solves) = harness();
            cache
                .faults
                .drop_publish_notify
                .store(true, Ordering::SeqCst);
            let mut trial = Trial::new();
            for _ in 0..2 {
                let (cache, fp, solves) = (Arc::clone(&cache), fp.clone(), Arc::clone(&solves));
                trial = trial.thread(move || drive(&cache, &fp, &solves));
            }
            trial
        });
        assert!(
            report.deadlocks > 0,
            "a dropped publish notify must surface as a deadlock: {report:?}"
        );
        assert!(report.schedules > report.deadlocks);
    }
}
