//! The shared-pool coordination core of the branch-and-bound search.
//!
//! [`crate::branch_bound`] separates *what a worker computes* (LP re-solves,
//! plunging, heuristics — all numerical, all thread-private) from *how
//! workers coordinate* (the open-node heap, the busy/active accounting,
//! the halt protocol, the shared incumbent, the merged event stream).
//! This module is the coordination half, generic over the node payload
//! `P` and the incumbent payload `S` so the interleaving explorer
//! (`milpjoin_shim::explore`) can drive the **real** protocol code with
//! toy payloads — every lock, wait, notify, and atomic below is exactly
//! what production workers execute.
//!
//! The protocol, in invariants:
//!
//! * **Global dual bound.** The bound reported to the callback is the min
//!   over the heap top, every parked stalled subtree, every busy worker's
//!   in-flight subtree ([`PoolState::active`]), and the incumbent
//!   objective. A worker that claims a node parks its bound in `active`
//!   *under the same lock* ([`Pool::acquire`]), so no in-flight work is
//!   ever invisible to the bound. A worker reporting on its own node
//!   ([`Pool::report_bound`], [`Pool::offer_incumbent`]) passes what it
//!   now knows of it in place of its slot: the node's fresh LP bound while
//!   the node is open, nothing once it is resolved.
//! * **Halt, first writer wins.** The first budget that fires sets
//!   [`PoolState::halt`] (`get_or_insert`); later halts keep the first
//!   reason. A worker that halts mid-subtree **re-opens** its node
//!   ([`Pool::halt_with`]) so the final bound stays sound; a worker that
//!   merely observes a halt parks its node back ([`Pool::park_open`]).
//! * **Termination.** The search ends when the heap holds nothing worth
//!   expanding *and* no worker is mid-subtree (`busy == 0`) — a busy
//!   worker may still push children below the current heap top, so idle
//!   workers [`Condvar::wait`] rather than exit, and every state change
//!   that could unblock them (push, new incumbent, subtree close, finish)
//!   notifies.
//! * **Lock-free pruning, lock-validated decisions.** The incumbent
//!   objective and the finished flag are mirrored into atomics for cheap
//!   mid-plunge reads; any *decision* taken from such a read (halting,
//!   parking) is re-validated under the pool lock, so a stale read costs
//!   at most one extra LP, never soundness.
//!
//! The `interleave_tests` module model-checks the halt protocol
//! exhaustively for 2 workers (first-writer-wins, in-flight re-open,
//! termination, no lost wakeups), and its seeded mutations (skip the
//! re-open, drop the termination notifies) prove the explorer detects
//! the unsoundness and the deadlock they introduce.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::time::{Duration, Instant};

use milpjoin_shim::sync::{Condvar, Mutex};
use milpjoin_shim::{time as shim_time, yield_point};

use crate::status::StopReason;

/// An open node: a payload ordered by its dual bound (min-bound pops
/// first; FIFO among equal bounds via `seq`).
pub(crate) struct Open<P> {
    pub(crate) bound: f64,
    pub(crate) seq: u64,
    pub(crate) payload: P,
}

impl<P> PartialEq for Open<P> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl<P> Eq for Open<P> {}
impl<P> PartialOrd for Open<P> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<P> Ord for Open<P> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert so the smallest bound pops first.
        other
            .bound
            .total_cmp(&self.bound)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Search budgets the pool enforces itself: every decision input lives
/// inside the pool, so [`Pool::acquire`] needs no external policy.
pub(crate) struct PoolLimits {
    pub(crate) node_limit: Option<u64>,
    pub(crate) relative_gap: f64,
    pub(crate) deadline: Option<Instant>,
}

/// Events emitted under the pool lock — one serialized stream across all
/// workers. Objectives and bounds are in the pool's (internal) objective
/// space; the caller's wrapper translates.
pub(crate) enum PoolEvent<'a, S> {
    /// The global dual bound improved.
    Bound { bound: f64, nodes: u64 },
    /// A new incumbent was accepted (its objective is monotone across the
    /// stream; `bound` is the global bound capped at the objective).
    Incumbent {
        objective: f64,
        bound: f64,
        nodes: u64,
        solution: &'a S,
    },
}

/// Mutable coordination state shared by all workers, guarded by one mutex.
struct PoolState<P, S, F> {
    heap: BinaryHeap<Open<P>>,
    seq: u64,
    /// Workers currently expanding a subtree.
    busy: usize,
    /// Per-worker bound of the claimed in-flight subtree (`None` when
    /// idle) — part of the global dual bound.
    active: Vec<Option<f64>>,
    /// Bounds of numerically stalled nodes, parked (never re-processed)
    /// so the global bound stays valid.
    stalled_bounds: Vec<f64>,
    incumbent: Option<(S, f64)>,
    last_bound_reported: f64,
    /// First budget that fired (first writer wins).
    halt: Option<StopReason>,
    /// Search over: set with `halt`, on natural exhaustion, or on the gap
    /// target.
    done: bool,
    root_unbounded: bool,
    /// Merged callback: invoked only under this lock, so events from all
    /// workers form one ordered stream.
    callback: F,
}

impl<P, S, F> PoolState<P, S, F> {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }
}

/// Seedable protocol mutations for the interleaving-explorer self-tests
/// (`interleave_tests`): each flag re-introduces one bug class the halt
/// protocol is designed out of. Debug builds only.
#[cfg(debug_assertions)]
#[derive(Default)]
pub(crate) struct PoolFaults {
    /// [`Pool::halt_with`] drops the in-flight node instead of re-opening
    /// it — the final bound silently forgets claimed work (unsound).
    pub(crate) skip_reopen_on_halt: AtomicBool,
    /// The termination wakeups — subtree close ([`Pool::release`]) and
    /// search end ([`Pool::finish`]) — stop notifying. Either alone is
    /// masked by the other's redundant notify; dropping the pair is the
    /// minimal lost wakeup, observed by the explorer as a deadlock.
    pub(crate) drop_termination_notify: AtomicBool,
}

/// Final coordination state, extracted once the workers have joined.
pub(crate) struct PoolOutcome<S> {
    pub(crate) incumbent: Option<(S, f64)>,
    pub(crate) halt: Option<StopReason>,
    /// Global dual bound over everything still open (capped at the
    /// incumbent objective).
    pub(crate) bound: f64,
    pub(crate) root_unbounded: bool,
    /// Some parked stalled subtree is not prunable against the incumbent
    /// — optimality cannot be claimed.
    pub(crate) stalled_unresolved: bool,
    pub(crate) gap_reached: bool,
    pub(crate) heap_len: usize,
    pub(crate) nodes: u64,
}

/// Whether `obj` beats the incumbent objective `best` (min space) by more
/// than rounding noise.
fn improves(best: Option<f64>, obj: f64) -> bool {
    best.is_none_or(|best| obj < best - 1e-12 * (1.0 + best.abs()))
}

/// The coordination core: open-node pool, shared incumbent, halt
/// protocol, merged event stream (see the module docs).
pub(crate) struct Pool<P, S, F> {
    limits: PoolLimits,
    /// Global node meter across all workers.
    nodes: AtomicU64,
    /// f64 bits of the incumbent objective (`+inf` when none): lock-free
    /// pruning mid-plunge. Written only under the pool lock.
    incumbent_bits: AtomicU64,
    /// Mirror of `PoolState::done` for cheap mid-plunge checks.
    finished: AtomicBool,
    state: Mutex<PoolState<P, S, F>>,
    work: Condvar,
    #[cfg(debug_assertions)]
    pub(crate) faults: PoolFaults,
}

impl<P, S, F: FnMut(PoolEvent<'_, S>)> Pool<P, S, F> {
    pub(crate) fn new(limits: PoolLimits, workers: usize, callback: F) -> Self {
        Pool {
            limits,
            nodes: AtomicU64::new(0),
            incumbent_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            finished: AtomicBool::new(false),
            state: Mutex::new(PoolState {
                heap: BinaryHeap::new(),
                seq: 0,
                busy: 0,
                active: vec![None; workers],
                stalled_bounds: Vec::new(),
                incumbent: None,
                last_bound_reported: f64::NEG_INFINITY,
                halt: None,
                done: false,
                root_unbounded: false,
                callback,
            }),
            work: Condvar::new(),
            #[cfg(debug_assertions)]
            faults: PoolFaults::default(),
        }
    }

    pub(crate) fn deadline(&self) -> Option<Instant> {
        self.limits.deadline
    }

    pub(crate) fn out_of_time(&self) -> bool {
        self.limits.deadline.is_some_and(|d| shim_time::now() >= d)
    }

    /// Nodes expanded so far (all workers).
    pub(crate) fn nodes(&self) -> u64 {
        self.nodes.load(AtomicOrdering::Relaxed)
    }

    /// Meters one expanded node. An explicit scheduling point: the meter
    /// is cross-thread state read by budget decisions.
    pub(crate) fn count_node(&self) {
        yield_point();
        self.nodes.fetch_add(1, AtomicOrdering::Relaxed);
    }

    pub(crate) fn node_limit_reached(&self) -> bool {
        self.limits
            .node_limit
            .is_some_and(|n| self.nodes.load(AtomicOrdering::Relaxed) >= n)
    }

    /// Lock-free read of the finished mirror. An explicit scheduling
    /// point: another worker may finish (or halt) right before the read.
    pub(crate) fn is_finished(&self) -> bool {
        yield_point();
        self.finished.load(AtomicOrdering::Acquire)
    }

    fn incumbent_obj_fast(&self) -> Option<f64> {
        let v = f64::from_bits(self.incumbent_bits.load(AtomicOrdering::Acquire));
        (v != f64::INFINITY).then_some(v)
    }

    pub(crate) fn prunable_against(&self, inc: Option<f64>, bound: f64) -> bool {
        match inc {
            Some(inc) => {
                let slack = self.limits.relative_gap * inc.abs().max(1e-10);
                bound >= inc - slack - 1e-12
            }
            None => false,
        }
    }

    /// Lock-free prune check against the atomic incumbent mirror.
    pub(crate) fn prunable_fast(&self, bound: f64) -> bool {
        self.prunable_against(self.incumbent_obj_fast(), bound)
    }

    /// Lock-free check that `obj` would improve on the incumbent mirror:
    /// lets a caller skip verifying a candidate that cannot be accepted.
    /// [`Self::offer_incumbent`] re-checks under the lock.
    pub(crate) fn improves_fast(&self, obj: f64) -> bool {
        improves(self.incumbent_obj_fast(), obj)
    }

    /// Global dual bound (min space): heap top, stalled subtrees, every
    /// busy worker's in-flight subtree, `current`, capped at the incumbent.
    /// `reporter` names a worker reporting on its own node, whose `active`
    /// slot `current` replaces (see the module docs).
    ///
    /// Capping at the incumbent keeps the value a valid lower bound: the
    /// optimum is min(incumbent, best over open subtrees) >= min(incumbent,
    /// b), while an uncapped b can exceed the optimum when the only open
    /// nodes are about to be pruned. It also covers the exhausted-tree case
    /// (b = +inf proves the incumbent), while a -inf open bound (the root
    /// right after a warm start) still dominates and is never mistaken for
    /// proof.
    fn global_bound(
        &self,
        st: &PoolState<P, S, F>,
        reporter: Option<usize>,
        current: Option<f64>,
    ) -> f64 {
        let mut b = f64::INFINITY;
        if let Some(top) = st.heap.peek() {
            b = b.min(top.bound);
        }
        for &s in &st.stalled_bounds {
            b = b.min(s);
        }
        let others = st
            .active
            .iter()
            .enumerate()
            .filter(|&(w, _)| reporter != Some(w));
        for a in others.filter_map(|(_, a)| *a) {
            b = b.min(a);
        }
        if let Some(c) = current {
            b = b.min(c);
        }
        if let Some((_, obj)) = &st.incumbent {
            b = b.min(*obj);
        }
        b
    }

    fn maybe_report_bound(
        &self,
        st: &mut PoolState<P, S, F>,
        reporter: Option<usize>,
        current: Option<f64>,
    ) {
        let b = self.global_bound(st, reporter, current);
        if b.is_finite() && b > st.last_bound_reported + 1e-9 * (1.0 + b.abs()) {
            st.last_bound_reported = b;
            let nodes = self.nodes();
            (st.callback)(PoolEvent::Bound { bound: b, nodes });
        }
    }

    fn gap_reached(&self, st: &PoolState<P, S, F>) -> bool {
        let Some((_, inc)) = &st.incumbent else {
            return false;
        };
        let bound = self.global_bound(st, None, None);
        if !bound.is_finite() {
            return false;
        }
        (inc - bound).max(0.0) / inc.abs().max(1e-10) <= self.limits.relative_gap
    }

    /// Offers worker `w`'s candidate incumbent, already verified by the
    /// caller; accepts it under the lock if it still improves on the shared
    /// one. `current` replaces `w`'s in-flight bound in the event's global
    /// bound (see the module docs). The acceptance, atomic-mirror update,
    /// and event all happen under the lock, so the merged incumbent stream
    /// is monotone.
    pub(crate) fn offer_incumbent(&self, w: usize, solution: S, obj: f64, current: Option<f64>) {
        let mut st = self.state.lock();
        if !improves(st.incumbent.as_ref().map(|(_, best)| *best), obj) {
            return;
        }
        st.incumbent = Some((solution, obj));
        self.incumbent_bits
            .store(obj.to_bits(), AtomicOrdering::Release);
        let bound = self.global_bound(&st, Some(w), current);
        let nodes = self.nodes();
        let st_ref = &mut *st;
        if let Some((solution, _)) = &st_ref.incumbent {
            // audit-allow(lock-discipline): the incumbent event fires under
            // the pool lock by design — the lock is what serializes the
            // merged, monotone event stream (see the method docs).
            (st_ref.callback)(PoolEvent::Incumbent {
                objective: obj,
                bound: bound.min(obj),
                nodes,
                solution,
            });
        }
        // A better incumbent changes prunability: waiting workers must
        // re-evaluate their termination conditions.
        self.work.notify_all();
    }

    /// Marks the search done under an already-held lock.
    fn finish(&self, st: &mut PoolState<P, S, F>, halt: Option<StopReason>) {
        if let Some(reason) = halt {
            st.halt.get_or_insert(reason);
        }
        st.done = true;
        self.finished.store(true, AtomicOrdering::Release);
        if self.termination_notifies() {
            self.work.notify_all();
        }
    }

    /// Whether the termination-side wakeups fire — `true` unless the
    /// `drop_termination_notify` seeded mutation is armed (debug only).
    fn termination_notifies(&self) -> bool {
        #[cfg(debug_assertions)]
        {
            !self
                .faults
                .drop_termination_notify
                .load(AtomicOrdering::SeqCst)
        }
        #[cfg(not(debug_assertions))]
        {
            true
        }
    }

    /// Pushes the root (or any pre-search node) before workers launch.
    pub(crate) fn push_root(&self, payload: P, bound: f64) {
        let mut st = self.state.lock();
        let seq = st.next_seq();
        st.heap.push(Open {
            bound,
            seq,
            payload,
        });
    }

    /// Re-opens a node (bound stays part of the global bound) and halts:
    /// the path of the worker whose own budget check fired mid-subtree.
    pub(crate) fn halt_with(&self, payload: P, bound: f64, reason: StopReason) {
        let mut st = self.state.lock();
        #[cfg(debug_assertions)]
        let reopen = !self.faults.skip_reopen_on_halt.load(AtomicOrdering::SeqCst);
        #[cfg(not(debug_assertions))]
        let reopen = true;
        if reopen {
            let seq = st.next_seq();
            st.heap.push(Open {
                bound,
                seq,
                payload,
            });
        }
        self.finish(&mut st, Some(reason));
    }

    /// Re-opens a node without halting (used when *another* worker ended
    /// the search while this one was mid-plunge).
    pub(crate) fn park_open(&self, payload: P, bound: f64) {
        let mut st = self.state.lock();
        let seq = st.next_seq();
        st.heap.push(Open {
            bound,
            seq,
            payload,
        });
    }

    /// Parks the bound of a numerically stalled node: never re-processed,
    /// but forever part of the global bound.
    pub(crate) fn park_stalled(&self, bound: f64) {
        self.state.lock().stalled_bounds.push(bound);
    }

    /// Root LP unbounded: record and end the search.
    pub(crate) fn finish_root_unbounded(&self) {
        let mut st = self.state.lock();
        st.root_unbounded = true;
        self.finish(&mut st, None);
    }

    /// Reports the global bound if it improved (callback under the lock).
    /// `current` replaces worker `w`'s in-flight bound (see the module
    /// docs).
    pub(crate) fn report_bound(&self, w: usize, current: Option<f64>) {
        let mut st = self.state.lock();
        self.maybe_report_bound(&mut st, Some(w), current);
    }

    /// Publishes a claimed node's children in one critical section:
    /// pushes them, tightens the worker's in-flight bound to
    /// `active_bound`, reports the (possibly improved) global bound, and
    /// wakes idle workers.
    pub(crate) fn publish_children(
        &self,
        w: usize,
        children: impl IntoIterator<Item = (P, f64)>,
        active_bound: f64,
        current: Option<f64>,
    ) {
        let mut st = self.state.lock();
        for (payload, bound) in children {
            let seq = st.next_seq();
            st.heap.push(Open {
                bound,
                seq,
                payload,
            });
        }
        st.active[w] = Some(active_bound);
        self.maybe_report_bound(&mut st, None, current);
        // New open work for idle workers.
        self.work.notify_all();
    }

    /// Closes out a claimed subtree: the worker no longer holds (or has
    /// re-opened) it, so its `active` slot empties and waiting workers
    /// re-check termination.
    pub(crate) fn release(&self, w: usize) {
        let mut st = self.state.lock();
        st.busy -= 1;
        st.active[w] = None;
        self.maybe_report_bound(&mut st, None, None);
        if self.termination_notifies() {
            self.work.notify_all();
        }
    }

    /// Blocks until an expandable node is available (claiming it) or the
    /// search is over (`None`). Termination requires the heap to hold
    /// nothing worth expanding *and* no worker to be mid-subtree: a busy
    /// worker may still push children below the current heap top.
    pub(crate) fn acquire(&self, w: usize) -> Option<Open<P>> {
        let mut st = self.state.lock();
        loop {
            if st.done {
                return None;
            }
            if self.out_of_time() {
                self.finish(&mut st, Some(StopReason::TimeLimit));
                return None;
            }
            match st.heap.peek().map(|n| n.bound) {
                Some(top) => {
                    let inc = st.incumbent.as_ref().map(|(_, o)| *o);
                    if self.prunable_against(inc, top) {
                        // Bound-ordered heap: every open node is prunable.
                        if st.busy == 0 {
                            self.finish(&mut st, None);
                            return None;
                        }
                    } else if self.node_limit_reached() {
                        self.finish(&mut st, Some(StopReason::NodeLimit));
                        return None;
                    } else if self.gap_reached(&st) {
                        self.finish(&mut st, None);
                        return None;
                    } else {
                        // audit-allow(no-panic): peek returned Some under
                        // this same critical section.
                        let node = st.heap.pop().expect("peeked above");
                        st.busy += 1;
                        st.active[w] = Some(node.bound);
                        return Some(node);
                    }
                }
                None => {
                    if st.busy == 0 {
                        // Tree exhausted.
                        self.finish(&mut st, None);
                        return None;
                    }
                }
            }
            // Nothing expandable right now: wait for a push, a new
            // incumbent, a subtree closing, or the end of the search.
            st = match self.limits.deadline {
                Some(d) => {
                    let timeout = d
                        .saturating_duration_since(shim_time::now())
                        .min(Duration::from_millis(20))
                        .max(Duration::from_millis(1));
                    self.work.wait_timeout(st, timeout).0
                }
                None => self.work.wait(st),
            };
        }
    }

    /// Consumes the pool after the workers have joined, extracting the
    /// final coordination state.
    pub(crate) fn finalize(self) -> PoolOutcome<S> {
        let nodes = self.nodes();
        let st = self.state.lock();
        let incumbent_obj = st.incumbent.as_ref().map(|(_, o)| *o);
        let bound = self.global_bound(&st, None, None);
        let gap_reached = self.gap_reached(&st);
        let stalled_unresolved = st
            .stalled_bounds
            .iter()
            .any(|&b| !self.prunable_against(incumbent_obj, b));
        let heap_len = st.heap.len();
        let halt = st.halt;
        let root_unbounded = st.root_unbounded;
        drop(st);
        let incumbent = self.state.into_inner().incumbent;
        PoolOutcome {
            incumbent,
            halt,
            bound,
            root_unbounded,
            stalled_unresolved,
            gap_reached,
            heap_len,
            nodes,
        }
    }
}

/// Exhaustive interleaving checks of the halt protocol, driving the real
/// [`Pool`] code with toy payloads through every yield-point schedule
/// (see `milpjoin_shim`'s crate docs for the yield-point contract).
#[cfg(all(test, debug_assertions))]
mod interleave_tests {
    use super::*;
    use milpjoin_shim::explore::{Explorer, Trial};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// A pool over toy payloads: `P = f64` (each node is just its bound),
    /// `S = ()`, no budgets unless the test sets them.
    type ToyPool = Pool<f64, (), fn(PoolEvent<'_, ()>)>;

    fn toy_pool(node_limit: Option<u64>, workers: usize) -> Arc<ToyPool> {
        fn sink(_ev: PoolEvent<'_, ()>) {}
        Arc::new(Pool::new(
            PoolLimits {
                node_limit,
                relative_gap: 0.0,
                deadline: None,
            },
            workers,
            sink as fn(PoolEvent<'_, ()>),
        ))
    }

    /// The worker loop shape from `crate::branch_bound::worker`/`expand`,
    /// reduced to coordination: acquire, re-check budgets mid-"subtree",
    /// count the node, record it processed, optionally push children.
    fn toy_worker(
        pool: &Pool<f64, (), fn(PoolEvent<'_, ()>)>,
        w: usize,
        processed: &std::sync::Mutex<Vec<f64>>,
        children_of: fn(f64) -> Vec<f64>,
    ) {
        while let Some(node) = pool.acquire(w) {
            if pool.is_finished() {
                // Another worker ended the search mid-claim: park the
                // node back so the final bound still covers it.
                pool.park_open(node.payload, node.bound);
                pool.release(w);
                continue;
            }
            if pool.node_limit_reached() {
                pool.halt_with(node.payload, node.bound, StopReason::NodeLimit);
                pool.release(w);
                continue;
            }
            pool.count_node();
            processed.lock().unwrap().push(node.bound);
            let children: Vec<(f64, f64)> = children_of(node.bound)
                .into_iter()
                .map(|b| (b, b))
                .collect();
            if !children.is_empty() {
                pool.publish_children(w, children, node.bound, None);
            }
            pool.release(w);
        }
    }

    /// Termination under every schedule: a worker that finds the heap
    /// empty while the other is mid-subtree must wait (the busy worker
    /// pushes children), and the search must still end — no deadlock, no
    /// lost node, in any interleaving.
    #[test]
    fn two_worker_termination_exhaustive() {
        let report = Explorer::new().run(|| {
            let pool = toy_pool(None, 2);
            pool.push_root(10.0, 10.0);
            let processed = Arc::new(std::sync::Mutex::new(Vec::new()));
            fn kids(b: f64) -> Vec<f64> {
                if b == 10.0 {
                    vec![20.0, 30.0]
                } else {
                    Vec::new()
                }
            }
            let mut trial = Trial::new();
            for w in 0..2 {
                let (pool, processed) = (Arc::clone(&pool), Arc::clone(&processed));
                trial = trial.thread(move || toy_worker(&pool, w, &processed, kids));
            }
            let (pool, processed) = (pool, processed);
            trial.check(move || {
                let mut done = processed.lock().unwrap().clone();
                done.sort_by(f64::total_cmp);
                assert_eq!(done, vec![10.0, 20.0, 30.0], "every node processed once");
                let out = Arc::into_inner(pool)
                    .expect("trial threads joined")
                    .finalize();
                assert_eq!(out.halt, None, "natural exhaustion");
                assert_eq!(out.heap_len, 0);
                assert_eq!(out.nodes, 3);
            })
        });
        report.assert_clean(2);
        println!(
            "pool halt protocol: explored {} two-worker termination schedules",
            report.schedules
        );
    }

    /// First-writer-wins halt with in-flight re-open: both workers halt
    /// with distinct reasons while holding distinct nodes. Exactly one
    /// reason survives, and **both** nodes end up back in the heap — the
    /// final bound never forgets claimed work.
    #[test]
    fn halt_is_first_writer_wins_and_reopens_exhaustive() {
        let report = Explorer::new().run(|| {
            let pool = toy_pool(None, 2);
            pool.push_root(10.0, 10.0);
            pool.push_root(20.0, 20.0);
            let reasons = [StopReason::TimeLimit, StopReason::NodeLimit];
            let mut trial = Trial::new();
            for w in 0..2 {
                let pool = Arc::clone(&pool);
                let reason = reasons[w];
                trial = trial.thread(move || {
                    while let Some(node) = pool.acquire(w) {
                        // This worker's budget fires immediately: halt,
                        // re-opening the claimed node.
                        pool.halt_with(node.payload, node.bound, reason);
                        pool.release(w);
                    }
                });
            }
            trial.check(move || {
                let out = Arc::into_inner(pool)
                    .expect("trial threads joined")
                    .finalize();
                let halt = out.halt.expect("some budget fired");
                assert!(
                    matches!(halt, StopReason::TimeLimit | StopReason::NodeLimit),
                    "winner is one of the two budgets: {halt:?}"
                );
                assert_eq!(out.heap_len, 2, "both claimed nodes re-opened");
                assert!(
                    (out.bound - 10.0).abs() < 1e-12,
                    "bound covers the re-opened work: {}",
                    out.bound
                );
            })
        });
        report.assert_clean(2);
    }

    /// The global node meter under contention: with `node_limit = 1` and
    /// three open nodes, every schedule must stop with reason `NodeLimit`,
    /// meter at most `limit + workers` (each in-flight worker may finish
    /// the node it already claimed), and a sound final bound: every node
    /// is either processed or still in the heap.
    #[test]
    fn node_limit_halt_is_sound_exhaustive() {
        let report = Explorer::new().run(|| {
            let pool = toy_pool(Some(1), 2);
            for b in [10.0, 20.0, 30.0] {
                pool.push_root(b, b);
            }
            let processed = Arc::new(std::sync::Mutex::new(Vec::new()));
            fn no_kids(_b: f64) -> Vec<f64> {
                Vec::new()
            }
            let mut trial = Trial::new();
            for w in 0..2 {
                let (pool, processed) = (Arc::clone(&pool), Arc::clone(&processed));
                trial = trial.thread(move || toy_worker(&pool, w, &processed, no_kids));
            }
            trial.check(move || {
                let done = processed.lock().unwrap().clone();
                let out = Arc::into_inner(pool)
                    .expect("trial threads joined")
                    .finalize();
                assert_eq!(out.halt, Some(StopReason::NodeLimit));
                assert!(out.nodes <= 1 + 2, "meter is global: {}", out.nodes);
                assert_eq!(out.nodes as usize, done.len());
                // Soundness: processed ∪ heap = all nodes, disjoint.
                assert_eq!(done.len() + out.heap_len, 3, "no node lost");
                let expected_bound = [10.0, 20.0, 30.0]
                    .into_iter()
                    .filter(|b| !done.contains(b))
                    .fold(f64::INFINITY, f64::min);
                assert!(
                    (out.bound - expected_bound).abs() < 1e-12,
                    "bound {} must equal min unprocessed {expected_bound}",
                    out.bound
                );
            })
        });
        report.assert_clean(2);
        println!(
            "pool halt protocol: explored {} node-limit schedules",
            report.schedules
        );
    }

    /// Seeded mutation: a halting worker that *drops* its in-flight node
    /// instead of re-opening it leaves the final bound unsound — under
    /// some schedule a node is neither processed nor in the heap. Proves
    /// the explorer detects the bug class `halt_with`'s re-open prevents.
    #[test]
    fn seeded_skip_reopen_is_detected() {
        let report = Explorer::new().fail_fast(false).run(|| {
            let pool = toy_pool(Some(1), 2);
            for b in [10.0, 20.0, 30.0] {
                pool.push_root(b, b);
            }
            pool.faults
                .skip_reopen_on_halt
                .store(true, Ordering::SeqCst);
            let processed = Arc::new(std::sync::Mutex::new(Vec::new()));
            fn no_kids(_b: f64) -> Vec<f64> {
                Vec::new()
            }
            let mut trial = Trial::new();
            for w in 0..2 {
                let (pool, processed) = (Arc::clone(&pool), Arc::clone(&processed));
                trial = trial.thread(move || toy_worker(&pool, w, &processed, no_kids));
            }
            trial.check(move || {
                let done = processed.lock().unwrap().clone();
                let out = Arc::into_inner(pool)
                    .expect("trial threads joined")
                    .finalize();
                assert_eq!(done.len() + out.heap_len, 3, "no node lost");
            })
        });
        assert!(
            report.check_failures > 0,
            "dropping the re-open must lose a node under some schedule: {report:?}"
        );
        assert!(report.schedules > report.check_failures);
    }

    /// Seeded mutation: dropping the termination wakeups is a lost wakeup
    /// — the schedule where one worker is parked in `acquire` when the
    /// other closes the last subtree and finishes must deadlock.
    #[test]
    fn seeded_dropped_termination_notify_is_detected() {
        let report = Explorer::new().fail_fast(false).run(|| {
            let pool = toy_pool(None, 2);
            pool.push_root(10.0, 10.0);
            pool.faults
                .drop_termination_notify
                .store(true, Ordering::SeqCst);
            let processed = Arc::new(std::sync::Mutex::new(Vec::new()));
            fn no_kids(_b: f64) -> Vec<f64> {
                Vec::new()
            }
            let mut trial = Trial::new();
            for w in 0..2 {
                let (pool, processed) = (Arc::clone(&pool), Arc::clone(&processed));
                trial = trial.thread(move || toy_worker(&pool, w, &processed, no_kids));
            }
            trial
        });
        assert!(
            report.deadlocks > 0,
            "a dropped finish notify must surface as a deadlock: {report:?}"
        );
        assert!(report.schedules > report.deadlocks);
    }
}
