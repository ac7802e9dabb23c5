//! Shim synchronization primitives: `std::sync` semantics, explorer
//! instrumentation.
//!
//! [`Mutex`] and [`Condvar`] are drop-in replacements for their `std`
//! counterparts with two deliberate differences:
//!
//! 1. **Poison recovery.** [`Mutex::lock`] never panics on poison: a
//!    poisoned protocol lock means a panic unwound while a guard was
//!    held, and every protocol built on these primitives keeps its
//!    transitions single-step-atomic (each critical section either fully
//!    applies or fully doesn't), so the state behind a poisoned lock is
//!    consistent — recover with [`std::sync::PoisonError::into_inner`]
//!    and continue. This is also what keeps explorer teardown (which
//!    unwinds trial threads mid-protocol) panic-free.
//! 2. **Yield points.** Under an active interleaving explorer
//!    ([`crate::explore`], `debug_assertions` builds only), every
//!    [`Mutex::lock`] and [`Condvar::wait`] is a scheduling point, and
//!    contention/waiting is modeled by the deterministic scheduler
//!    instead of the OS. Release builds compile the instrumentation out
//!    entirely: the branch below folds to the `std` call.
//!
//! The yield-point contract for code built on this module is documented
//! at the crate root.

use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

#[cfg(debug_assertions)]
use crate::sched;

fn lock_recover<T>(m: &StdMutex<T>) -> StdMutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A mutual-exclusion lock with `std` semantics, poison recovery, and
/// explorer yield points (see the module docs).
pub struct Mutex<T> {
    inner: StdMutex<T>,
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: StdMutex::new(value),
        }
    }

    /// The model identity of this mutex: its address (stable for the
    /// lifetime of the value, which spans any explorer trial using it).
    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        std::ptr::from_ref(self) as *const u8 as usize
    }

    /// Acquires the lock, blocking until it is free. Never panics on
    /// poison (see the module docs). A yield point under the explorer.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        if let Some(ctx) = sched::current() {
            ctx.sched.acquire_mutex(ctx.tid, self.id());
            return MutexGuard {
                owner: self,
                guard: Some(lock_recover(&self.inner)),
                scheduled: true,
            };
        }
        MutexGuard {
            owner: self,
            guard: Some(lock_recover(&self.inner)),
            #[cfg(debug_assertions)]
            scheduled: false,
        }
    }

    /// Consumes the mutex, returning the inner value (poison recovered).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex`]; releases (and, under the explorer, reports
/// the release to the scheduler) on drop.
pub struct MutexGuard<'a, T> {
    owner: &'a Mutex<T>,
    /// `Some` for the guard's whole client-visible lifetime; taken only
    /// internally by [`Condvar::wait`] (which forgets the guard) and by
    /// `Drop`.
    guard: Option<StdMutexGuard<'a, T>>,
    /// Whether the explorer scheduled this acquisition, so its release and
    /// condvar waits must be reported to the model. Only explorer
    /// (`debug_assertions`) builds have an explorer to report to.
    #[cfg(debug_assertions)]
    scheduled: bool,
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // audit-allow(no-panic): invariant — `guard` is `Some` whenever a
        // client can reach the guard (only wait/Drop take it, both consume).
        self.guard.as_ref().expect("guard taken only on wait/drop")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // audit-allow(no-panic): same invariant as `Deref`.
        self.guard.as_mut().expect("guard taken only on wait/drop")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the data lock first, then tell the model: a thread the
        // scheduler wakes can then always take the std mutex uncontended.
        let released = self.guard.take().is_some();
        #[cfg(debug_assertions)]
        if released && self.scheduled {
            if let Some(ctx) = sched::current() {
                ctx.sched.release_mutex(ctx.tid, self.owner.id());
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = released;
        let _ = self.owner;
    }
}

/// A condition variable with `std` semantics and explorer modeling (see
/// the module docs). Waits are yield points; notifies are transitions.
pub struct Condvar {
    inner: StdCondvar,
}

impl Default for Condvar {
    fn default() -> Self {
        Condvar::new()
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    #[cfg(debug_assertions)]
    fn id(&self) -> usize {
        std::ptr::from_ref(self) as *const u8 as usize
    }

    /// Releases the guard's lock, waits for a notification, re-acquires,
    /// and returns a fresh guard. A yield point under the explorer (no
    /// spurious wakeups in the model; callers loop on their predicate
    /// regardless, per the usual condvar discipline).
    pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        #[cfg(debug_assertions)]
        if guard.scheduled {
            if let Some(ctx) = sched::current() {
                let owner = guard.owner;
                // Drop the data guard, then atomically (in the model)
                // release + park on the condvar; `guard.scheduled` is
                // cleared so the Drop impl does not double-release.
                guard.scheduled = false;
                drop(guard);
                ctx.sched.cv_wait(ctx.tid, self.id(), owner.id());
                ctx.sched.acquire_mutex(ctx.tid, owner.id());
                return MutexGuard {
                    owner,
                    guard: Some(lock_recover(&owner.inner)),
                    scheduled: true,
                };
            }
        }
        let owner = guard.owner;
        // audit-allow(no-panic): invariant — the guard still holds its std
        // guard here (nothing took it since construction).
        let std_guard = guard.guard.take().expect("live guard");
        std::mem::forget(guard);
        let std_guard = self
            .inner
            .wait(std_guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        MutexGuard {
            owner,
            guard: Some(std_guard),
            #[cfg(debug_assertions)]
            scheduled: false,
        }
    }

    /// [`Self::wait`] with a timeout; returns the guard and whether the
    /// wait timed out. Under the explorer the timeout **never fires**
    /// (time is virtual; see [`crate::time`]) — explore deadline-free
    /// configurations.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        #[cfg(debug_assertions)]
        if guard.scheduled && sched::current().is_some() {
            return (self.wait(guard), false);
        }
        let owner = guard.owner;
        let mut guard = guard;
        // audit-allow(no-panic): invariant — the guard still holds its std
        // guard here (nothing took it since construction).
        let std_guard = guard.guard.take().expect("live guard");
        std::mem::forget(guard);
        let (std_guard, result) = self
            .inner
            .wait_timeout(std_guard, timeout)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (
            MutexGuard {
                owner,
                guard: Some(std_guard),
                #[cfg(debug_assertions)]
                scheduled: false,
            },
            result.timed_out(),
        )
    }

    /// Wakes every waiter. A model transition (not a yield point) under
    /// the explorer.
    pub fn notify_all(&self) {
        #[cfg(debug_assertions)]
        if let Some(ctx) = sched::current() {
            ctx.sched.notify_all(self.id());
            return;
        }
        self.inner.notify_all();
    }

    /// Wakes one waiter (the lowest-id one, deterministically, under the
    /// explorer).
    pub fn notify_one(&self) {
        #[cfg(debug_assertions)]
        if let Some(ctx) = sched::current() {
            ctx.sched.notify_one(self.id());
            return;
        }
        self.inner.notify_one();
    }
}

// These exist to be shared across threads exactly like their std
// counterparts.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Mutex<u32>>();
    assert_send_sync::<Condvar>();
};
