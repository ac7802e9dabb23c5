//! Bounded-exhaustive interleaving exploration over the shim primitives.
//!
//! [`Explorer::run`] executes a *trial factory* repeatedly: each call
//! builds fresh shared state and returns the trial's thread bodies (plus
//! an optional post-trial invariant check). The explorer runs every trial
//! under the crate-private deterministic scheduler (`sched`), then
//! backtracks over the recorded branching decisions depth-first until
//! every yield-point interleaving has been enumerated (or a configured
//! cap is hit — the report says which).
//!
//! What a trial can observe:
//!
//! * **Deadlock** — a transition leaves no thread runnable while some are
//!   unfinished. This is also how a *lost wakeup* (dropped `notify_all`)
//!   presents under exhaustive enumeration.
//! * **Panic** — an assertion inside a thread body failed under some
//!   schedule (the report carries the first message).
//! * **Check failure** — the post-trial invariant closure panicked
//!   (checks run only for trials that completed without aborting).
//!
//! By default the explorer is *fail-fast*: the first observation panics
//! with the failing schedule, which is what correctness tests want. The
//! seeded-mutation self-tests flip [`Explorer::fail_fast`] off and assert
//! the observation counters instead — proving the checker still detects
//! its target bug classes.
//!
//! Only available in `debug_assertions` builds (release builds compile
//! the scheduler out of the primitives, so there is nothing to drive).

use std::sync::Arc;

use crate::sched::{Scheduler, ThreadCtx, TrialAbort};

/// Name prefix of threads whose panics the quiet hook suppresses: panics
/// inside trials are *observations* (re-reported through [`Report`]), not
/// programmer-facing events, and exhaustive enumeration would otherwise
/// print thousands of expected backtraces.
const TRIAL_THREAD_PREFIX: &str = "milpjoin-trial";

/// Installs (once, process-wide) a panic hook that stays silent for trial
/// threads and defers to the previous hook for everything else.
fn ensure_quiet_panic_hook() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let in_trial = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with(TRIAL_THREAD_PREFIX));
            if !in_trial {
                previous(info);
            }
        }));
    });
}

/// One trial's ingredients: thread bodies plus an optional post-trial
/// invariant check, built fresh by the factory for every schedule.
pub struct Trial {
    threads: Vec<Box<dyn FnOnce() + Send>>,
    check: Option<Box<dyn FnOnce() + Send>>,
}

impl Default for Trial {
    fn default() -> Self {
        Trial::new()
    }
}

impl Trial {
    pub fn new() -> Self {
        Trial {
            threads: Vec::new(),
            check: None,
        }
    }

    /// Adds one thread body to the trial.
    #[must_use]
    pub fn thread(mut self, body: impl FnOnce() + Send + 'static) -> Self {
        self.threads.push(Box::new(body));
        self
    }

    /// Sets the post-trial invariant check, run (outside the scheduler)
    /// after every non-aborted trial; a panic inside it is a check failure.
    #[must_use]
    pub fn check(mut self, check: impl FnOnce() + Send + 'static) -> Self {
        self.check = Some(Box::new(check));
        self
    }
}

/// Aggregate result of an exploration (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Schedules (distinct yield-point interleavings) executed.
    pub schedules: u64,
    /// Whether the space was fully enumerated (no cap fired).
    pub complete: bool,
    pub deadlocks: u64,
    pub first_deadlock: Option<String>,
    pub panics: u64,
    pub first_panic: Option<String>,
    pub check_failures: u64,
    pub first_check_failure: Option<String>,
}

impl Report {
    /// Total observations of any failure class.
    pub fn failures(&self) -> u64 {
        self.deadlocks + self.panics + self.check_failures
    }

    /// Asserts a clean, complete enumeration of at least `min_schedules`
    /// schedules — the standard acceptance shape for protocol tests.
    pub fn assert_clean(&self, min_schedules: u64) {
        assert!(self.failures() == 0, "exploration found failures: {self:?}");
        assert!(self.complete, "exploration hit a cap: {self:?}");
        assert!(
            self.schedules >= min_schedules,
            "suspiciously few schedules ({} < {min_schedules}): the model \
             may not be exploring the protocol at all",
            self.schedules
        );
    }
}

/// Deterministic DFS over yield-point schedules. See the module docs.
pub struct Explorer {
    max_schedules: u64,
    max_choices: usize,
    fail_fast: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer::new()
    }
}

impl Explorer {
    pub fn new() -> Self {
        Explorer {
            max_schedules: 100_000,
            max_choices: 1_000,
            fail_fast: true,
        }
    }

    /// Caps the number of schedules executed (the report's `complete`
    /// flag records whether the cap fired).
    #[must_use]
    pub fn max_schedules(mut self, n: u64) -> Self {
        self.max_schedules = n;
        self
    }

    /// Caps branching decisions per trial (guards against livelocking
    /// schedules; overflow counts as a failure).
    #[must_use]
    pub fn max_choices(mut self, n: usize) -> Self {
        self.max_choices = n;
        self
    }

    /// When `true` (the default), panic on the first observation with the
    /// failing schedule. When `false`, count observations and keep
    /// enumerating — the mode the seeded-mutation self-tests use.
    #[must_use]
    pub fn fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = on;
        self
    }

    /// Enumerates schedules depth-first until exhaustion or a cap.
    pub fn run(&self, mut factory: impl FnMut() -> Trial) -> Report {
        let mut report = Report::default();
        let mut schedule: Vec<usize> = Vec::new();
        loop {
            if report.schedules >= self.max_schedules {
                report.complete = false;
                return report;
            }
            ensure_quiet_panic_hook();
            let trial = factory();
            let n = trial.threads.len();
            assert!(n >= 1, "a trial needs at least one thread");
            let sched = Arc::new(Scheduler::new(n, schedule.clone(), self.max_choices));
            let handles: Vec<_> = trial
                .threads
                .into_iter()
                .enumerate()
                .map(|(tid, body)| {
                    let sched = Arc::clone(&sched);
                    std::thread::Builder::new()
                        .name(format!("{TRIAL_THREAD_PREFIX}-{tid}"))
                        .spawn(move || run_trial_thread(sched, tid, body))
                        // audit-allow(no-panic): thread spawn failure is a
                        // resource-exhaustion abort, not a protocol outcome.
                        .expect("spawn trial thread")
                })
                .collect();
            sched.start(n);
            for h in handles {
                // Thread wrappers catch everything (aborts and real
                // panics both route through the scheduler), so join
                // errors cannot occur; swallow defensively regardless.
                let _ = h.join();
            }
            let outcome = sched.outcome();
            report.schedules += 1;

            let mut failed = false;
            if let Some(d) = outcome.deadlock {
                report.deadlocks += 1;
                let msg = format!("{d} [schedule {schedule:?}]");
                if self.fail_fast {
                    panic!("interleaving explorer: {msg}");
                }
                report.first_deadlock.get_or_insert(msg);
                failed = true;
            }
            if let Some(p) = outcome.panic {
                report.panics += 1;
                let msg = format!("{p} [schedule {schedule:?}]");
                if self.fail_fast {
                    panic!("interleaving explorer: {msg}");
                }
                report.first_panic.get_or_insert(msg);
                failed = true;
            }
            if outcome.depth_overflow {
                report.panics += 1;
                let msg = format!(
                    "trial exceeded {} branching decisions (livelock?) [schedule {schedule:?}]",
                    self.max_choices
                );
                if self.fail_fast {
                    panic!("interleaving explorer: {msg}");
                }
                report.first_panic.get_or_insert(msg);
                failed = true;
            }
            if !failed {
                if let Some(check) = trial.check {
                    if let Err(payload) = run_check(check) {
                        report.check_failures += 1;
                        let msg = format!(
                            "post-trial check failed: {} [schedule {schedule:?}]",
                            panic_message(payload.as_ref())
                        );
                        if self.fail_fast {
                            panic!("interleaving explorer: {msg}");
                        }
                        report.first_check_failure.get_or_insert(msg);
                    }
                }
            }

            // Backtrack: advance the deepest branching decision that still
            // has unexplored options; exhausted when none does.
            let trace = outcome.trace;
            let mut next = None;
            for (i, c) in trace.iter().enumerate().rev() {
                if c.chosen + 1 < c.options {
                    next = Some(i);
                    break;
                }
            }
            match next {
                Some(i) => {
                    schedule.clear();
                    schedule.extend(trace[..i].iter().map(|c| c.chosen));
                    schedule.push(trace[i].chosen + 1);
                }
                None => {
                    report.complete = true;
                    return report;
                }
            }
        }
    }
}

/// Runs the post-trial invariant check on a quiet (trial-named) thread so
/// an expected failure does not splat a backtrace through the panic hook;
/// the payload comes back through `join`.
fn run_check(check: Box<dyn FnOnce() + Send>) -> std::thread::Result<()> {
    std::thread::Builder::new()
        .name(format!("{TRIAL_THREAD_PREFIX}-check"))
        .spawn(check)
        // audit-allow(no-panic): thread spawn failure is a
        // resource-exhaustion abort, not a protocol outcome.
        .expect("spawn check thread")
        .join()
}

fn run_trial_thread(sched: Arc<Scheduler>, tid: usize, body: Box<dyn FnOnce() + Send>) {
    crate::sched::set_current(Some(ThreadCtx {
        sched: Arc::clone(&sched),
        tid,
    }));
    sched.gate(tid);
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)) {
        Ok(()) => sched.finish(tid),
        Err(payload) => {
            if payload.downcast_ref::<TrialAbort>().is_some() {
                // Teardown unwind: the trial already recorded its reason.
                sched.finish(tid);
            } else {
                sched.record_panic(tid, panic_message(payload.as_ref()).to_string());
            }
        }
    }
    crate::sched::set_current(None);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string panic payload>")
}
