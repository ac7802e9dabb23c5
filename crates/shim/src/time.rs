//! The workspace's **single approved wall-clock source**.
//!
//! Every library crate reads time through [`now`] — never through
//! `std::time::Instant::now` or `SystemTime` directly. The `milpjoin-audit`
//! linter's `no-wall-clock` rule enforces this mechanically: this module is
//! the only file on its allowlist.
//!
//! Why a choke point:
//!
//! * **Determinism contract.** Wall-clock reads are the one input that
//!   varies run-to-run. Funneling them through one function makes every
//!   consumer auditable (budget/deadline code is *supposed* to read time;
//!   plan-affecting code is not) and makes the caveat documented on
//!   [`OrderingOptions::deterministic_budget`] — wall-clock budgets measure
//!   CPU contention, node budgets don't — enforceable rather than
//!   aspirational.
//! * **Virtual time under the explorer.** While an interleaving-explorer
//!   trial is driving the calling thread ([`crate::explore`]), [`now`]
//!   returns the trial's fixed epoch: deadlines never advance mid-trial, so
//!   every schedule is explored over identical inputs and timeouts cannot
//!   mask a lost wakeup.
//!
//! [`OrderingOptions::deterministic_budget`]: https://docs.rs/milpjoin-qopt

use std::time::Instant;

/// The current instant — the only sanctioned wall-clock read in the
/// workspace. Virtualized (frozen at the trial epoch) while an
/// interleaving-explorer trial drives the calling thread.
pub fn now() -> Instant {
    #[cfg(debug_assertions)]
    if let Some(ctx) = crate::sched::current() {
        return ctx.sched.epoch;
    }
    real_now()
}

/// The real wall clock, bypassing virtualization. Crate-internal: used to
/// stamp a trial's epoch.
pub(crate) fn real_now() -> Instant {
    // audit-allow(no-wall-clock): this is the choke point every other
    // wall-clock read in the workspace is required to go through.
    Instant::now()
}
