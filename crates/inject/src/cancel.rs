//! Cooperative cancellation for campaigns: one shared [`CancelToken`]
//! threaded through every execution mode.
//!
//! The harness already survives murder — the WAL replays after `kill -9`,
//! the chaos engine tears writes, poison sidecars quarantine hostile
//! workers. What it historically could not do is *stop on purpose*. This
//! module is the single mechanism for deliberate early exit:
//!
//! - **Signal** — SIGINT/SIGTERM handlers (see [`crate::signals`]) trip
//!   the token; workers notice at the next trial boundary, the supervisor
//!   drains in-flight shards instead of leasing new ones, and a second
//!   signal escalates to immediate abort.
//! - **Wall clock** — `campaign --max-wall DUR` arms a deadline; the
//!   token trips itself lazily the first time it is polled past it.
//! - **Trial budget** — `campaign --max-trials-this-run N` (and the old
//!   `--stop-after` test hook, now reimplemented here) caps how many new
//!   trials this invocation may run. Unlike the other two reasons the
//!   budget is *deterministic*: the runner truncates its pending list
//!   before spawning workers, so a budgeted run executes exactly the
//!   first `N` missing trials regardless of thread count or timing.
//!
//! Cancellation is cooperative and checked at trial-group boundaries only,
//! so a cancelled run always ends on a committed-record boundary: the WAL
//! is fsync'd per group as usual, the normal exit path writes the final
//! checkpoint, and resuming converges bit-identically to an uninterrupted
//! run. The token is `Clone` (shared handle), cheap to poll (one atomic
//! load), and first-cancel-wins: later reasons never overwrite the first.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering::SeqCst};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Why a campaign was asked to stop early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// SIGINT or SIGTERM arrived (Ctrl-C, preemption, `kill`).
    Signal,
    /// The `--max-wall` wall-clock budget expired.
    WallClock,
    /// The `--max-trials-this-run` / `--stop-after` trial budget was hit.
    TrialBudget,
}

impl CancelReason {
    /// Stable lower-case name, used in `partial: <reason>` summary lines.
    pub fn as_str(self) -> &'static str {
        match self {
            CancelReason::Signal => "signal",
            CancelReason::WallClock => "wall-clock",
            CancelReason::TrialBudget => "trial-budget",
        }
    }
}

impl fmt::Display for CancelReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

// Reason encoding in `Inner::reason`. 0 means "still live".
const LIVE: u8 = 0;
const SIGNAL: u8 = 1;
const WALL_CLOCK: u8 = 2;
const TRIAL_BUDGET: u8 = 3;

#[derive(Debug, Default)]
struct Inner {
    /// First-cancel-wins reason code; `LIVE` until tripped.
    reason: AtomicU8,
    /// How many terminate signals have landed (second one aborts).
    strikes: AtomicU32,
    /// Armed wall-clock deadline, if any. Write-once.
    deadline: OnceLock<Instant>,
    /// Armed trial budget, if any. Write-once.
    budget: OnceLock<usize>,
}

/// Shared cancellation handle. Clones observe the same state.
///
/// Equality is *identity*: two tokens are equal iff they share state.
/// (`RunnerConfig` derives `PartialEq`; a config clone compares equal to
/// its original because the clone shares the token.)
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

impl CancelToken {
    /// A fresh, un-tripped token with no budgets armed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience constructor: a token with a trial budget of `n` new
    /// trials — the successor of the old `RunnerConfig::stop_after` hook.
    pub fn limited(n: usize) -> Self {
        let token = Self::new();
        token.set_trial_budget(n);
        token
    }

    /// Arm a wall-clock budget: the token trips with
    /// [`CancelReason::WallClock`] once `budget` has elapsed from now.
    /// Write-once; later calls are ignored.
    pub fn set_max_wall(&self, budget: Duration) {
        let _ = self.inner.deadline.set(Instant::now() + budget);
    }

    /// Arm a trial budget: the runner will execute at most `n` *new*
    /// trials this invocation (resumed trials are free). Write-once;
    /// later calls are ignored.
    pub fn set_trial_budget(&self, n: usize) {
        let _ = self.inner.budget.set(n);
    }

    /// The armed trial budget, if any.
    pub fn trial_budget(&self) -> Option<usize> {
        self.inner.budget.get().copied()
    }

    /// Trip the token. First cancel wins; returns `true` if this call was
    /// the one that tripped it. Async-signal-safe (atomics only).
    pub fn cancel(&self, reason: CancelReason) -> bool {
        let code = match reason {
            CancelReason::Signal => SIGNAL,
            CancelReason::WallClock => WALL_CLOCK,
            CancelReason::TrialBudget => TRIAL_BUDGET,
        };
        self.inner.reason.compare_exchange(LIVE, code, SeqCst, SeqCst).is_ok()
    }

    /// Poll the token: `Some(reason)` once cancelled. Also the place where
    /// an armed wall-clock deadline is (lazily) enforced, so callers need
    /// no timer thread — any poll past the deadline trips the token.
    pub fn cancelled(&self) -> Option<CancelReason> {
        let seen = match self.inner.reason.load(SeqCst) {
            LIVE => {
                match self.inner.deadline.get() {
                    Some(deadline) if Instant::now() >= *deadline => {
                        self.cancel(CancelReason::WallClock);
                        // Re-read: a signal may have raced us and won.
                        self.inner.reason.load(SeqCst)
                    }
                    _ => return None,
                }
            }
            code => code,
        };
        match seen {
            SIGNAL => Some(CancelReason::Signal),
            WALL_CLOCK => Some(CancelReason::WallClock),
            TRIAL_BUDGET => Some(CancelReason::TrialBudget),
            _ => None,
        }
    }

    /// Record one terminate-signal delivery and return the count *before*
    /// this one: 0 means first strike (cancel gracefully), ≥1 means the
    /// operator asked twice (abort). Async-signal-safe.
    pub fn signal_strike(&self) -> u32 {
        self.inner.strikes.fetch_add(1, SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_cancel_wins_and_clones_share_state() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert_eq!(token.cancelled(), None);
        assert!(token.cancel(CancelReason::Signal));
        assert!(!clone.cancel(CancelReason::WallClock), "second cancel must lose");
        assert_eq!(clone.cancelled(), Some(CancelReason::Signal));
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new(), "identity equality, not value equality");
    }

    #[test]
    fn wall_clock_deadline_trips_lazily_on_poll() {
        let token = CancelToken::new();
        token.set_max_wall(Duration::from_secs(3600));
        assert_eq!(token.cancelled(), None, "future deadline must not trip");

        let token = CancelToken::new();
        token.set_max_wall(Duration::ZERO);
        assert_eq!(token.cancelled(), Some(CancelReason::WallClock));
        assert_eq!(token.cancelled(), Some(CancelReason::WallClock), "sticky");
    }

    #[test]
    fn trial_budget_is_carried_but_does_not_trip_by_itself() {
        let token = CancelToken::limited(7);
        assert_eq!(token.trial_budget(), Some(7));
        assert_eq!(token.cancelled(), None, "budget truncates pending work; it is not a trip");
        token.set_trial_budget(99);
        assert_eq!(token.trial_budget(), Some(7), "budget is write-once");
    }

    #[test]
    fn strikes_count_deliveries() {
        let token = CancelToken::new();
        assert_eq!(token.signal_strike(), 0);
        assert_eq!(token.signal_strike(), 1);
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(CancelReason::Signal.to_string(), "signal");
        assert_eq!(CancelReason::WallClock.to_string(), "wall-clock");
        assert_eq!(CancelReason::TrialBudget.to_string(), "trial-budget");
    }
}
