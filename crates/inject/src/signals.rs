//! Process-signal plumbing for graceful preemption, dependency-free.
//!
//! The repo vendors everything, so instead of the `libc` crate this module
//! declares the two POSIX functions it needs (`signal`, `_exit`) directly.
//! Both are async-signal-safe, and the handler itself touches nothing but
//! atomics — the `CancelToken` is designed so that tripping it from a
//! signal context is sound.
//!
//! Semantics (BSD/glibc `signal()`): the handler stays installed after
//! delivery, so the *second* SIGINT/SIGTERM reaches the same handler,
//! which then escalates to an immediate `_exit(128 + sig)` — the
//! conventional "killed by signal" exit status. The first signal merely
//! trips the token; workers notice at the next trial boundary and the run
//! ends through the normal checkpoint-writing path.
//!
//! Also here: [`reset_sigpipe`]. Rust sets SIGPIPE to ignore before
//! `main`, which turns `campaign ... | head` into a broken-pipe panic;
//! CLI mains call this first to restore the default die-quietly
//! disposition.
//!
//! On non-unix targets everything degrades to a no-op: tokens still work
//! (budgets, explicit cancels), there is just no signal source.

use crate::cancel::{CancelReason, CancelToken};
use std::sync::OnceLock;

/// The token the installed handlers trip. Installed once per process.
static TOKEN: OnceLock<CancelToken> = OnceLock::new();

#[cfg(unix)]
mod ffi {
    //! The only unsafe in the crate: two libc calls. `signal` installs a
    //! handler (we only pass `extern "C"` fns or `SIG_DFL`), `_exit`
    //! terminates without running atexit handlers — the async-signal-safe
    //! way out of a handler.
    #![allow(unsafe_code)]

    pub(super) const SIGINT: i32 = 2;
    pub(super) const SIGPIPE: i32 = 13;
    pub(super) const SIGTERM: i32 = 15;
    const SIG_DFL: usize = 0;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
        fn _exit(status: i32) -> !;
    }

    pub(super) fn set_handler(sig: i32, handler: extern "C" fn(i32)) {
        unsafe {
            signal(sig, handler as usize);
        }
    }

    pub(super) fn set_default(sig: i32) {
        unsafe {
            signal(sig, SIG_DFL);
        }
    }

    pub(super) fn exit_now(status: i32) -> ! {
        unsafe { _exit(status) }
    }
}

/// First terminate signal: trip the token and keep running (the workers
/// drain at the next trial boundary). Second: abort with the conventional
/// `128 + signo` status. Only atomics and `_exit` — async-signal-safe.
#[cfg(unix)]
extern "C" fn on_terminate(sig: i32) {
    if let Some(token) = TOKEN.get() {
        if token.signal_strike() == 0 {
            token.cancel(CancelReason::Signal);
            return;
        }
    }
    ffi::exit_now(128 + sig);
}

/// Install SIGINT/SIGTERM handlers that trip `token`. Idempotent: the
/// first call's token wins; later calls re-install the handlers but keep
/// the original token (there is one cancellation domain per process).
///
/// Deliberately *not* called by `--listen` daemons or `__worker`
/// subprocesses: those are driven by their supervisor (drain frames,
/// stdin EOF) and should die by default disposition when signalled
/// directly.
#[cfg(unix)]
pub fn install_terminate_handlers(token: &CancelToken) {
    let _ = TOKEN.set(token.clone());
    ffi::set_handler(ffi::SIGINT, on_terminate);
    ffi::set_handler(ffi::SIGTERM, on_terminate);
}

/// Non-unix: no signal source; the token still works for budgets.
#[cfg(not(unix))]
pub fn install_terminate_handlers(_token: &CancelToken) {}

/// Restore SIGPIPE's default disposition so `campaign ... | head` dies
/// quietly instead of panicking on a broken pipe. Call first thing in
/// CLI `main`s, before any output.
#[cfg(unix)]
pub fn reset_sigpipe() {
    ffi::set_default(ffi::SIGPIPE);
}

/// Non-unix: SIGPIPE does not exist; nothing to restore.
#[cfg(not(unix))]
pub fn reset_sigpipe() {}

/// `MBAVF_PREEMPT_DRILL` — the preemption member of the drill family
/// ([`crate::drill`]): once the freshly committed count reaches `n`,
/// deliver a real SIGTERM to this process, exactly as a preempting
/// scheduler would. A commit raises the count from `before` to `after` by
/// a whole group, so the drill fires on the commit whose group contains
/// the `n`-th trial ([`crosses`]).
/// Spelled `"<n>"` for a single graceful signal, `"<n>:2"` for a double
/// signal (second strike → immediate abort, exit `143`). Used by the
/// SIGTERM-at-every-phase torture drill to pin cancellation to a
/// deterministic trial count.
pub(crate) fn preempt_drill(before: usize, after: usize) {
    let Some((at, double)) = crate::drill::drills().preempt else { return };
    if !crosses(before, after, at) {
        return;
    }
    term_self();
    // Delivery is asynchronous; wait until the handler has visibly tripped
    // the token so cancellation lands at this trial count, not a later one.
    for _ in 0..2000 {
        if TOKEN.get().is_some_and(|t| t.cancelled().is_some()) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    if double {
        term_self();
        // The second strike _exits from the handler; hold the trial
        // boundary until it does so the abort point is deterministic too.
        std::thread::sleep(std::time::Duration::from_secs(10));
    }
}

/// Whether raising a count from `before` to `after` reaches `at`.
fn crosses(before: usize, after: usize, at: usize) -> bool {
    before < at && at <= after
}

/// Deliver SIGTERM to ourselves via `kill(1)`, mirroring how the chaos
/// drills deliver SIGKILL. Falls back to invoking the handler in-line if
/// no `kill` binary exists (sandboxed CI).
#[cfg(unix)]
fn term_self() {
    let pid = std::process::id().to_string();
    let delivered = std::process::Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .map(|s| s.success())
        .unwrap_or(false);
    if !delivered {
        on_terminate(ffi::SIGTERM);
    }
}

#[cfg(not(unix))]
fn term_self() {}

#[cfg(test)]
mod tests {
    use super::crosses;

    #[test]
    fn the_drill_fires_on_the_commit_that_reaches_its_count() {
        // One-record commits: exactly the commit that makes the count `at`.
        assert!(!crosses(5, 6, 7));
        assert!(crosses(6, 7, 7));
        assert!(!crosses(7, 8, 7));
        // A group of four straddling the drill count (trials 5..=8 of a
        // width-4 lockstep run) fires once, at its commit.
        assert!(!crosses(0, 4, 7));
        assert!(crosses(4, 8, 7));
        assert!(!crosses(8, 12, 7));
        // A group ending exactly on the count fires; one starting there
        // does not fire again.
        assert!(crosses(3, 7, 7));
        assert!(!crosses(7, 11, 7));
        // An empty commit never fires.
        assert!(!crosses(7, 7, 7));
    }
}
