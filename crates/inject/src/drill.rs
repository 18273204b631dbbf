//! Fault drills: environment hooks that make a worker, a daemon, or the
//! campaign itself fail on purpose at a chosen trial, so torture tests and
//! CI smoke jobs can prove the recovery paths. Every `MBAVF_*_DRILL`
//! variable the injection harness honours is read here, once per process.
//!
//! | variable | fires | effect |
//! |---|---|---|
//! | `MBAVF_ABORT_DRILL=<t>` | every attempt | `abort()` before trial `t` |
//! | `MBAVF_KILL_DRILL=<t>` | first attempt | SIGKILL self before trial `t` |
//! | `MBAVF_TRUNC_DRILL=<t>` | first attempt | tear the record stream before trial `t`, then hang up |
//! | `MBAVF_NET_KILL_DRILL=<t>` | every attempt | SIGKILL self before trial `t` |
//! | `MBAVF_NET_STALL_DRILL=<t>` | every attempt | freeze before trial `t`, heartbeat still beating |
//! | `MBAVF_NET_DRILL=<t>` | first attempt | after trial `t`, replay the lease's records, then tear a frame and hang up |
//! | `MBAVF_LIE_DRILL=<seed>:<rate>` | every record | flip verdicts on a chaos schedule |
//! | `MBAVF_PREEMPT_DRILL=<n>[:2]` | once | SIGTERM self after the commit that reaches `n` trials (`:2` twice) |
//!
//! The trial drills are checked by the worker lease loop at each trial
//! boundary — at batch width above 1, the boundary of the lockstep group
//! that contains the marker. The supervisor never runs that loop, so it
//! never drills itself; only the preemption drill targets the campaign
//! process.

use crate::chaos::ChaosSpec;
use std::sync::OnceLock;

/// Every drill setting of this process.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct Drills {
    pub(crate) abort: Option<u64>,
    pub(crate) kill: Option<u64>,
    pub(crate) trunc: Option<u64>,
    pub(crate) net: Option<u64>,
    pub(crate) net_kill: Option<u64>,
    pub(crate) net_stall: Option<u64>,
    /// A malformed spec is kept as its error so each connection can report
    /// it instead of silently serving honestly.
    pub(crate) lie: Option<Result<ChaosSpec, String>>,
    /// `(n, double)`: signal after the `n`-th commit, twice when `double`.
    pub(crate) preempt: Option<(usize, bool)>,
}

impl Drills {
    /// Parse drill settings through `var` (an environment lookup).
    /// Garbage values disarm their drill rather than fail.
    pub(crate) fn parse(var: impl Fn(&str) -> Option<String>) -> Drills {
        let trial = |name: &str| var(name)?.parse().ok();
        Drills {
            abort: trial("MBAVF_ABORT_DRILL"),
            kill: trial("MBAVF_KILL_DRILL"),
            trunc: trial("MBAVF_TRUNC_DRILL"),
            net: trial("MBAVF_NET_DRILL"),
            net_kill: trial("MBAVF_NET_KILL_DRILL"),
            net_stall: trial("MBAVF_NET_STALL_DRILL"),
            lie: var("MBAVF_LIE_DRILL")
                .map(|spec| ChaosSpec::parse(&spec).map_err(|d| format!("lie drill: {d}"))),
            preempt: var("MBAVF_PREEMPT_DRILL").and_then(|spec| parse_preempt(&spec)),
        }
    }
}

/// `"<n>"` → one signal after commit `n`; `"<n>:2"` → two.
fn parse_preempt(spec: &str) -> Option<(usize, bool)> {
    match spec.split_once(':') {
        Some((n, "2")) => Some((n.parse().ok()?, true)),
        Some(_) => None,
        None => Some((spec.parse().ok()?, false)),
    }
}

/// This process's drills, read from the environment on first use.
pub(crate) fn drills() -> &'static Drills {
    static DRILLS: OnceLock<Drills> = OnceLock::new();
    DRILLS.get_or_init(|| Drills::parse(|name| std::env::var(name).ok()))
}

/// Whether a drill armed at `marker` fires for the trial group `group`.
pub(crate) fn hits(marker: Option<u64>, group: &[u64]) -> bool {
    marker.is_some_and(|m| group.contains(&m))
}

/// Deliver SIGKILL to this process — the kill drills simulate an external
/// killer (OOM, operator), which no in-process handler can observe.
pub(crate) fn sigkill_self() -> ! {
    let pid = std::process::id().to_string();
    let _ = std::process::Command::new("kill").args(["-9", &pid]).status();
    // No `kill` binary on PATH: abort still exercises the death path.
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Drills {
        Drills::parse(|name| pairs.iter().find(|(k, _)| *k == name).map(|(_, v)| v.to_string()))
    }

    #[test]
    fn drill_spec_parsing_ignores_garbage() {
        assert_eq!(parse(&[]), Drills::default(), "no variables: nothing armed");
        for garbage in ["", "x", "-1", "3:1", "3:2:2", ":2", "1.5"] {
            let d = parse(&[
                ("MBAVF_PREEMPT_DRILL", garbage),
                ("MBAVF_ABORT_DRILL", garbage),
                ("MBAVF_NET_DRILL", garbage),
            ]);
            assert_eq!(d.preempt, None, "preempt spec {garbage:?} must disarm");
            assert_eq!((d.abort, d.net), (None, None), "trial spec {garbage:?} must disarm");
        }
        assert_eq!(parse(&[("MBAVF_PREEMPT_DRILL", "7")]).preempt, Some((7, false)));
        assert_eq!(parse(&[("MBAVF_PREEMPT_DRILL", "7:2")]).preempt, Some((7, true)));
        let d = parse(&[
            ("MBAVF_ABORT_DRILL", "1"),
            ("MBAVF_KILL_DRILL", "2"),
            ("MBAVF_TRUNC_DRILL", "3"),
            ("MBAVF_NET_DRILL", "4"),
            ("MBAVF_NET_KILL_DRILL", "5"),
            ("MBAVF_NET_STALL_DRILL", "6"),
        ]);
        let armed = [d.abort, d.kill, d.trunc, d.net, d.net_kill, d.net_stall];
        assert_eq!(armed, [1, 2, 3, 4, 5, 6].map(Some));
        assert!(matches!(parse(&[("MBAVF_LIE_DRILL", "9:1")]).lie, Some(Ok(_))));
        assert!(matches!(parse(&[("MBAVF_LIE_DRILL", "nope")]).lie, Some(Err(_))));
    }

    #[test]
    fn a_drill_hits_the_group_that_contains_its_marker() {
        assert!(hits(Some(5), &[5]));
        assert!(hits(Some(5), &[4, 5, 6, 7]));
        assert!(!hits(Some(5), &[0, 1, 2, 3]));
        assert!(!hits(None, &[5]));
    }
}
