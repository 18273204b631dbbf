//! Shard leases: who owns which trials, and for how long.
//!
//! A shard travels through the [`LeaseQueue`] carrying its own failure
//! history, so retry/poison accounting survives the shard being re-offered
//! to a different worker after its original endpoint dies. While a worker
//! holds a shard, a [`Lease`] tracks the revocation deadline: the local
//! pipe transport keeps the PR-5 watchdog semantics (a fixed whole-shard
//! budget), the TCP transport uses a sliding deadline renewed by progress
//! (records, or heartbeat frames whose completion count advanced).

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One shard of trial indices plus the failure history charged to its head
/// trial. `attempts` and `last_fail` ride along through give-backs so a
/// shard that hops between workers still poisons its head trial after the
/// configured retry budget, no matter which endpoints it visited.
pub(crate) struct Shard {
    /// Trials not yet committed, in trial order.
    pub(crate) remaining: VecDeque<u64>,
    /// Consecutive no-progress worker failures charged to the head trial.
    pub(crate) attempts: u32,
    /// The last worker failure observed (watchdog, exit signal, lease
    /// expiry, connection loss).
    pub(crate) last_fail: String,
}

impl Shard {
    pub(crate) fn new(trials: VecDeque<u64>) -> Self {
        Shard { remaining: trials, attempts: 0, last_fail: String::from("never ran") }
    }
}

/// The supervisor's shared work queue. Handlers lease shards off the front;
/// a handler whose endpoint dies gives its shard back (history intact) for
/// any surviving handler to pick up.
///
/// The queue counts queued *and* leased shards under one lock, so an idle
/// handler can tell "no work left" from "no work right now": [`Self::take`]
/// blocks while the queue is empty but some shard is still leased, and
/// wakes when that shard is settled or given back.
pub(crate) struct LeaseQueue {
    state: Mutex<QueueState>,
    changed: Condvar,
}

struct QueueState {
    queued: VecDeque<Shard>,
    leased: usize,
    /// Times a handler blocked in [`LeaseQueue::take`], so a test can give
    /// a shard back only once a handler waits for it.
    #[cfg(test)]
    blocked: usize,
}

/// A shard leased off a [`LeaseQueue`]. Dropping it settles the lease
/// (finished, or abandoned because the campaign is stopping);
/// [`LeaseQueue::give_back`] re-offers it instead.
pub(crate) struct Leased<'q> {
    queue: &'q LeaseQueue,
    shard: Option<Shard>,
}

impl std::ops::Deref for Leased<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        self.shard.as_ref().expect("a lease holds its shard until settled")
    }
}

impl std::ops::DerefMut for Leased<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        self.shard.as_mut().expect("a lease holds its shard until settled")
    }
}

impl Drop for Leased<'_> {
    fn drop(&mut self) {
        if self.shard.take().is_some() {
            self.queue.settle(None);
        }
    }
}

impl LeaseQueue {
    pub(crate) fn new(shards: VecDeque<Shard>) -> Self {
        LeaseQueue {
            state: Mutex::new(QueueState {
                queued: shards,
                leased: 0,
                #[cfg(test)]
                blocked: 0,
            }),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().expect("lease queue lock")
    }

    /// Lease the next shard. Blocks while the queue is empty and another
    /// lease is outstanding; `None` once every shard is settled.
    pub(crate) fn take(&self) -> Option<Leased<'_>> {
        let mut st = self.lock();
        loop {
            if let Some(shard) = st.queued.pop_front() {
                st.leased += 1;
                return Some(Leased { queue: self, shard: Some(shard) });
            }
            if st.leased == 0 {
                return None;
            }
            #[cfg(test)]
            {
                st.blocked += 1;
            }
            st = self.changed.wait(st).expect("lease queue lock");
        }
    }

    /// Re-offer a leased shard, failure history intact.
    pub(crate) fn give_back(&self, mut lease: Leased<'_>) {
        self.settle(lease.shard.take());
    }

    fn settle(&self, give_back: Option<Shard>) {
        let mut st = self.lock();
        st.leased -= 1;
        st.queued.extend(give_back);
        self.changed.notify_all();
    }

    /// Shards waiting to be leased.
    pub(crate) fn outstanding(&self) -> usize {
        self.lock().queued.len()
    }

    /// Shards currently leased to a handler (the heartbeat's live-worker
    /// count).
    pub(crate) fn leased(&self) -> usize {
        self.lock().leased
    }

    /// Times a handler blocked in [`Self::take`].
    #[cfg(test)]
    fn blocked(&self) -> usize {
        self.lock().blocked
    }
}

/// When a leased shard is revoked from an unresponsive worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DeadlinePolicy {
    /// Whole-shard wall-clock budget, set once at lease time (the pipe
    /// transport's watchdog: a subprocess gets `shard_timeout` for the
    /// entire shard, however it spends it).
    Fixed(Duration),
    /// Sliding deadline renewed on progress (the TCP transport's lease: a
    /// worker keeps the shard as long as records keep landing, and loses it
    /// `lease_timeout` after progress stalls — even if its heartbeat is
    /// still beating, so a livelocked executor cannot hold a lease
    /// forever).
    Sliding(Duration),
}

/// Deadline tracking for one leased shard attempt.
pub(crate) struct Lease {
    policy: DeadlinePolicy,
    deadline: Instant,
}

impl Lease {
    pub(crate) fn new(policy: DeadlinePolicy) -> Self {
        let budget = match policy {
            DeadlinePolicy::Fixed(d) | DeadlinePolicy::Sliding(d) => d,
        };
        Lease { policy, deadline: Instant::now() + budget }
    }

    /// Push the deadline out on progress. A no-op for a fixed-budget lease.
    pub(crate) fn renew(&mut self) {
        if let DeadlinePolicy::Sliding(d) = self.policy {
            self.deadline = Instant::now() + d;
        }
    }

    pub(crate) fn expired(&self) -> bool {
        Instant::now() >= self.deadline
    }

    /// How long the stream loop may block waiting for the next message:
    /// until the deadline, capped at 50 ms so shutdown and cancellation are
    /// noticed promptly — a pending drain must never sit behind a long
    /// lease timeout. (Named for what it is: a poll interval, not a wait
    /// for the deadline itself.)
    pub(crate) fn poll_wait(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now()).min(Duration::from_millis(50))
    }

    /// The failure message recorded when this lease is revoked.
    pub(crate) fn describe(&self, outstanding: usize) -> String {
        match self.policy {
            DeadlinePolicy::Fixed(d) => {
                format!("shard watchdog fired after {d:?} with {outstanding} trials outstanding")
            }
            DeadlinePolicy::Sliding(d) => {
                format!("shard lease expired after {d:?} with {outstanding} trials outstanding")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_leases_never_renew_sliding_leases_do() {
        let mut fixed = Lease::new(DeadlinePolicy::Fixed(Duration::from_millis(20)));
        let mut sliding = Lease::new(DeadlinePolicy::Sliding(Duration::from_millis(80)));
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(30) {
            fixed.renew();
            sliding.renew();
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(fixed.expired(), "renew must not extend a fixed watchdog");
        assert!(!sliding.expired(), "renewal must keep a sliding lease alive");
    }

    #[test]
    fn revocation_messages_name_the_policy() {
        let fixed = Lease::new(DeadlinePolicy::Fixed(Duration::from_secs(60)));
        assert_eq!(fixed.describe(3), "shard watchdog fired after 60s with 3 trials outstanding");
        let sliding = Lease::new(DeadlinePolicy::Sliding(Duration::from_secs(30)));
        assert_eq!(sliding.describe(1), "shard lease expired after 30s with 1 trials outstanding");
    }

    #[test]
    fn poll_wait_caps_the_block_interval_at_50ms_under_long_leases() {
        // The stream loop blocks in `recv(lease.poll_wait())` and re-checks
        // stop/cancel between blocks. The cap is what makes a pending
        // shutdown observable within ~50 ms even when the lease itself has
        // a 60-second deadline — without it a drain request would wait out
        // the full lease timeout before anyone looked at the token.
        let lease = Lease::new(DeadlinePolicy::Sliding(Duration::from_secs(60)));
        assert!(lease.poll_wait() <= Duration::from_millis(50), "got {:?}", lease.poll_wait());
        let lease = Lease::new(DeadlinePolicy::Fixed(Duration::from_secs(3600)));
        assert!(lease.poll_wait() <= Duration::from_millis(50), "got {:?}", lease.poll_wait());
    }

    #[test]
    fn poll_wait_shrinks_to_the_deadline_when_it_is_nearer_than_the_cap() {
        // Near expiry the poll interval tightens to the remaining budget
        // (never negative), so expiry itself is also observed on time.
        let lease = Lease::new(DeadlinePolicy::Sliding(Duration::from_millis(10)));
        assert!(lease.poll_wait() <= Duration::from_millis(10));
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(lease.poll_wait(), Duration::ZERO, "expired lease must not block");
        assert!(lease.expired());
    }

    #[test]
    fn queue_give_back_preserves_failure_history() {
        let q = LeaseQueue::new(VecDeque::from([Shard::new(VecDeque::from([0, 1, 2]))]));
        let mut shard = q.take().expect("one shard queued");
        assert_eq!(q.outstanding(), 0);
        shard.attempts = 2;
        shard.last_fail = "connection lost".into();
        shard.remaining.pop_front();
        q.give_back(shard);
        assert_eq!(q.outstanding(), 1);
        let back = q.take().expect("shard re-offered");
        assert_eq!(back.attempts, 2);
        assert_eq!(back.last_fail, "connection lost");
        assert_eq!(back.remaining, VecDeque::from([1, 2]));
    }

    #[test]
    fn multi_shard_give_backs_release_in_fifo_order_with_history_intact() {
        // Three shards, three handlers: when two endpoints die (e.g. both
        // get quarantined by the trust ledger), their shards must be
        // re-offered to the survivor in the order they were given back,
        // each carrying its own distinct failure history — the shards must
        // never swap or merge their retry accounting.
        let q = LeaseQueue::new(VecDeque::from([
            Shard::new(VecDeque::from([0, 1])),
            Shard::new(VecDeque::from([2, 3])),
            Shard::new(VecDeque::from([4, 5])),
        ]));
        let a = q.take().expect("shard a");
        let mut b = q.take().expect("shard b");
        let mut c = q.take().expect("shard c");
        assert_eq!(q.outstanding(), 0, "all three leased out");
        drop(a); // handler A commits its whole shard: nothing to give back

        // Handler C's endpoint dies first, then handler B's, each having
        // made different partial progress with different failure counts.
        c.attempts = 1;
        c.last_fail = "endpoint is quarantined by the trust ledger".into();
        c.remaining.pop_front();
        q.give_back(c);
        b.attempts = 3;
        b.last_fail = "connection lost".into();
        q.give_back(b);
        assert_eq!(q.outstanding(), 2);

        // The survivor re-leases in give-back (FIFO) order: C then B, each
        // with exactly the history its own failures earned.
        let first = q.take().expect("first re-offer");
        assert_eq!(first.remaining, VecDeque::from([5]));
        assert_eq!(first.attempts, 1);
        assert_eq!(first.last_fail, "endpoint is quarantined by the trust ledger");
        let second = q.take().expect("second re-offer");
        assert_eq!(second.remaining, VecDeque::from([2, 3]));
        assert_eq!(second.attempts, 3);
        assert_eq!(second.last_fail, "connection lost");
        drop((first, second));
        assert!(q.take().is_none(), "queue drained");
    }

    #[test]
    fn an_idle_handler_receives_a_shard_given_back_after_being_held() {
        // The failover race: handler A holds the only shard through its
        // endpoint's backoff and redial while handler B finds the queue
        // empty. B must wait for A's verdict instead of retiring, and must
        // receive the shard A gives back.
        let q = LeaseQueue::new(VecDeque::from([Shard::new(VecDeque::from([0, 1]))]));
        let mut held = q.take().expect("A leases the shard");
        std::thread::scope(|scope| {
            let idle = scope.spawn(|| q.take().map(|s| s.remaining.clone()));
            while q.blocked() == 0 && !idle.is_finished() {
                std::thread::yield_now();
            }
            held.attempts = 1;
            held.remaining.pop_front();
            q.give_back(held);
            assert_eq!(idle.join().unwrap(), Some(VecDeque::from([1])));
        });
        assert_eq!((q.outstanding(), q.leased()), (0, 0));
        assert!(q.take().is_none(), "every shard settled: idle handlers retire");
    }

    #[test]
    fn idle_handlers_retire_once_the_last_lease_settles() {
        let q = LeaseQueue::new(VecDeque::from([Shard::new(VecDeque::from([0]))]));
        let held = q.take().expect("one shard");
        std::thread::scope(|scope| {
            let idle = scope.spawn(|| q.take().is_none());
            while q.blocked() == 0 && !idle.is_finished() {
                std::thread::yield_now();
            }
            drop(held);
            assert!(idle.join().unwrap(), "no shard left: take returns None");
        });
    }
}
