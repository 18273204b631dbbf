//! The resilient campaign engine: crash-isolated trials, deterministic
//! parallelism, and checkpoint/resume.
//!
//! ## Determinism contract
//!
//! Every trial's fault site comes from its own SplitMix64 stream keyed by
//! `(campaign seed, trial index)`, and trials never share mutable state — so
//! the record produced for trial *i* is a pure function of the campaign
//! config. Workers claim trial indices from an atomic counter and write each
//! record into its trial's slot; after the scope joins, slots are read out in
//! index order. Summaries are therefore **bit-identical** across any thread
//! count, and across interrupted-then-resumed executions.
//!
//! ## Checkpointing
//!
//! With [`RunnerConfig::checkpoint`] set, the runner loads any existing
//! checkpoint (validating its config fingerprint), replays the write-ahead
//! trial journal over it ([`checkpoint::wal`]), and runs only the missing
//! trials. Commits are grouped: each lockstep group a worker runs (one
//! trial at batch width 1, at most [`RunnerConfig::batch_width`] otherwise)
//! is appended to `<checkpoint>.wal` as CRC-framed records with one write
//! and one fsync, and its trials count as completed only after that fsync
//! returns. Whenever the completed count crosses a multiple of
//! [`RunnerConfig::checkpoint_every`] the snapshot is compacted atomically
//! and the journal reset; a group lands wholly before or wholly after a
//! snapshot. A campaign killed at any point loses at most the one in-flight
//! group — none of whose trials had counted — never a committed trial.
//! Each record is serialized once, when it commits: that text is its
//! journal frame and its entry in every later snapshot.
//!
//! Durable-write failures degrade instead of killing the run: a failed
//! journal append falls back to snapshot-only checkpointing, repeated
//! snapshot failures disable checkpointing entirely (counted and reported
//! as `snapshot_failures`), and only a failing *final* save is a hard,
//! typed error — silently losing a finished campaign is the one thing this
//! layer must never do.
//!
//! ## One session, two executors
//!
//! A campaign's lifecycle lives in one `Session`: it opens once (runner
//! validation, sampler, fingerprint, durable recovery, the work list minus
//! any poison-sidecar exclusions, the trial-budget cut), every record goes
//! through its one commit path (merge, journal, counters, snapshot cadence,
//! preemption drill), and it finishes once (final save, poison sidecar,
//! bundles, report). Thread workers here and the supervisor's lease fleet
//! ([`crate::supervisor`]) are two executors over it. A supervised campaign
//! that degrades to threads keeps its session — the same durable state,
//! poison exclusions and golden run — so nothing is recovered or re-run
//! twice, and a trial an earlier run quarantined stays excluded.

use crate::campaign::{
    campaign_sampler, golden_shape, CampaignConfig, CampaignSummary, GoldenShape, Outcome,
    OutcomeKind, SingleBitRecord, SiteSampler, TrialExecutor,
};
use crate::checkpoint::{self, wal};
use crate::supervisor::merge::{merge_slot, MergeVerdict};
use crate::supervisor::{load_or_quarantine_poison, save_poison, PoisonEntry};
use mbavf_core::error::{CheckpointError, InjectError, SupervisorError};
use mbavf_workloads::Workload;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use crate::durable::{quarantine_corrupt, quarantine_path};

/// How to execute a campaign (as opposed to *what* to run, which is
/// [`CampaignConfig`]). Execution knobs never affect the records produced —
/// only how fast they appear and how interruption-proof the run is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// Checkpoint file to resume from and snapshot into.
    pub checkpoint: Option<PathBuf>,
    /// Snapshot after this many newly completed trials (when checkpointing).
    pub checkpoint_every: usize,
    /// Shared cancellation token, polled at every trial boundary. Arms all
    /// three graceful early-exit paths: signal handlers trip it, `--max-wall`
    /// arms a deadline on it, and a trial budget (`--max-trials-this-run`,
    /// née `stop_after`) deterministically truncates the pending list. A
    /// cancelled run still exits through the normal final-checkpoint path.
    pub cancel: crate::cancel::CancelToken,
    /// Directory to write repro bundles into (one self-contained JSON file
    /// per interesting trial, capped per outcome kind). `None` disables
    /// bundle emission.
    pub repro_dir: Option<PathBuf>,
    /// Per-outcome-kind cap on emitted repro bundles.
    pub repro_cap: usize,
    /// Emit a progress heartbeat line to stderr at this interval (trials
    /// done/total, trials/sec, per-kind counts, live workers, ETA). `None`
    /// keeps the runner silent until the end. Heartbeats are an observation
    /// channel only — they never change the records produced.
    pub heartbeat: Option<Duration>,
    /// Trials each worker thread executes in lockstep per batch
    /// ([`mbavf_sim::TrialBatch`]): the golden instruction stream is decoded
    /// once per batch instead of once per trial. Width 1 (the default) is
    /// the sequential [`mbavf_sim::TrialArena`] path. An execution knob like
    /// `threads` — records are bit-identical at every width, and the width
    /// is never part of the config fingerprint.
    pub batch_width: usize,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            checkpoint: None,
            checkpoint_every: 64,
            cancel: crate::cancel::CancelToken::new(),
            repro_dir: None,
            repro_cap: crate::bundle::DEFAULT_BUNDLE_CAP,
            heartbeat: None,
            batch_width: 1,
        }
    }
}

impl RunnerConfig {
    /// Single-threaded, no checkpointing — the simplest execution mode.
    pub fn serial() -> Self {
        Self { threads: 1, ..Self::default() }
    }

    /// Reject execution settings no engine can honour.
    pub(crate) fn validate(&self) -> Result<(), InjectError> {
        let bad = |detail: &str| Err(InjectError::BadConfig { detail: detail.into() });
        if self.checkpoint.is_some() && self.checkpoint_every == 0 {
            return bad("checkpoint_every must be at least 1 when checkpointing");
        }
        if self.batch_width == 0 {
            return bad("batch_width must be at least 1 (1 = sequential execution)");
        }
        Ok(())
    }

    fn resolved_threads(&self, pending: usize) -> usize {
        let n = if self.threads == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            self.threads
        };
        n.clamp(1, pending.max(1))
    }
}

/// Wall-clock percentiles over the trials a single call executed.
///
/// Latency is an execution-side observation (it depends on the machine, not
/// the campaign config), so it lives in the report, never in checkpoints or
/// summaries — two bit-identical campaigns can legitimately differ here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStats {
    /// Trials measured (newly run by this call; resumed trials have no
    /// latency).
    pub n: usize,
    /// Median trial wall-clock, microseconds.
    pub p50_us: u64,
    /// 99th-percentile trial wall-clock, microseconds.
    pub p99_us: u64,
    /// Slowest trial wall-clock, microseconds.
    pub max_us: u64,
}

impl LatencyStats {
    /// Nearest-rank percentiles over per-trial latencies (microseconds).
    /// Returns `None` for an empty sample.
    pub fn from_micros(mut us: Vec<u64>) -> Option<LatencyStats> {
        if us.is_empty() {
            return None;
        }
        us.sort_unstable();
        let rank = |q: f64| us[((q * us.len() as f64).ceil() as usize).clamp(1, us.len()) - 1];
        Some(LatencyStats {
            n: us.len(),
            p50_us: rank(0.50),
            p99_us: rank(0.99),
            max_us: *us.last().expect("nonempty"),
        })
    }
}

/// What a [`run_campaign`] call accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// All completed trials, in trial order (the union of resumed and newly
    /// run records).
    pub summary: CampaignSummary,
    /// Trials restored from the checkpoint instead of re-run.
    pub resumed: usize,
    /// Trials executed by this call.
    pub newly_run: usize,
    /// Whether every trial in the budget is now complete. `false` only when
    /// the [`RunnerConfig::cancel`] token cut the run short.
    pub complete: bool,
    /// Why the run stopped early, when it did (`None` on a complete run):
    /// a signal, the wall-clock budget, or the trial budget. The summary and
    /// its Wilson intervals are still honest at the achieved N — a partial
    /// run is a smaller campaign, not a broken one.
    pub interrupted: Option<crate::cancel::CancelReason>,
    /// Repro bundles this campaign's records select (written or already on
    /// disk), in trial order. Empty unless [`RunnerConfig::repro_dir`] is
    /// set.
    pub bundles: Vec<PathBuf>,
    /// Trials quarantined by the process-isolation supervisor because they
    /// repeatedly killed their worker. Always empty in thread mode; the
    /// summary deliberately excludes these trials (they are counted
    /// honestly as *unmeasured*, not guessed at).
    pub poisoned: Vec<PoisonEntry>,
    /// Wall-clock percentiles of the trials this call executed, when any
    /// were measured.
    pub trial_latency: Option<LatencyStats>,
}

/// Durable-write failures tolerated before periodic checkpointing is
/// disabled for the rest of the run. Each failure has already survived
/// bounded retry inside [`crate::durable`], so three strikes means the disk
/// is persistently refusing writes (full, read-only, gone) — keep the
/// science running, report honestly, stop hammering the filesystem.
const MAX_SNAPSHOT_FAILURES: usize = 3;

/// One campaign's lifecycle, shared by every executor: [`Session::open`]
/// recovers the durable state and fixes the work list, an executor runs
/// the pending trials and hands each record to [`Session::commit`], and
/// [`Session::finish`] writes the final checkpoint and builds the report.
/// Thread workers ([`Session::run_threads`]) and the supervisor's lease
/// fleet ([`crate::supervisor`]) are the two executors. A degraded
/// supervised run hands its open session to the next executor, so the
/// golden run, the recovery and the poison exclusions happen once.
pub(crate) struct Session<'a> {
    pub(crate) workload: &'a Workload,
    pub(crate) cfg: &'a CampaignConfig,
    pub(crate) runner: &'a RunnerConfig,
    pub(crate) golden: &'a GoldenShape,
    /// The fault-site sampler; `None` for a zero-budget campaign.
    pub(crate) sampler: Option<SiteSampler>,
    pub(crate) fingerprint: u64,
    /// Trials restored from the checkpoint and its journal.
    resumed: usize,
    /// The work list: every trial neither restored nor poisoned, oldest
    /// first, cut to the graceful-stop trial budget.
    pub(crate) pending: Vec<u64>,
    /// Length of the work list before the trial-budget cut.
    missing: usize,
    /// Poison sidecar the quarantined trials are persisted to.
    poison_path: Option<PathBuf>,
    /// Trials poisoned by earlier runs, excluded from the work list.
    pub(crate) prior_poison: Vec<PoisonEntry>,
    /// One slot per trial in the budget, with each committed record's text.
    slots: Mutex<Slots>,
    /// Completions since the run started (drives checkpoint cadence).
    pub(crate) completed: AtomicUsize,
    /// Completions per outcome class (heartbeat reporting).
    kind_counts: [AtomicUsize; 4],
    /// Workers currently executing trials (heartbeat reporting and monitor
    /// shutdown).
    active_workers: AtomicUsize,
    /// Per-trial wall-clock, microseconds, for trials run by this call.
    /// Pre-reserved to the pending count so the hot path never allocates.
    latencies_us: Mutex<Vec<u64>>,
    /// Write-ahead trial journal. `None` when no checkpoint is configured
    /// or after an append failure degraded the run to snapshot-only mode.
    journal: Mutex<Option<wal::WalWriter>>,
    /// Durable-write failures observed so far: failed journal appends and
    /// resets, failed snapshot compactions. Surfaced in the summary and the
    /// heartbeat so degraded durability is never silent.
    snapshot_failures: AtomicUsize,
    /// Set once [`MAX_SNAPSHOT_FAILURES`] durable-write failures accumulate:
    /// the campaign keeps running, but stops attempting periodic snapshots
    /// (only the final save is still tried — and is a hard error if it
    /// fails).
    checkpointing_disabled: AtomicBool,
    /// Serializes snapshot writes: concurrent workers crossing the
    /// checkpoint cadence at once would otherwise race on the shared
    /// temp-file-then-rename, and the loser's rename finds the temp file
    /// already consumed.
    snapshotting: Mutex<()>,
}

impl<'a> Session<'a> {
    /// Open a campaign: validate the runner settings, build the sampler,
    /// recover the checkpoint and its journal ([`restore_durable`]), load
    /// the poison sidecar at `poison_path` (trials it names are excluded
    /// from the work list), and cut the work list to the trial budget.
    pub(crate) fn open(
        workload: &'a Workload,
        cfg: &'a CampaignConfig,
        runner: &'a RunnerConfig,
        golden: &'a GoldenShape,
        poison_path: Option<PathBuf>,
    ) -> Result<Self, InjectError> {
        runner.validate()?;
        let sampler = campaign_sampler(workload, cfg, golden)?;
        let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);
        let durable =
            restore_durable(runner, workload.name, fingerprint, cfg.mode_bits, cfg.injections)?;
        let prior_poison = match &poison_path {
            Some(path) => load_or_quarantine_poison(path, fingerprint)?,
            None => Vec::new(),
        };
        let slots = Slots { records: durable.slots, texts: durable.texts };
        let mut pending: Vec<u64> = (0..cfg.injections as u64)
            .filter(|&t| {
                slots.records[t as usize].is_none() && !prior_poison.iter().any(|e| e.trial == t)
            })
            .collect();
        let missing = pending.len();
        if let Some(cap) = runner.cancel.trial_budget() {
            pending.truncate(cap);
        }
        let failures = durable.snapshot_failures;
        Ok(Session {
            workload,
            cfg,
            runner,
            golden,
            sampler,
            fingerprint,
            resumed: durable.resumed,
            latencies_us: Mutex::new(Vec::with_capacity(pending.len())),
            pending,
            missing,
            poison_path,
            prior_poison,
            slots: Mutex::new(slots),
            completed: AtomicUsize::new(0),
            kind_counts: Default::default(),
            active_workers: AtomicUsize::new(0),
            journal: Mutex::new(durable.journal),
            snapshot_failures: AtomicUsize::new(failures),
            checkpointing_disabled: AtomicBool::new(failures >= MAX_SNAPSHOT_FAILURES),
            snapshotting: Mutex::new(()),
        })
    }

    /// Commit one group of records — the one commit path of every
    /// executor: merge each into its trial's slot, append the fresh ones to
    /// the write-ahead journal with one write and one fsync, count them,
    /// snapshot when the completed count crosses the checkpoint cadence,
    /// and fire the preemption drill. Thread workers commit each lockstep
    /// group whole; the lease fleet commits one record at a time. `leased`
    /// is whether the sender holds a lease covering the trials (thread
    /// workers always do); without one, only a byte-equal replay of a
    /// committed record is tolerated. Returns one [`MergeVerdict`] per
    /// record, in order. Only [`MergeVerdict::Fresh`] records are journaled
    /// and counted, so a replay can never inflate the campaign, and they
    /// are counted only once their group is durable.
    ///
    /// The merge and the journal append happen together under the journal
    /// lock (lock order: journal → slots). [`Session::snapshot`] holds the
    /// same lock while it collects slots and resets the journal, so it can
    /// never observe a record's frame without its slot, and a group lands
    /// wholly before or wholly after it: splitting the pair reopens the race
    /// where a snapshot saves slots missing the record and then resets the
    /// journal over its only durable copy. Journaling only what the merge
    /// accepted keeps foreign records out of every future recovery.
    pub(crate) fn commit(
        &self,
        group: impl IntoIterator<Item = (SingleBitRecord, u64)>,
        leased: bool,
    ) -> Vec<MergeVerdict> {
        let checkpointing = self.runner.checkpoint.is_some();
        let mut verdicts = Vec::new();
        // (trial, kind, latency) of each fresh record.
        let mut fresh: Vec<(usize, OutcomeKind, u64)> = Vec::new();
        {
            let mut journal = self.journal.lock().expect("journal lock");
            let mut slots = self.slots.lock().expect("slots lock");
            let Slots { records, texts } = &mut *slots;
            for (record, elapsed_us) in group {
                let (kind, trial) = (record.outcome.kind(), record.trial as usize);
                let verdict = merge_slot(records, record, leased);
                if verdict == MergeVerdict::Fresh {
                    if checkpointing {
                        texts[trial] = record_text(records[trial].as_ref().expect("fresh slot"));
                    }
                    fresh.push((trial, kind, elapsed_us));
                }
                verdicts.push(verdict);
            }
            if let (Some(writer), false) = (journal.as_mut(), fresh.is_empty()) {
                // A failed append (already retried with backoff inside the
                // writer) degrades the run to snapshot-only mode.
                if let Err(e) = writer.append_group(fresh.iter().map(|&(t, ..)| texts[t].as_str()))
                {
                    self.snapshot_failures.fetch_add(1, Ordering::SeqCst);
                    eprintln!(
                        "warning: trial journal append failed ({e}); journaling disabled, \
                         falling back to periodic snapshots only"
                    );
                    *journal = None;
                }
            }
        }
        if fresh.is_empty() {
            return verdicts;
        }
        for &(_, kind, _) in &fresh {
            self.kind_counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        }
        self.latencies_us.lock().expect("latency lock").extend(fresh.iter().map(|&(.., us)| us));
        let before = self.completed.fetch_add(fresh.len(), Ordering::SeqCst);
        let after = before + fresh.len();
        if let Some(path) = &self.runner.checkpoint {
            if crosses_cadence(before, after, self.runner.checkpoint_every) {
                self.snapshot(path);
            }
        }
        crate::signals::preempt_drill(before, after);
        verdicts
    }

    /// Compact the current slots into the checkpoint snapshot and, on
    /// success, reset the write-ahead journal (whose frames the snapshot
    /// now subsumes). The snapshot is assembled from the records' kept
    /// texts, never re-serialized. Failures degrade instead of aborting:
    /// each one is counted, and after [`MAX_SNAPSHOT_FAILURES`] periodic
    /// checkpointing is disabled for the rest of the run.
    ///
    /// Lock order: `snapshotting` → `journal` → `slots` (never any
    /// reverse). The journal lock is held for the whole collect→save→reset
    /// window: commits also pair their merge with the journal append
    /// under it, so every frame the reset discards is guaranteed to be in
    /// the record set this snapshot just made durable. Collecting the slots
    /// outside that window would let a commit land between collection and
    /// reset — its frame truncated, its record absent from the snapshot —
    /// and would also let two racing snapshotters overwrite a newer
    /// checkpoint with a stale record set before resetting the journal.
    fn snapshot(&self, path: &std::path::Path) {
        if self.checkpointing_disabled.load(Ordering::SeqCst) {
            return;
        }
        let (workload, fingerprint, mode_bits) =
            (self.workload.name, self.fingerprint, self.cfg.mode_bits);
        let _write_guard = self.snapshotting.lock().expect("snapshot lock");
        let mut journal = self.journal.lock().expect("journal lock");
        let doc = {
            let slots = self.slots.lock().expect("slots lock");
            document(&slots.texts, workload, fingerprint, mode_bits)
        };
        match checkpoint::save_document(path, &doc) {
            Ok(()) => {
                if let Some(writer) = journal.as_mut() {
                    if let Err(e) = writer.reset(workload, fingerprint, mode_bits) {
                        self.snapshot_failures.fetch_add(1, Ordering::SeqCst);
                        eprintln!(
                            "warning: trial journal reset failed ({e}); journaling \
                             disabled, falling back to periodic snapshots only"
                        );
                        *journal = None;
                    }
                }
            }
            Err(e) => {
                let failures = self.snapshot_failures.fetch_add(1, Ordering::SeqCst) + 1;
                if failures >= MAX_SNAPSHOT_FAILURES {
                    self.checkpointing_disabled.store(true, Ordering::SeqCst);
                    *journal = None;
                    eprintln!(
                        "warning: checkpoint snapshot to {} failed ({e}); {failures} \
                         durable-write failures, checkpointing disabled — progress since \
                         the last good snapshot will not survive a crash",
                        path.display()
                    );
                } else {
                    eprintln!(
                        "warning: checkpoint snapshot to {} failed ({e}); will retry at \
                         the next cadence",
                        path.display()
                    );
                }
            }
        }
    }

    /// Run `work(id)` for `workers` executor workers on scoped threads until
    /// all return, beside a heartbeat monitor when one is configured and
    /// trials are pending. `label` names the execution mode, `live` reports
    /// the worker count a beat shows, and `extra` appends mode-specific
    /// detail (e.g. poison counts).
    pub(crate) fn execute(
        &self,
        label: &str,
        workers: usize,
        live: &(dyn Fn() -> usize + Sync),
        extra: &(dyn Fn() -> String + Sync),
        work: &(dyn Fn(usize) + Sync),
    ) {
        // Registered before any worker spawns, so the monitor cannot see
        // zero workers during start-up and exit early.
        self.active_workers.store(workers, Ordering::SeqCst);
        std::thread::scope(|scope| {
            if let Some(interval) = self.runner.heartbeat {
                if !self.pending.is_empty() {
                    scope.spawn(move || self.monitor(interval, label, live, extra));
                }
            }
            for id in 0..workers {
                scope.spawn(move || {
                    let _retire = WorkerGuard(self);
                    work(id)
                });
            }
        });
    }

    /// The thread executor: worker threads claim [`SITE_CHUNK`]-trial chunks
    /// of the work list and commit each lockstep group as it finishes.
    pub(crate) fn run_threads(&self) {
        let threads = self.runner.resolved_threads(self.pending.len());
        let next = AtomicUsize::new(0);
        let live = || self.active_workers.load(Ordering::SeqCst);
        self.execute("thread", threads, &live, &String::new, &|_| self.thread_worker(&next));
    }

    fn thread_worker(&self, next: &AtomicUsize) {
        let (runner, pending) = (self.runner, &self.pending);
        // Per-thread reusable executor (sequential arena or lockstep batch),
        // built lazily on the first claimed chunk: one instance build per
        // worker per campaign, zero steady-state allocation per trial.
        let mut exec: Option<TrialExecutor> = None;
        let mut group_records = Vec::with_capacity(runner.batch_width);
        loop {
            // Graceful preemption: stop claiming work once the token trips.
            // Unclaimed and unstarted trials simply stay pending; every
            // committed trial is already durable.
            if runner.cancel.cancelled().is_some() {
                return;
            }
            let start = next.fetch_add(SITE_CHUNK, Ordering::SeqCst);
            let end = pending.len().min(start.saturating_add(SITE_CHUNK));
            if start >= end {
                return;
            }
            let exec = exec.get_or_insert_with(|| {
                let sampler = self.sampler.as_ref().expect("pending trials imply a sampler");
                TrialExecutor::new(
                    self.workload,
                    self.cfg,
                    self.golden,
                    sampler,
                    runner.batch_width,
                )
            });
            // A group (one trial, or one lockstep batch) is the trial
            // boundary: a group in flight finishes and commits whole, in
            // trial order and with one journal write, before the token is
            // honored.
            for group in pending[start..end].chunks(exec.width()) {
                if runner.cancel.cancelled().is_some() {
                    return;
                }
                let Ok(()) = exec.run_group(group, |record, elapsed_us| {
                    group_records.push((record, elapsed_us));
                    Ok::<(), std::convert::Infallible>(())
                });
                self.commit(group_records.drain(..), true);
            }
        }
    }

    /// Heartbeat monitor loop: print a progress line to stderr every
    /// `interval` until all workers have retired (`active_workers` reaches
    /// zero). Trials restored from the checkpoint count as done from the
    /// start.
    fn monitor(
        &self,
        interval: Duration,
        label: &str,
        live: &dyn Fn() -> usize,
        extra: &dyn Fn() -> String,
    ) {
        let total = self.cfg.injections;
        let start = Instant::now();
        let mut last_beat = Instant::now();
        loop {
            std::thread::sleep(Duration::from_millis(25));
            if self.active_workers.load(Ordering::SeqCst) == 0 {
                return;
            }
            if last_beat.elapsed() < interval {
                continue;
            }
            last_beat = Instant::now();
            let new = self.completed.load(Ordering::SeqCst);
            let done = self.resumed + new;
            let secs = start.elapsed().as_secs_f64();
            // Before any completion (or on a degenerate clock) there is no
            // rate to report: print `--` rather than 0.0/inf/NaN noise.
            let (rate, eta) = if new == 0 || secs <= f64::EPSILON {
                ("--".to_string(), "--".to_string())
            } else {
                let r = new as f64 / secs;
                let eta = if total >= done {
                    format!("{:.0}s", (total - done) as f64 / r)
                } else {
                    "?".to_string()
                };
                (format!("{r:.1}"), eta)
            };
            let kinds: Vec<String> = OutcomeKind::ALL
                .iter()
                .map(|k| {
                    format!(
                        "{} {}",
                        k.as_str(),
                        self.kind_counts[k.index()].load(Ordering::Relaxed)
                    )
                })
                .collect();
            let draining = match self.runner.cancel.cancelled() {
                Some(reason) => format!(", draining ({reason})"),
                None => String::new(),
            };
            // Degraded durability is reported on every beat, not buried in
            // a one-time warning that scrolled away hours ago.
            let failures = self.snapshot_failures.load(Ordering::SeqCst);
            let durability = if self.checkpointing_disabled.load(Ordering::SeqCst) {
                format!(", snapshot failures {failures} (checkpointing disabled)")
            } else if failures > 0 {
                format!(", snapshot failures {failures}")
            } else {
                String::new()
            };
            eprintln!(
                "heartbeat[{label}]: {done}/{total} trials, {rate} trials/s, eta {eta}, workers {}, {}{draining}{}{durability}",
                live(),
                kinds.join(" "),
                extra()
            );
        }
    }

    /// Close the campaign. The final checkpoint and the poison sidecar
    /// (earlier runs' poison plus `new_poison`, this run's) are written
    /// even when an executor hit a `fatal` error, so the evidence survives
    /// for the resume that follows the fix; then the error is returned.
    /// Otherwise repro bundles are emitted and the report is built.
    pub(crate) fn finish(
        self,
        mut new_poison: Vec<PoisonEntry>,
        fatal: Option<SupervisorError>,
    ) -> Result<CampaignReport, InjectError> {
        let (workload, cfg, runner, fingerprint) =
            (self.workload, self.cfg, self.runner, self.fingerprint);
        let snapshot_failures = self.snapshot_failures.into_inner() as u64;
        let slots = self.slots.into_inner().expect("slots lock");
        if let Some(path) = &runner.checkpoint {
            let doc = document(&slots.texts, workload.name, fingerprint, cfg.mode_bits);
            final_save(path, &doc, snapshot_failures)?;
        }
        let records: Vec<SingleBitRecord> = slots.records.into_iter().flatten().collect();
        let newly_poisoned = new_poison.len();
        let mut poisoned = self.prior_poison;
        poisoned.append(&mut new_poison);
        poisoned.sort_by_key(|e| e.trial);
        if let Some(path) = self.poison_path.filter(|_| !poisoned.is_empty()) {
            save_poison(&path, workload.name, fingerprint, &poisoned)?;
        }
        if let Some(e) = fatal {
            return Err(e.into());
        }

        // Emit repro bundles for every visible error, in trial order. Records
        // are thread-count- and resume-invariant and an interrupted run's
        // records are a prefix of the full trial sequence, so the bundle set
        // a completed campaign ends up with is a pure function of its config.
        let mut bundles = Vec::new();
        if let Some(dir) = &runner.repro_dir {
            let writer = crate::bundle::BundleWriter {
                dir,
                workload: workload.name,
                cfg,
                fingerprint,
                golden_digest: mbavf_core::rng::fnv1a(&self.golden.output),
                cap: runner.repro_cap,
            };
            bundles = writer.write(&records, &|r| r.outcome.is_error())?;
            // Poisoned trials get repro bundles too: the whole point of the
            // quarantine is that someone replays them later, in isolation.
            let poison_records: Vec<SingleBitRecord> = poisoned
                .iter()
                .map(|e| SingleBitRecord {
                    trial: e.trial,
                    site: e.site,
                    outcome: Outcome::Crash { reason: format!("poison: {}", e.reason) },
                    read_before_overwrite: false,
                })
                .collect();
            bundles.extend(writer.write(&poison_records, &|_| true)?);
        }

        let newly_run = self.completed.into_inner();
        let complete = newly_run + newly_poisoned == self.missing;
        let trial_latency =
            LatencyStats::from_micros(self.latencies_us.into_inner().expect("latency lock"));
        Ok(CampaignReport {
            summary: CampaignSummary {
                workload: workload.name,
                records,
                snapshot_failures,
                // Audit counters belong to the lease fleet, which fills them
                // in; thread-run trials have nothing to audit.
                audited: 0,
                audit_divergences: 0,
                merge_conflicts: 0,
                quarantined_endpoints: Vec::new(),
            },
            resumed: self.resumed,
            newly_run,
            complete,
            // An incomplete run with no tripped token can only be the armed
            // trial budget: the work list was truncated before any worker
            // spawned, so there is no reason atomic to consult.
            interrupted: (!complete).then(|| {
                runner.cancel.cancelled().unwrap_or(crate::cancel::CancelReason::TrialBudget)
            }),
            bundles,
            poisoned,
            trial_latency,
        })
    }
}

/// A session's committed state: one slot per trial in the budget, and
/// beside each committed record its serialized JSON
/// ([`checkpoint::write_record`]), rendered once — the payload of its
/// journal frame and its entry in every snapshot, which is assembled from
/// these texts ([`document`]). `texts` is empty when the campaign is not
/// checkpointing; otherwise a text is empty exactly when its slot is.
struct Slots {
    records: Vec<Option<SingleBitRecord>>,
    texts: Vec<String>,
}

/// One record's serialized JSON, as a journal frame and a snapshot carry it.
fn record_text(record: &SingleBitRecord) -> String {
    let mut out = String::with_capacity(112);
    checkpoint::write_record(&mut out, record);
    out
}

/// The checkpoint document over the committed records' `texts` (trial
/// order, empty = no record): byte-identical to [`checkpoint::render`]
/// over the records themselves.
fn document(texts: &[String], workload: &str, fingerprint: u64, mode_bits: u8) -> String {
    let committed = texts.iter().filter(|t| !t.is_empty()).map(String::as_str);
    checkpoint::render_texts(workload, fingerprint, mode_bits, committed)
}

/// Whether raising the completed count from `before` to `after` crosses a
/// multiple of the checkpoint cadence `every` — the snapshot trigger. A
/// group commit can step over the multiple itself, so this is a crossing,
/// not an equality.
fn crosses_cadence(before: usize, after: usize, every: usize) -> bool {
    before / every != after / every
}

/// An RAII guard retiring one pre-registered worker slot on drop, so
/// [`Session::monitor`] observes a non-zero count from before the first
/// worker starts until after the last exits — even one that panics.
struct WorkerGuard<'s, 'a>(&'s Session<'a>);

impl Drop for WorkerGuard<'_, '_> {
    fn drop(&mut self) {
        self.0.active_workers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Load the checkpoint at `path`, quarantining corruption: a file that
/// fails to *parse* (truncated mid-write by a crash, damaged on disk) is
/// renamed to `<path>.corrupt` with a warning and the campaign restarts
/// from zero, instead of wedging every future resume of the run. Version
/// and config mismatches still error — those are real incompatibilities,
/// not damage.
fn load_or_quarantine(
    path: &std::path::Path,
) -> Result<Option<checkpoint::Checkpoint>, CheckpointError> {
    match checkpoint::load(path) {
        Ok(ck) => Ok(Some(ck)),
        Err(CheckpointError::Malformed { detail }) => {
            match quarantine_corrupt(path) {
                Some(quarantine) => eprintln!(
                    "warning: corrupt checkpoint at {} ({detail}); moved to {} and restarting campaign",
                    path.display(),
                    quarantine.display()
                ),
                // Quarantine failing (permissions, a vanished parent dir) is
                // a warning, not an abort: the campaign restarts from zero
                // and its next snapshot overwrites the corrupt file anyway.
                None => eprintln!(
                    "warning: corrupt checkpoint at {} ({detail}); quarantine failed, restarting campaign over it",
                    path.display()
                ),
            }
            Ok(None)
        }
        Err(e) => Err(e),
    }
}

/// Everything [`restore_durable`] recovered: the slot vector with both the
/// snapshot's and the journal's surviving records merged in, each
/// recovered record's text (see [`Slots`]), the live journal writer for
/// the rest of the run (or `None` when degraded), and how many
/// durable-write failures recovery itself already hit.
struct DurableState {
    slots: Vec<Option<SingleBitRecord>>,
    texts: Vec<String>,
    resumed: usize,
    journal: Option<wal::WalWriter>,
    snapshot_failures: usize,
}

/// Full durable-state recovery into a slot vector of `budget` entries:
/// restore the snapshot (validating its config fingerprint), replay the
/// write-ahead journal's surviving frames through the idempotent
/// trial-index merge, compact any journal-only records back into the
/// snapshot, and open a fresh journal for the run ahead.
///
/// Degradation, not death: if the compaction or the journal open fails, the
/// old journal is left untouched on disk (it is still the only durable copy
/// of its records) and the campaign proceeds with journaling disabled.
///
/// # Errors
///
/// Checkpoint load errors (corruption is quarantined, not an error);
/// [`CheckpointError::ConfigMismatch`] for a snapshot of another campaign;
/// [`CheckpointError::TrialOutOfRange`] for a snapshot or journaled trial
/// outside the budget; [`CheckpointError::Malformed`]
/// when a journal frame *conflicts* with the snapshot — same trial, different
/// record — which a deterministic campaign can only produce from mixed-up
/// artifacts.
fn restore_durable(
    runner: &RunnerConfig,
    workload: &str,
    fingerprint: u64,
    mode_bits: u8,
    budget: usize,
) -> Result<DurableState, InjectError> {
    let mut slots: Vec<Option<SingleBitRecord>> = vec![None; budget];
    let mut resumed = 0usize;
    let Some(path) = &runner.checkpoint else {
        let texts = Vec::new();
        return Ok(DurableState { slots, texts, resumed, journal: None, snapshot_failures: 0 });
    };
    if let Some(ck) = if path.exists() { load_or_quarantine(path)? } else { None } {
        if ck.config_hash != fingerprint {
            let found = ck.config_hash;
            return Err(CheckpointError::ConfigMismatch { expected: fingerprint, found }.into());
        }
        for rec in ck.records {
            let trial = rec.trial;
            let slot = slots
                .get_mut(trial as usize)
                .ok_or(CheckpointError::TrialOutOfRange { trial, budget: budget as u64 })?;
            resumed += usize::from(slot.is_none());
            *slot = Some(rec);
        }
    }
    let mut failures = 0usize;

    let recovery = wal::recover(path, workload, fingerprint)?;
    let mut journaled = 0usize;
    for rec in recovery.records {
        let trial = rec.trial;
        match merge_slot(&mut slots, rec, true) {
            MergeVerdict::Fresh => {
                resumed += 1;
                journaled += 1;
            }
            // A crash between snapshot compaction and journal reset leaves
            // the compacted frames in the journal; they replay as no-ops.
            MergeVerdict::Duplicate => {}
            MergeVerdict::Conflict { detail } => {
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "journal record for trial {trial} conflicts with the checkpoint \
                         ({detail}); artifacts are from different campaigns"
                    ),
                }
                .into())
            }
            MergeVerdict::Foreign { trial } => {
                return Err(CheckpointError::TrialOutOfRange { trial, budget: budget as u64 }.into())
            }
        }
    }

    // Every recovered record is serialized here, once, for the run.
    let texts: Vec<String> =
        slots.iter().map(|slot| slot.as_ref().map(record_text).unwrap_or_default()).collect();
    if journaled > 0 {
        // Fold the journal-only records into the snapshot now, so the
        // journal can be reset without any record existing only in memory.
        let doc = document(&texts, workload, fingerprint, mode_bits);
        if let Err(e) = checkpoint::save_document(path, &doc) {
            failures += 1;
            eprintln!(
                "warning: could not compact {journaled} journaled trial(s) into {} ({e}); \
                 keeping the journal on disk and running with periodic snapshots only",
                path.display()
            );
            let snapshot_failures = failures;
            return Ok(DurableState { slots, texts, resumed, journal: None, snapshot_failures });
        }
        eprintln!(
            "note: recovered {journaled} trial(s) from the write-ahead journal at {}",
            wal::wal_path(path).display()
        );
    }

    let journal = match wal::WalWriter::create(path, workload, fingerprint, mode_bits) {
        Ok(writer) => Some(writer),
        Err(e) => {
            failures += 1;
            eprintln!(
                "warning: could not open the trial journal at {} ({e}); running with \
                 periodic snapshots only",
                wal::wal_path(path).display()
            );
            None
        }
    };
    Ok(DurableState { slots, texts, resumed, journal, snapshot_failures: failures })
}

/// Write the final checkpoint document `doc` and, on success, remove the
/// trial journal — a finished campaign leaves exactly one durable artifact.
/// This is the one durable write that cannot be degraded away: its failure
/// is the typed [`CheckpointError::FinalSaveFailed`], carrying the run's
/// accumulated failure count, and the campaign exits nonzero rather than
/// pretending completed trials are safe.
fn final_save(
    path: &std::path::Path,
    doc: &str,
    snapshot_failures: u64,
) -> Result<(), CheckpointError> {
    match checkpoint::save_document(path, doc) {
        Ok(()) => {
            let _ = std::fs::remove_file(wal::wal_path(path));
            Ok(())
        }
        Err(CheckpointError::Io { path, detail }) => {
            Err(CheckpointError::FinalSaveFailed { path, detail, snapshot_failures })
        }
        Err(e) => Err(e),
    }
}

/// Run (or resume) a single-bit campaign under the given execution config.
///
/// Trials are crash-isolated: a fault that panics the interpreter is
/// recorded as [`Outcome::Crash`] and the campaign continues. The summary
/// is bit-identical for any `threads` setting and for any interrupt/resume
/// schedule of the same campaign.
///
/// # Errors
///
/// [`InjectError::GoldenRunFailed`] if the fault-free reference run fails;
/// [`InjectError::Checkpoint`] if a configured checkpoint cannot be loaded,
/// does not match this campaign, or cannot be written;
/// [`InjectError::BadConfig`] for inconsistent runner settings.
pub fn run_campaign(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
) -> Result<CampaignReport, InjectError> {
    let golden = golden_shape(workload, cfg)?;
    run_campaign_with(workload, cfg, runner, &golden)
}

/// Trials claimed per atomic increment. Chunking changes only which worker
/// runs which trial — records land in per-trial slots, so summaries stay
/// bit-identical at any chunk size or thread count.
const SITE_CHUNK: usize = 32;

/// [`run_campaign`] against an already-computed golden shape, so callers
/// scheduling several budgets over the same campaign config (adaptive
/// sizing) pay for the double golden integrity run once, not per stage.
pub(crate) fn run_campaign_with(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    golden: &GoldenShape,
) -> Result<CampaignReport, InjectError> {
    let session = Session::open(workload, cfg, runner, golden, None)?;
    session.run_threads();
    session.finish(Vec::new(), None)
}

/// How an adaptive campaign decides it has run enough trials.
///
/// The campaign grows its budget in deterministic stages — `batch`,
/// `2×batch`, `4×batch`, … capped at `max_injections` — and after each
/// *complete* stage evaluates the Wilson interval of the SDC rate. It stops
/// as soon as the interval's halfwidth is at most `target_halfwidth`.
///
/// Because stage boundaries are a pure function of `(batch,
/// max_injections)` and each stage's records are thread-count-invariant,
/// the final trial count — and every record in it — is bit-identical across
/// thread counts and across interrupt/resume schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Stop when the SDC interval halfwidth is at most this.
    pub target_halfwidth: f64,
    /// Confidence level of the interval being tightened (e.g. 0.95).
    pub confidence: f64,
    /// First-stage trial budget; later stages double it.
    pub batch: usize,
    /// Hard trial cap: the campaign never exceeds this many injections,
    /// even if the target was not reached.
    pub max_injections: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self { target_halfwidth: 0.05, confidence: 0.95, batch: 100, max_injections: 5000 }
    }
}

impl AdaptiveConfig {
    /// The deterministic stage-budget sequence: `batch`, `2×batch`, …,
    /// ending exactly at `max_injections`.
    pub fn stage_budgets(&self) -> Vec<usize> {
        let mut budgets = Vec::new();
        let mut b = self.batch.min(self.max_injections).max(1);
        loop {
            budgets.push(b);
            if b >= self.max_injections {
                return budgets;
            }
            b = b.saturating_mul(2).min(self.max_injections);
        }
    }
}

/// What [`run_adaptive`] accomplished.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveReport {
    /// The final stage's campaign report (all completed trials).
    pub report: CampaignReport,
    /// SDC rate with its interval at the adaptive confidence level,
    /// evaluated over the final records.
    pub sdc: mbavf_core::stats::RateEstimate,
    /// Whether the halfwidth target was reached (as opposed to hitting the
    /// trial cap, or being cancelled through the runner's token).
    pub target_met: bool,
    /// Stage budgets actually evaluated, in order.
    pub stages: Vec<usize>,
}

/// Run a campaign adaptively: keep scheduling trial batches until the SDC
/// rate's confidence interval is tighter than
/// [`AdaptiveConfig::target_halfwidth`] or the budget reaches
/// [`AdaptiveConfig::max_injections`].
///
/// `cfg.injections` is ignored — the adaptive schedule owns the budget.
/// Checkpointing works exactly as in [`run_campaign`] (the config
/// fingerprint excludes the budget, so every stage extends the same
/// checkpoint), and an interrupted adaptive run resumes into the identical
/// stage sequence: the result is bit-identical across thread counts and
/// interruption schedules.
///
/// # Errors
///
/// Everything [`run_campaign`] can raise, plus [`InjectError::BadConfig`]
/// for a non-positive target, a confidence outside `(0, 1)`, a zero batch,
/// or a zero trial cap.
pub fn run_adaptive(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    adaptive: &AdaptiveConfig,
) -> Result<AdaptiveReport, InjectError> {
    if adaptive.target_halfwidth.is_nan() || adaptive.target_halfwidth <= 0.0 {
        return Err(InjectError::BadConfig {
            detail: format!("target halfwidth must be positive, got {}", adaptive.target_halfwidth),
        });
    }
    if adaptive.confidence.is_nan() || adaptive.confidence <= 0.0 || adaptive.confidence >= 1.0 {
        return Err(InjectError::BadConfig {
            detail: format!("confidence must be in (0, 1), got {}", adaptive.confidence),
        });
    }
    if adaptive.batch == 0 || adaptive.max_injections == 0 {
        return Err(InjectError::BadConfig {
            detail: "adaptive batch and max_injections must be at least 1".into(),
        });
    }

    // The golden shape depends on (workload, scale, hang_factor) but not on
    // the budget, so one double-run integrity check covers every stage.
    let golden = golden_shape(workload, cfg)?;

    // Resuming: skip straight to the first stage whose budget covers every
    // trial already durable — the snapshot and the journal, recovered the
    // way a session recovers them — so a journal that ran past the last
    // snapshot never trips the budget bound. Skipped stages were already
    // evaluated as "not tight enough" by the run that recorded past them.
    let budgets = adaptive.stage_budgets();
    let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);
    let last_durable = restore_durable(
        runner,
        workload.name,
        fingerprint,
        cfg.mode_bits,
        adaptive.max_injections,
    )?
    .slots
    .iter()
    .rposition(Option::is_some);
    let start_stage = match last_durable {
        Some(last) => budgets.iter().position(|&b| b > last).unwrap_or(budgets.len() - 1),
        None => 0,
    };

    let mut stages = Vec::new();
    for (i, &budget) in budgets.iter().enumerate().skip(start_stage) {
        let stage_cfg = CampaignConfig { injections: budget, ..*cfg };
        let report = run_campaign_with(workload, &stage_cfg, runner, &golden)?;
        stages.push(budget);
        let sdc = report.summary.stats(adaptive.confidence).sdc;
        if !report.complete {
            // Cancellation interrupted the stage; report partial state. The
            // checkpoint (if any) lets a later call resume this exact stage.
            return Ok(AdaptiveReport { report, sdc, target_met: false, stages });
        }
        let target_met = sdc.halfwidth() <= adaptive.target_halfwidth;
        if target_met || i + 1 == budgets.len() {
            return Ok(AdaptiveReport { report, sdc, target_met, stages });
        }
    }
    unreachable!("stage_budgets is never empty");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::OutcomeKind;
    use crate::campaign::{per_trial_latency_us, FaultSite};
    use mbavf_workloads::by_name;

    fn cfg(n: usize) -> CampaignConfig {
        CampaignConfig { seed: 0xD15EA5E, injections: n, ..CampaignConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-runner-{tag}"));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn serial_and_parallel_summaries_are_bit_identical() {
        let w = by_name("prefix_sum").expect("registered");
        let cfg = cfg(24);
        let serial = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        for threads in [2, 8] {
            let par = run_campaign(&w, &cfg, &RunnerConfig { threads, ..RunnerConfig::default() })
                .unwrap();
            assert_eq!(par.summary, serial.summary, "threads={threads}");
        }
        assert!(serial.complete);
        assert_eq!(serial.newly_run, 24);
        assert_eq!(serial.resumed, 0);
    }

    /// Regression test for the commit/snapshot race: a worker whose journal
    /// frame landed but whose slot insert had not yet been observed by a
    /// concurrent snapshot would get its frame truncated by the journal
    /// reset while absent from the snapshot — durable nowhere. With commits
    /// and the snapshot's collect→save→reset window serialized on the
    /// journal lock, the on-disk union (checkpoint + journal) must contain
    /// every committed record at every instant; we check the end state
    /// through the real recovery path.
    #[test]
    fn concurrent_commits_and_snapshots_never_lose_a_committed_record() {
        const TRIALS: usize = 240;
        const WORKERS: usize = 4;
        let dir = tmpdir("snapshot-race");
        let path = dir.join("race.ckpt.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal::wal_path(&path)).ok();

        let w = by_name("dct").expect("registered");
        let cfg = cfg(TRIALS);
        let golden = golden_shape(&w, &cfg).unwrap();
        // A tight cadence from every worker maximizes snapshot/commit
        // interleavings.
        let runner = RunnerConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every: 8,
            ..RunnerConfig::default()
        };
        let session = Session::open(&w, &cfg, &runner, &golden, None).unwrap();

        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let session = &session;
                scope.spawn(move || {
                    for trial in (worker..TRIALS).step_by(WORKERS) {
                        let record = SingleBitRecord {
                            trial: trial as u64,
                            site: FaultSite {
                                wg: trial as u32,
                                after_retired: trial as u64 * 3,
                                reg: 1,
                                lane: 2,
                                bit: 3,
                            },
                            outcome: Outcome::Sdc,
                            read_before_overwrite: false,
                        };
                        session.commit([(record, 1)], true);
                    }
                });
            }
        });
        assert_eq!(session.snapshot_failures.load(Ordering::SeqCst), 0);

        // "Crash" here: resume from disk alone and demand every record back.
        let durable =
            restore_durable(&runner, w.name, session.fingerprint, cfg.mode_bits, TRIALS).unwrap();
        assert_eq!(durable.slots.iter().flatten().count(), TRIALS);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cadence_snapshots_when_the_count_crosses_a_multiple() {
        // One-record commits: exactly at each multiple.
        assert!(!crosses_cadence(62, 63, 64));
        assert!(crosses_cadence(63, 64, 64));
        assert!(!crosses_cadence(64, 65, 64));
        // Group commits straddling, ending on, and starting on a multiple.
        assert!(crosses_cadence(60, 68, 64));
        assert!(crosses_cadence(56, 64, 64));
        assert!(!crosses_cadence(64, 72, 64));
        // A group crossing several multiples snapshots once; an empty
        // commit never does.
        assert!(crosses_cadence(2, 10, 3));
        assert!(!crosses_cadence(3, 3, 1));
        assert!(crosses_cadence(3, 4, 1));
    }

    /// A synthetic record whose crash reasons exercise JSON escaping.
    fn synthetic(trial: u64, rng: &mut mbavf_core::rng::SplitMix64) -> SingleBitRecord {
        const REASONS: [&str; 3] =
            ["index \"out\" of bounds\n\tat mem.rs", "back\\slash \u{1} ctl", "unicode é ∑ 🦀"];
        let outcome = match rng.below(5) {
            0 => Outcome::Masked,
            1 => Outcome::Sdc,
            2 => Outcome::Hang,
            k => Outcome::Crash { reason: format!("{} #{trial}", REASONS[(k as usize + 1) % 3]) },
        };
        SingleBitRecord {
            trial,
            site: FaultSite {
                wg: rng.below(4) as u32,
                after_retired: rng.below(1 << 40),
                reg: rng.below(256) as u8,
                lane: rng.below(64) as u8,
                bit: rng.below(32) as u8,
            },
            outcome,
            read_before_overwrite: rng.below(2) == 1,
        }
    }

    /// Snapshots are assembled from each record's kept journal-frame text.
    /// After out-of-order group commits, a simulated crash and a resume
    /// (whose recovered records get their texts at open), every snapshot
    /// and the final checkpoint must equal `checkpoint::render` over the
    /// same records, byte for byte.
    #[test]
    fn assembled_snapshots_equal_render_across_out_of_order_commits_and_resume() {
        const TRIALS: usize = 96;
        let dir = tmpdir("assembled");
        let path = dir.join("assembled.ckpt.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal::wal_path(&path)).ok();
        let w = by_name("dct").expect("registered");
        let cfg = cfg(TRIALS);
        let golden = golden_shape(&w, &cfg).unwrap();
        // The cadence never fires: snapshots are taken by hand below.
        let runner = RunnerConfig {
            checkpoint: Some(path.clone()),
            checkpoint_every: 10_000,
            ..RunnerConfig::default()
        };
        let mut rng = mbavf_core::rng::SplitMix64::new(0xA55E_3B1E);
        let all: Vec<SingleBitRecord> =
            (0..TRIALS as u64).map(|t| synthetic(t, &mut rng)).collect();
        let mut order: Vec<usize> = (0..TRIALS).collect();
        for i in (1..TRIALS).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let rendered = |committed: &[usize]| {
            let mut trials = committed.to_vec();
            trials.sort_unstable();
            let records: Vec<SingleBitRecord> = trials.iter().map(|&t| all[t].clone()).collect();
            let fingerprint = checkpoint::config_fingerprint(w.name, &cfg);
            checkpoint::render(w.name, fingerprint, cfg.mode_bits, &records)
        };
        let commit_groups =
            |session: &Session, trials: &[usize], rng: &mut mbavf_core::rng::SplitMix64| {
                let mut rest = trials;
                while !rest.is_empty() {
                    let (group, tail) = rest.split_at(rest.len().min(1 + rng.below(8) as usize));
                    let verdicts = session.commit(group.iter().map(|&t| (all[t].clone(), 1)), true);
                    assert!(verdicts.iter().all(|v| *v == MergeVerdict::Fresh));
                    rest = tail;
                }
            };

        let session = Session::open(&w, &cfg, &runner, &golden, None).unwrap();
        commit_groups(&session, &order[..40], &mut rng);
        session.snapshot(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&order[..40]));
        // Committed after the snapshot: journaled only, then "crash".
        commit_groups(&session, &order[40..60], &mut rng);
        drop(session);

        let session = Session::open(&w, &cfg, &runner, &golden, None).unwrap();
        assert_eq!(session.resumed, 60);
        // Recovery folded the journal into the snapshot through the texts.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&order[..60]));
        commit_groups(&session, &order[60..80], &mut rng);
        session.snapshot(&path);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&order[..80]));
        commit_groups(&session, &order[80..], &mut rng);
        session.finish(Vec::new(), None).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), rendered(&order));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_then_resumed_matches_uninterrupted() {
        let w = by_name("scan_large").expect("registered");
        let cfg = cfg(18);
        let dir = tmpdir("resume");
        let path = dir.join("scan.ckpt.json");
        std::fs::remove_file(&path).ok();

        let uninterrupted = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

        // "Kill" the campaign after 7 trials, then resume twice.
        let stop = RunnerConfig {
            threads: 2,
            checkpoint: Some(path.clone()),
            checkpoint_every: 3,
            cancel: crate::cancel::CancelToken::limited(7),
            ..RunnerConfig::default()
        };
        let first = run_campaign(&w, &cfg, &stop).unwrap();
        assert!(!first.complete);
        assert_eq!(first.interrupted, Some(crate::cancel::CancelReason::TrialBudget));
        assert_eq!(first.newly_run, 7);

        let second = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { cancel: crate::cancel::CancelToken::limited(7), ..stop.clone() },
        )
        .unwrap();
        assert!(!second.complete);
        assert_eq!(second.resumed, 7);
        assert_eq!(second.newly_run, 7);

        let finish = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(finish.complete);
        assert_eq!(finish.resumed, 14);
        assert_eq!(finish.newly_run, 4);
        assert_eq!(finish.summary, uninterrupted.summary);

        // Running again is a no-op resume: everything restored, nothing run.
        let again = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(again.complete);
        assert_eq!(again.newly_run, 0);
        assert_eq!(again.summary, uninterrupted.summary);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tripped_token_stops_before_any_trial_and_names_the_reason() {
        let w = by_name("scan_large").expect("registered");
        let cfg = cfg(12);

        let signalled = RunnerConfig { threads: 2, ..RunnerConfig::default() };
        signalled.cancel.cancel(crate::cancel::CancelReason::Signal);
        let report = run_campaign(&w, &cfg, &signalled).unwrap();
        assert_eq!(report.newly_run, 0);
        assert!(!report.complete);
        assert_eq!(report.interrupted, Some(crate::cancel::CancelReason::Signal));

        // An already-expired wall-clock budget behaves identically (the
        // token trips lazily on the first poll), with its own reason. The
        // batched path honors the token at its group boundary too.
        let walled = RunnerConfig { threads: 2, batch_width: 4, ..RunnerConfig::default() };
        walled.cancel.set_max_wall(Duration::ZERO);
        let report = run_campaign(&w, &cfg, &walled).unwrap();
        assert_eq!(report.newly_run, 0);
        assert!(!report.complete);
        assert_eq!(report.interrupted, Some(crate::cancel::CancelReason::WallClock));
    }

    #[test]
    fn resume_refuses_a_different_campaign() {
        let w = by_name("transpose").expect("registered");
        let dir = tmpdir("mismatch");
        let path = dir.join("ck.json");
        std::fs::remove_file(&path).ok();
        let a = cfg(6);
        run_campaign(
            &w,
            &a,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap();

        let b = CampaignConfig { seed: a.seed + 1, ..a };
        let err = run_campaign(
            &w,
            &b,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap_err();
        assert!(matches!(err, InjectError::Checkpoint(CheckpointError::ConfigMismatch { .. })));

        // A shrunken budget makes recorded trials out of range.
        let small = CampaignConfig { injections: 3, ..a };
        std::fs::write(
            &path,
            checkpoint::render(
                w.name,
                checkpoint::config_fingerprint(w.name, &small),
                small.mode_bits,
                &run_campaign(&w, &a, &RunnerConfig::serial()).unwrap().summary.records,
            ),
        )
        .unwrap();
        let err = run_campaign(
            &w,
            &small,
            &RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() },
        )
        .unwrap_err();
        assert!(matches!(err, InjectError::Checkpoint(CheckpointError::TrialOutOfRange { .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crash_outcomes_are_recorded_not_fatal() {
        // With OOB wrapping off, corrupted address registers fault the
        // interpreter; the runner must record those panics as Crash data
        // while the campaign (and the test harness) survives.
        let w = by_name("histogram").expect("registered");
        let cfg = CampaignConfig {
            seed: 0xC0FFEE,
            injections: 120,
            wrap_oob: false,
            ..CampaignConfig::default()
        };
        let report =
            run_campaign(&w, &cfg, &RunnerConfig { threads: 4, ..RunnerConfig::default() })
                .unwrap();
        assert!(report.complete);
        let crashes = report.summary.count(OutcomeKind::Crash);
        assert!(crashes > 0, "expected some wild accesses to crash");
        for r in &report.summary.records {
            if let crate::campaign::Outcome::Crash { reason } = &r.outcome {
                assert!(!reason.is_empty());
            }
        }
        // Crash fraction participates in the taxonomy.
        let f = report.summary.fractions();
        assert!((f.masked + f.sdc + f.hang + f.crash - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_percentiles_have_nearest_rank_semantics_at_tiny_n() {
        // n = 1: every percentile is the one sample.
        let s = LatencyStats::from_micros(vec![42]).unwrap();
        assert_eq!((s.n, s.p50_us, s.p99_us, s.max_us), (1, 42, 42, 42));
        // n = 2: nearest-rank p50 is the *lower* sample (ceil(0.5·2) = 1),
        // p99 and max are the upper.
        let s = LatencyStats::from_micros(vec![20, 10]).unwrap();
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (10, 20, 20));
        // n = 3: p50 is the middle sample (ceil(1.5) = 2), p99 the last.
        let s = LatencyStats::from_micros(vec![30, 10, 20]).unwrap();
        assert_eq!((s.p50_us, s.p99_us, s.max_us), (20, 30, 30));
        // q = 1.0 ranks to the last sample without overflowing the clamp.
        let rank_full = LatencyStats::from_micros(vec![5, 7, 6]).unwrap().max_us;
        assert_eq!(rank_full, 7);
        // Empty sample: no stats, not a panic.
        assert!(LatencyStats::from_micros(Vec::new()).is_none());
    }

    #[test]
    fn per_trial_latency_sums_to_the_batch_span() {
        for (span, n) in [(0u64, 1usize), (7, 1), (7, 3), (8, 8), (100, 7), (3, 8)] {
            let parts: Vec<u64> = (0..n).map(|k| per_trial_latency_us(span, n, k)).collect();
            assert_eq!(parts.iter().sum::<u64>(), span, "span={span} n={n}");
            // Fair split: no trial differs from another by more than 1µs,
            // so percentiles over batched trials cannot spike by ~W.
            let (min, max) = (parts.iter().min().unwrap(), parts.iter().max().unwrap());
            assert!(max - min <= 1, "span={span} n={n}: {parts:?}");
        }
        // Width 1 is the exact sequential accounting.
        assert_eq!(per_trial_latency_us(1234, 1, 0), 1234);
    }

    #[test]
    fn batched_widths_produce_identical_summaries_and_sane_latency() {
        let w = by_name("dct").expect("registered");
        let cfg = cfg(40);
        let base = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        for (threads, width) in [(1, 2), (1, 8), (3, 8), (2, 40)] {
            let batched = run_campaign(
                &w,
                &cfg,
                &RunnerConfig { threads, batch_width: width, ..RunnerConfig::default() },
            )
            .unwrap();
            assert_eq!(batched.summary, base.summary, "threads={threads} width={width}");
            // One latency sample per trial, not per batch.
            assert_eq!(batched.trial_latency.unwrap().n, 40);
        }
    }

    #[test]
    fn zero_batch_width_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let bad = RunnerConfig { batch_width: 0, ..RunnerConfig::default() };
        assert!(matches!(run_campaign(&w, &cfg(2), &bad), Err(InjectError::BadConfig { .. })));
    }

    #[test]
    fn zero_checkpoint_every_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let bad = RunnerConfig {
            checkpoint: Some(std::env::temp_dir().join("unused.json")),
            checkpoint_every: 0,
            ..RunnerConfig::default()
        };
        assert!(matches!(run_campaign(&w, &cfg(2), &bad), Err(InjectError::BadConfig { .. })));
    }
}
