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
//! trials. Every committed trial appends one CRC-framed, fsynced frame to
//! `<checkpoint>.wal` — O(1) durability per trial — and every
//! [`RunnerConfig::checkpoint_every`] completions the snapshot is compacted
//! atomically and the journal reset. A campaign killed at any point loses
//! at most the single in-flight trial, never a committed one.
//!
//! Durable-write failures degrade instead of killing the run: a failed
//! journal append falls back to snapshot-only checkpointing, repeated
//! snapshot failures disable checkpointing entirely (counted and reported
//! as `snapshot_failures`), and only a failing *final* save is a hard,
//! typed error — silently losing a finished campaign is the one thing this
//! layer must never do.

use crate::campaign::{
    campaign_sampler, golden_shape, CampaignConfig, CampaignSummary, GoldenShape, OutcomeKind,
    SingleBitRecord, TrialExecutor,
};
use crate::checkpoint::{self, wal};
use crate::supervisor::merge::{merge_slot, MergeVerdict};
use crate::supervisor::PoisonEntry;
use mbavf_core::error::{CheckpointError, InjectError};
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

/// What [`Shared::commit_remote`] did with an offered record — the merge
/// verdict plus, for fresh commits, the new completion count that drives
/// the checkpoint cadence.
pub(crate) enum RemoteCommit {
    /// First sighting: stored and counted. Carries the new completion count.
    Fresh(usize),
    /// Byte-equal replay of an already-committed record: dropped.
    Duplicate,
    /// Same trial, conflicting contents: a protocol violation.
    Conflict {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// Outside the budget, or not covered by the sender's lease.
    Foreign,
}

/// Shared worker state for one campaign execution. Also reused by the
/// process-isolation supervisor ([`crate::supervisor`]), whose record
/// stream arrives from worker subprocesses instead of in-process threads.
pub(crate) struct Shared {
    /// One slot per trial in the budget; `Some` once completed.
    pub(crate) slots: Mutex<Vec<Option<SingleBitRecord>>>,
    /// Next index into the pending-trials list.
    next: AtomicUsize,
    /// Completions since the run started (drives checkpoint cadence).
    pub(crate) completed: AtomicUsize,
    /// Completions per outcome class (heartbeat reporting).
    pub(crate) kind_counts: [AtomicUsize; 4],
    /// Workers currently executing trials (heartbeat reporting and monitor
    /// shutdown).
    pub(crate) active_workers: AtomicUsize,
    /// Per-trial wall-clock, microseconds, for trials run by this call.
    /// Pre-reserved to the pending count so the hot path never allocates.
    pub(crate) latencies_us: Mutex<Vec<u64>>,
    /// Write-ahead trial journal. `None` when no checkpoint is configured
    /// or after an append failure degraded the run to snapshot-only mode.
    pub(crate) journal: Mutex<Option<wal::WalWriter>>,
    /// Durable-write failures observed so far: failed journal appends and
    /// resets, failed snapshot compactions. Surfaced in the summary and the
    /// heartbeat so degraded durability is never silent.
    pub(crate) snapshot_failures: AtomicUsize,
    /// Set once [`MAX_SNAPSHOT_FAILURES`] durable-write failures accumulate:
    /// the campaign keeps running, but stops attempting periodic snapshots
    /// (only the final save is still tried — and is a hard error if it
    /// fails).
    pub(crate) checkpointing_disabled: AtomicBool,
    /// Serializes snapshot writes: concurrent workers crossing the
    /// checkpoint cadence at once would otherwise race on the shared
    /// temp-file-then-rename, and the loser's rename finds the temp file
    /// already consumed.
    snapshotting: Mutex<()>,
}

/// Durable-write failures tolerated before periodic checkpointing is
/// disabled for the rest of the run. Each failure has already survived
/// bounded retry inside [`crate::durable`], so three strikes means the disk
/// is persistently refusing writes (full, read-only, gone) — keep the
/// science running, report honestly, stop hammering the filesystem.
pub(crate) const MAX_SNAPSHOT_FAILURES: usize = 3;

impl Shared {
    pub(crate) fn new(slots: Vec<Option<SingleBitRecord>>, pending: usize) -> Self {
        Shared {
            slots: Mutex::new(slots),
            next: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            kind_counts: Default::default(),
            active_workers: AtomicUsize::new(0),
            latencies_us: Mutex::new(Vec::with_capacity(pending)),
            journal: Mutex::new(None),
            snapshot_failures: AtomicUsize::new(0),
            checkpointing_disabled: AtomicBool::new(false),
            snapshotting: Mutex::new(()),
        }
    }

    /// Install the durable state recovered by [`restore_durable`]: the live
    /// journal writer (if any) and failures already counted during
    /// recovery.
    pub(crate) fn adopt_durable(&self, journal: Option<wal::WalWriter>, failures: usize) {
        *self.journal.lock().expect("journal lock") = journal;
        self.snapshot_failures.store(failures, Ordering::SeqCst);
        if failures >= MAX_SNAPSHOT_FAILURES {
            self.checkpointing_disabled.store(true, Ordering::SeqCst);
        }
    }

    /// Append one committed trial through an already-held journal guard —
    /// the O(1) durability step. A failed append (already retried with
    /// backoff inside the writer) degrades the run to snapshot-only mode
    /// rather than killing it; the failure is counted and reported.
    fn append_locked(&self, journal: &mut Option<wal::WalWriter>, record: &SingleBitRecord) {
        if let Some(writer) = journal.as_mut() {
            if let Err(e) = writer.append(record) {
                self.snapshot_failures.fetch_add(1, Ordering::SeqCst);
                eprintln!(
                    "warning: trial journal append failed ({e}); journaling disabled, \
                     falling back to periodic snapshots only"
                );
                *journal = None;
            }
        }
    }

    /// Durably commit one locally-run trial: the journal frame first, then
    /// the in-memory slot, *both under the journal lock*. Holding the lock
    /// across the pair is what makes [`Shared::snapshot`] safe — it also
    /// holds the journal lock while it collects slots and resets the
    /// journal, so it can never observe a record's frame without its slot.
    /// Splitting the two (append, release, insert) reopens the race where a
    /// concurrent snapshot collects slots missing the record, saves, and
    /// then resets the journal over the only durable copy of it.
    pub(crate) fn commit_journaled(&self, record: SingleBitRecord, elapsed_us: u64) -> usize {
        let mut journal = self.journal.lock().expect("journal lock");
        self.append_locked(&mut journal, &record);
        self.commit(record, elapsed_us)
    }

    /// Record one completed trial into its slot and the heartbeat counters,
    /// returning the new completion count (drives checkpoint cadence).
    pub(crate) fn commit(&self, record: SingleBitRecord, elapsed_us: u64) -> usize {
        let kind = record.outcome.kind();
        let trial = record.trial as usize;
        {
            let mut slots = self.slots.lock().expect("slots lock");
            slots[trial] = Some(record);
        }
        self.kind_counts[kind.index()].fetch_add(1, Ordering::Relaxed);
        {
            let mut lat = self.latencies_us.lock().expect("latency lock");
            lat.push(elapsed_us);
        }
        self.completed.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Commit one record arriving from a remote (or replayed) stream
    /// through the idempotent merge. `leased` is whether the sending worker
    /// currently holds a lease covering the trial — without it, only
    /// byte-equal replays of already-committed records are tolerated. Only
    /// a [`RemoteCommit::Fresh`] verdict updates the completion counters;
    /// duplicates are dropped without recounting, so a reconnect that
    /// replays frames can never inflate the campaign.
    pub(crate) fn commit_remote(
        &self,
        record: SingleBitRecord,
        elapsed_us: u64,
        leased: bool,
    ) -> RemoteCommit {
        let kind = record.outcome.kind();
        let journal_copy = record.clone();
        // Journal lock before the merge (lock order: journal → slots), held
        // until the accepted record's frame is appended — so a concurrent
        // snapshot, which collects slots and resets the journal under the
        // same lock, sees the slot and the frame move together.
        let mut journal = self.journal.lock().expect("journal lock");
        let verdict = {
            let mut slots = self.slots.lock().expect("slots lock");
            merge_slot(&mut slots, record, leased)
        };
        match verdict {
            MergeVerdict::Fresh => {
                // Journal only what the merge accepted: writing Foreign or
                // out-of-budget records ahead of the merge would poison the
                // journal for every future recovery.
                self.append_locked(&mut journal, &journal_copy);
                self.kind_counts[kind.index()].fetch_add(1, Ordering::Relaxed);
                {
                    let mut lat = self.latencies_us.lock().expect("latency lock");
                    lat.push(elapsed_us);
                }
                RemoteCommit::Fresh(self.completed.fetch_add(1, Ordering::SeqCst) + 1)
            }
            MergeVerdict::Duplicate => RemoteCommit::Duplicate,
            MergeVerdict::Conflict { detail } => RemoteCommit::Conflict { detail },
            MergeVerdict::Foreign { .. } => RemoteCommit::Foreign,
        }
    }

    /// Compact the current slots into the checkpoint snapshot and, on
    /// success, reset the write-ahead journal (whose frames the snapshot
    /// now subsumes). Failures degrade instead of aborting: each one is
    /// counted, and after [`MAX_SNAPSHOT_FAILURES`] periodic checkpointing
    /// is disabled for the rest of the run.
    ///
    /// Lock order: `snapshotting` → `journal` → `slots` (never any
    /// reverse). The journal lock is held for the whole collect→save→reset
    /// window: commits also pair their journal append with the slot insert
    /// under it, so every frame the reset discards is guaranteed to be in
    /// the record set this snapshot just made durable. Collecting the slots
    /// outside that window would let a commit land between collection and
    /// reset — its frame truncated, its record absent from the snapshot —
    /// and would also let two racing snapshotters overwrite a newer
    /// checkpoint with a stale record set before resetting the journal.
    pub(crate) fn snapshot(
        &self,
        workload: &str,
        fingerprint: u64,
        mode_bits: u8,
        path: &std::path::Path,
    ) {
        if self.checkpointing_disabled.load(Ordering::SeqCst) {
            return;
        }
        let _write_guard = self.snapshotting.lock().expect("snapshot lock");
        let mut journal = self.journal.lock().expect("journal lock");
        let records: Vec<SingleBitRecord> = {
            let slots = self.slots.lock().expect("slots lock");
            slots.iter().flatten().cloned().collect()
        };
        match checkpoint::save(path, workload, fingerprint, mode_bits, &records) {
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

    /// Heartbeat monitor loop: print a progress line to stderr every
    /// `interval` until all workers have retired (`active_workers` reaches
    /// zero — the caller pre-registers the worker count *before* spawning,
    /// so the monitor cannot exit during worker startup). `done_offset`
    /// counts trials restored from a checkpoint before this call started;
    /// `label` names the execution mode; `live` reports the current worker
    /// count (threads or subprocesses); `extra` appends mode-specific
    /// detail (e.g. poison counts).
    pub(crate) fn monitor(
        &self,
        interval: Duration,
        done_offset: usize,
        total: usize,
        label: &str,
        live: &dyn Fn() -> usize,
        extra: &dyn Fn() -> String,
    ) {
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
            let done = done_offset + new;
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
                "heartbeat[{label}]: {done}/{total} trials, {rate} trials/s, eta {eta}, workers {}, {}{}{durability}",
                live(),
                kinds.join(" "),
                extra()
            );
        }
    }
}

/// An RAII guard retiring one pre-registered worker slot on drop. The
/// spawning side calls [`Shared::new`]-then-`active_workers.store(n)` before
/// launching workers, and each worker (thread or supervisor-side shard
/// handler) holds one guard — so [`Shared::monitor`] observes a non-zero
/// count from before the first worker starts until after the last exits.
pub(crate) struct WorkerGuard<'a>(&'a Shared);

impl<'a> WorkerGuard<'a> {
    pub(crate) fn retire_on_drop(shared: &'a Shared) -> Self {
        WorkerGuard(shared)
    }
}

impl Drop for WorkerGuard<'_> {
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
pub(crate) fn load_or_quarantine(
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

/// Restore completed trials from `runner.checkpoint` (when set and present)
/// into a fresh slot vector of `budget` entries, validating the config
/// fingerprint. Returns the slots plus how many trials were restored.
/// Shared by the thread-mode runner and the process-isolation supervisor so
/// both resume from the same checkpoint identically.
pub(crate) fn restore_slots(
    runner: &RunnerConfig,
    fingerprint: u64,
    budget: usize,
) -> Result<(Vec<Option<SingleBitRecord>>, usize), InjectError> {
    let mut slots: Vec<Option<SingleBitRecord>> = vec![None; budget];
    let mut resumed = 0usize;
    if let Some(path) = &runner.checkpoint {
        if path.exists() {
            if let Some(ck) = load_or_quarantine(path)? {
                if ck.config_hash != fingerprint {
                    return Err(CheckpointError::ConfigMismatch {
                        expected: fingerprint,
                        found: ck.config_hash,
                    }
                    .into());
                }
                for rec in ck.records {
                    let trial = rec.trial;
                    let slot = slots
                        .get_mut(trial as usize)
                        .ok_or(CheckpointError::TrialOutOfRange { trial, budget: budget as u64 })?;
                    if slot.is_none() {
                        resumed += 1;
                    }
                    *slot = Some(rec);
                }
            }
        }
    }
    Ok((slots, resumed))
}

/// Everything [`restore_durable`] recovered: the slot vector with both the
/// snapshot's and the journal's surviving records merged in, the live
/// journal writer for the rest of the run (or `None` when degraded), and
/// how many durable-write failures recovery itself already hit.
pub(crate) struct DurableState {
    pub(crate) slots: Vec<Option<SingleBitRecord>>,
    pub(crate) resumed: usize,
    pub(crate) journal: Option<wal::WalWriter>,
    pub(crate) snapshot_failures: usize,
}

/// Full durable-state recovery, shared by the thread-mode runner and the
/// process-isolation supervisor: restore the snapshot ([`restore_slots`]),
/// replay the write-ahead journal's surviving frames through the idempotent
/// trial-index merge, compact any journal-only records back into the
/// snapshot, and open a fresh journal for the run ahead.
///
/// Degradation, not death: if the compaction or the journal open fails, the
/// old journal is left untouched on disk (it is still the only durable copy
/// of its records) and the campaign proceeds with journaling disabled.
///
/// # Errors
///
/// Checkpoint errors from [`restore_slots`]; [`CheckpointError::TrialOutOfRange`]
/// for a journaled trial outside the budget; [`CheckpointError::Malformed`]
/// when a journal frame *conflicts* with the snapshot — same trial, different
/// record — which a deterministic campaign can only produce from mixed-up
/// artifacts.
pub(crate) fn restore_durable(
    runner: &RunnerConfig,
    workload: &str,
    fingerprint: u64,
    mode_bits: u8,
    budget: usize,
) -> Result<DurableState, InjectError> {
    let (mut slots, mut resumed) = restore_slots(runner, fingerprint, budget)?;
    let Some(path) = &runner.checkpoint else {
        return Ok(DurableState { slots, resumed, journal: None, snapshot_failures: 0 });
    };
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

    if journaled > 0 {
        // Fold the journal-only records into the snapshot now, so the
        // journal can be reset without any record existing only in memory.
        let records: Vec<SingleBitRecord> = slots.iter().flatten().cloned().collect();
        if let Err(e) = checkpoint::save(path, workload, fingerprint, mode_bits, &records) {
            failures += 1;
            eprintln!(
                "warning: could not compact {journaled} journaled trial(s) into {} ({e}); \
                 keeping the journal on disk and running with periodic snapshots only",
                path.display()
            );
            return Ok(DurableState { slots, resumed, journal: None, snapshot_failures: failures });
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
    Ok(DurableState { slots, resumed, journal, snapshot_failures: failures })
}

/// Write the final checkpoint and, on success, remove the trial journal —
/// a finished campaign leaves exactly one durable artifact. This is the one
/// durable write that cannot be degraded away: its failure is the typed
/// [`CheckpointError::FinalSaveFailed`], carrying the run's accumulated
/// failure count, and the campaign exits nonzero rather than pretending
/// completed trials are safe.
pub(crate) fn final_save(
    path: &std::path::Path,
    workload: &str,
    fingerprint: u64,
    mode_bits: u8,
    records: &[SingleBitRecord],
    snapshot_failures: u64,
) -> Result<(), CheckpointError> {
    match checkpoint::save(path, workload, fingerprint, mode_bits, records) {
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
/// recorded as [`Outcome::Crash`](crate::campaign::Outcome::Crash) and the
/// campaign continues. The summary is bit-identical for any `threads`
/// setting and for any interrupt/resume schedule of the same campaign.
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
    runner.validate()?;

    let sampler = campaign_sampler(workload, cfg, golden)?;
    let fingerprint = checkpoint::config_fingerprint(workload.name, cfg);

    // Restore completed trials from the checkpoint and its write-ahead
    // journal, if they exist.
    let durable =
        restore_durable(runner, workload.name, fingerprint, cfg.mode_bits, cfg.injections)?;
    let (slots, resumed) = (durable.slots, durable.resumed);

    // The work list: every trial not already restored, oldest first, cut to
    // the graceful-stop budget.
    let mut pending: Vec<u64> =
        (0..cfg.injections as u64).filter(|&t| slots[t as usize].is_none()).collect();
    let total_missing = pending.len();
    if let Some(cap) = runner.cancel.trial_budget() {
        pending.truncate(cap);
    }

    let threads = runner.resolved_threads(pending.len());
    let shared = Shared::new(slots, pending.len());
    shared.adopt_durable(durable.journal, durable.snapshot_failures);
    shared.active_workers.store(threads, Ordering::SeqCst);

    std::thread::scope(|scope| {
        if let Some(interval) = runner.heartbeat {
            if !pending.is_empty() {
                let shared = &shared;
                scope.spawn(move || {
                    shared.monitor(
                        interval,
                        resumed,
                        cfg.injections,
                        "thread",
                        &|| shared.active_workers.load(Ordering::SeqCst),
                        &|| match runner.cancel.cancelled() {
                            Some(reason) => format!(", draining ({reason})"),
                            None => String::new(),
                        },
                    );
                });
            }
        }
        for _ in 0..threads {
            scope.spawn(|| {
                let _slot = WorkerGuard::retire_on_drop(&shared);
                // Per-thread reusable executor (sequential arena or lockstep
                // batch), built lazily on the first claimed chunk: one
                // instance build per worker per campaign, zero steady-state
                // allocation per trial.
                let mut exec: Option<TrialExecutor> = None;
                let commit = |record: SingleBitRecord, elapsed_us: u64| {
                    // Write-ahead: the trial reaches the durable journal
                    // before it reaches the in-memory slots (atomically with
                    // respect to snapshot resets), so a crash can lose at
                    // most the single in-flight trial.
                    let done = shared.commit_journaled(record, elapsed_us);
                    if let Some(path) = &runner.checkpoint {
                        if done.is_multiple_of(runner.checkpoint_every) {
                            shared.snapshot(workload.name, fingerprint, cfg.mode_bits, path);
                        }
                    }
                    crate::signals::preempt_drill(done);
                    Ok::<(), std::convert::Infallible>(())
                };
                loop {
                    // Graceful preemption: stop claiming work once the token
                    // trips. Unclaimed and unstarted trials simply stay
                    // pending; every committed trial is already durable.
                    if runner.cancel.cancelled().is_some() {
                        return;
                    }
                    let start = shared.next.fetch_add(SITE_CHUNK, Ordering::SeqCst);
                    let end = pending.len().min(start.saturating_add(SITE_CHUNK));
                    if start >= end {
                        return;
                    }
                    let exec = exec.get_or_insert_with(|| {
                        let sampler = sampler.as_ref().expect("pending trials imply a sampler");
                        TrialExecutor::new(workload, cfg, golden, sampler, runner.batch_width)
                    });
                    // A group (one trial, or one lockstep batch) is the trial
                    // boundary: a group in flight finishes and commits whole,
                    // in trial order, before the token is honored.
                    for group in pending[start..end].chunks(exec.width()) {
                        if runner.cancel.cancelled().is_some() {
                            return;
                        }
                        let Ok(()) = exec.run_group(group, &commit);
                    }
                }
            });
        }
    });

    let snapshot_failures = shared.snapshot_failures.load(Ordering::SeqCst) as u64;
    let slots = shared.slots.into_inner().expect("slots lock");
    let records: Vec<SingleBitRecord> = slots.into_iter().flatten().collect();
    if let Some(path) = &runner.checkpoint {
        final_save(path, workload.name, fingerprint, cfg.mode_bits, &records, snapshot_failures)?;
    }

    // Emit repro bundles for every visible error, in trial order. Records
    // are thread-count- and resume-invariant and an interrupted run's
    // records are a prefix of the full trial sequence, so the bundle set a
    // completed campaign ends up with is a pure function of its config.
    let mut bundles = Vec::new();
    if let Some(dir) = &runner.repro_dir {
        let writer = crate::bundle::BundleWriter {
            dir,
            workload: workload.name,
            cfg,
            fingerprint,
            golden_digest: mbavf_core::rng::fnv1a(&golden.output),
            cap: runner.repro_cap,
        };
        bundles = writer.write(&records, &|r| r.outcome.is_error())?;
    }

    let newly_run = shared.completed.into_inner();
    let complete = newly_run == total_missing;
    let trial_latency =
        LatencyStats::from_micros(shared.latencies_us.into_inner().expect("latency lock"));
    Ok(CampaignReport {
        summary: CampaignSummary {
            workload: workload.name,
            records,
            snapshot_failures,
            // Thread-mode trials run in this very process; there is nothing
            // to audit and no endpoint to distrust.
            audited: 0,
            audit_divergences: 0,
            merge_conflicts: 0,
            quarantined_endpoints: Vec::new(),
        },
        resumed,
        newly_run,
        complete,
        // An incomplete run with no tripped token can only be the armed
        // trial budget: the pending list was truncated before any worker
        // spawned, so there is no reason atomic to consult.
        interrupted: (!complete)
            .then(|| runner.cancel.cancelled().unwrap_or(crate::cancel::CancelReason::TrialBudget)),
        bundles,
        poisoned: Vec::new(),
        trial_latency,
    })
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
    // already-recorded trial, so a checkpoint from a later stage never
    // trips the budget bound. Corrupt files are left for run_campaign's
    // quarantine; skipped stages were already evaluated as "not tight
    // enough" by the run that recorded past them.
    let budgets = adaptive.stage_budgets();
    let mut start_stage = 0usize;
    if let Some(path) = &runner.checkpoint {
        if path.exists() {
            if let Ok(ck) = checkpoint::load(path) {
                if ck.config_hash == checkpoint::config_fingerprint(workload.name, cfg) {
                    if let Some(max_trial) = ck.records.iter().map(|r| r.trial).max() {
                        while start_stage + 1 < budgets.len()
                            && (budgets[start_stage] as u64) <= max_trial
                        {
                            start_stage += 1;
                        }
                    }
                }
            }
        }
    }

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
        use crate::campaign::Outcome;

        const TRIALS: usize = 240;
        const WORKERS: usize = 4;
        let dir = tmpdir("snapshot-race");
        let path = dir.join("race.ckpt.json");
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(wal::wal_path(&path)).ok();

        let shared = Shared::new(vec![None; TRIALS], TRIALS);
        let journal = wal::WalWriter::create(&path, "dct", 0xFEED, 1).unwrap();
        shared.adopt_durable(Some(journal), 0);

        std::thread::scope(|scope| {
            for worker in 0..WORKERS {
                let shared = &shared;
                let path = &path;
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
                        let done = shared.commit_journaled(record, 1);
                        // A tight cadence from every worker maximizes
                        // snapshot/commit interleavings.
                        if done.is_multiple_of(8) {
                            shared.snapshot("dct", 0xFEED, 1, path);
                        }
                    }
                });
            }
        });
        assert_eq!(shared.snapshot_failures.load(Ordering::SeqCst), 0);

        // "Crash" here: resume from disk alone and demand every record back.
        let runner = RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::default() };
        let durable = restore_durable(&runner, "dct", 0xFEED, 1, TRIALS).unwrap();
        assert_eq!(durable.slots.iter().flatten().count(), TRIALS);
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
