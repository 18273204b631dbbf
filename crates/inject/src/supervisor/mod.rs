//! Fault-tolerant supervisor: survive workers that really die — or that
//! live on the far side of a hostile network.
//!
//! The thread-mode engine in [`crate::runner`] crash-isolates *unwinding*
//! panics, but a fault campaign can provoke failures no in-process mechanism
//! survives: `std::process::abort`, stack exhaustion, the OOM killer, or a
//! livelock that outruns the hang guard. This module runs trials in
//! **worker subprocesses** — or in **worker daemons on other machines** —
//! so the supervising campaign outlives all of them.
//!
//! ## Architecture
//!
//! [`run_supervised`] shards the pending trial indices into contiguous
//! blocks whose boundaries depend only on the trial index (`trial /
//! shard_size`), so the shard layout — and therefore every record — is
//! invariant under the worker count. Each supervisor-side handler thread
//! leases shards to one worker over a [`transport::Transport`], which
//! reaches it one of two ways:
//!
//! * **Pipe** ([`TransportKind::Pipe`], the default): the handler spawns
//!   the current executable with a hidden `__worker` argv (hosting binaries
//!   route it to [`worker_main`]) and talks over its stdin/stdout. The
//!   child lives across leases; a revoked lease kills it and the next lease
//!   respawns it.
//! * **TCP** ([`TransportKind::Tcp`]): the handler holds one persistent
//!   connection to a `campaign --listen` worker daemon ([`serve_main`]),
//!   redialed on loss.
//!
//! Both carry the same length-delimited frames, served on the worker side
//! by one session handler:
//!
//! 1. a hello — protocol version, lease budget, batch width, and the
//!    campaign config — sent once per child or connection;
//! 2. per shard, a lease frame naming the trials, answered by a handshake
//!    (`{"mbavf_worker": 2, "fingerprint": <u64>}`) that the supervisor
//!    validates against its own config fingerprint;
//! 3. one record frame per trial, in order (checkpoint record fields plus
//!    `"us"`, the trial's wall-clock in microseconds), interleaved with
//!    `{"hb": N}` heartbeat frames;
//! 4. a `{"done": N}` sentinel on success; or `{"error": "<detail>"}` for a
//!    fatal configuration error.
//!
//! ## Failure policy
//!
//! While a worker holds a shard, a [`lease::Lease`] tracks the revocation
//! deadline. The pipe transport keeps a fixed whole-shard **watchdog**
//! (`shard_timeout`); the TCP transport uses a **sliding lease**
//! (`lease_timeout`) renewed by progress — records, or heartbeat frames
//! whose completion count advanced, so a livelocked remote executor with a
//! beating heart still loses its lease. A missed deadline revokes the lease
//! (kill the subprocess / sever the socket) and retries the shard's
//! *remaining* trials with bounded, per-handler-jittered exponential
//! backoff; because records arrive in trial order and are committed through
//! an idempotent [`merge`] keyed by trial index, a reconnect simply
//! re-leases from the first missing trial, and duplicated or reordered
//! records can never double-count. A worker that dies *before* answering a
//! lease never ran it, so that death is charged to the channel's retry
//! budget rather than the head trial. A **remote endpoint that stays
//! unreachable** hands its shard — failure history intact — back to the
//! queue for any surviving endpoint to pick up; idle handlers wait for such
//! give-backs for as long as any shard is still leased.
//!
//! A worker batches each first lease in lockstep groups of the campaign's
//! batch width, and runs a re-leased shard one trial at a time. A death in
//! a batched lease charges no trial — any trial of the dying group may be
//! the killer — and only re-leases the shard one trial at a time, so every
//! charged death is attributable to the head trial.
//!
//! After `max_retries` consecutive no-progress failures a shard's head trial
//! is **poisoned**: excluded from the summary (the campaign completes with
//! N−1 trials, counted honestly), quarantined into a fingerprint-validated
//! `*.poison.json` sidecar next to the checkpoint, given a standard repro
//! bundle, and skipped by every future resume. More than `max_poison` total
//! poisoned trials aborts the campaign with
//! [`SupervisorError::TooManyPoisoned`] — mass poisoning means the
//! environment, not the trials, is broken.
//!
//! ## Graceful degradation
//!
//! If no worker has produced anything yet — subprocesses cannot be spawned,
//! the first message is not a valid handshake, or no TCP endpoint ever
//! connects — the supervisor warns and falls back one isolation level (TCP →
//! local processes → threads) instead of failing the campaign: same
//! checkpoint, bit-identical records. A degraded campaign keeps its
//! `Session`: the next executor runs the same work list against the same
//! recovered durable state, poison exclusions and golden run, so trials
//! quarantined by an earlier run stay excluded even in thread mode. Once
//! work has been committed the fallback is off the table, and losing every
//! endpoint raises [`TransportError::AllEndpointsLost`].

use self::merge::MergeVerdict;
use crate::campaign::{golden_shape, CampaignConfig, FaultSite, TrialExecutor};
use crate::durable::{atomic_write_durable, jittered_backoff};
use crate::json::{self, Value};
use crate::runner::{quarantine_corrupt, CampaignReport, RunnerConfig, Session};
use mbavf_core::error::{InjectError, SupervisorError, TransportError};
use mbavf_workloads::Workload;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

pub mod audit;
pub(crate) mod lease;
pub mod merge;
mod serve;
pub(crate) mod transport;

pub use self::audit::AuditPolicy;
pub use self::serve::{serve_main, worker_main};

use self::audit::TrustLedger;
use self::lease::{Lease, LeaseQueue, Shard};
use self::transport::{parse_record, render_hello, ChannelEvent, Connector, Transport};

/// Version of the supervisor↔worker protocol (the handshake's
/// `mbavf_worker` field, and the hello frame's `mbavf_hello` field). Bumped
/// whenever the frame format changes.
pub const PROTOCOL_VERSION: u64 = 2;

/// Version of the `*.poison.json` sidecar format.
pub const POISON_VERSION: u64 = 1;

/// How a campaign executes its trials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process worker threads (panic isolation only).
    Thread,
    /// Worker subprocesses under [`run_supervised`] (survives aborts,
    /// livelocks, OOM kills).
    Process,
    /// Remote worker daemons over TCP ([`TransportKind::Tcp`]): process
    /// isolation plus lease-based shard ownership, reconnect-with-resume,
    /// and endpoint failover.
    Tcp,
}

impl IsolationMode {
    /// Parse the CLI spelling (`"thread"` / `"process"` / `"tcp"`).
    pub fn parse(s: &str) -> Option<IsolationMode> {
        match s {
            "thread" => Some(IsolationMode::Thread),
            "process" => Some(IsolationMode::Process),
            "tcp" => Some(IsolationMode::Tcp),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
            IsolationMode::Tcp => "tcp",
        }
    }
}

/// How the supervisor reaches its workers. Both speak the same framed
/// protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportKind {
    /// Local `__worker` subprocesses over their stdin/stdout, one per
    /// handler, kept across leases and respawned after a death.
    Pipe,
    /// Persistent connections to `campaign --listen` worker daemons, one
    /// handler per endpoint.
    Tcp {
        /// Worker daemon `host:port` endpoints.
        endpoints: Vec<String>,
    },
}

/// Supervision knobs (the execution policy; [`RunnerConfig`] still owns
/// checkpointing, bundles, and the heartbeat).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorConfig {
    /// Concurrent worker subprocesses; `0` means one per available CPU.
    /// Ignored by the TCP transport, which runs one handler per endpoint.
    pub workers: usize,
    /// Trials per worker shard. Shard boundaries are `trial / shard_size`,
    /// so records are invariant under the worker count.
    pub shard_size: usize,
    /// Pipe watchdog: a worker that has not finished its leased shard
    /// within this wall-clock budget is killed and the shard retried.
    pub shard_timeout: Duration,
    /// Consecutive no-progress worker failures tolerated before the shard's
    /// first remaining trial is poisoned. Progress resets the count. A
    /// death during a batched lease is not counted: it only makes the
    /// shard's next lease run one trial at a time.
    pub max_retries: u32,
    /// First retry delay; doubles per consecutive failure. The actual sleep
    /// is jittered deterministically per handler so workers that died
    /// together do not respawn together.
    pub backoff_base: Duration,
    /// Ceiling on the retry delay.
    pub backoff_cap: Duration,
    /// Abort the campaign once more than this many trials (including ones
    /// poisoned by earlier runs) are poisoned.
    pub max_poison: usize,
    /// Poison sidecar path. `None` derives `<checkpoint>.poison.json` when
    /// a checkpoint is configured (no checkpoint → poison kept in-memory
    /// only, in the report).
    pub poison_path: Option<PathBuf>,
    /// Override the worker argv (tests use shell scripts). `None` spawns
    /// `current_exe __worker`; the campaign config travels in the hello
    /// frame either way. Pipe transport only.
    pub worker_cmd: Option<Vec<String>>,
    /// Extra environment variables for workers (e.g. fault drills). Pipe
    /// transport only — TCP daemons inherit their own environment.
    pub worker_env: Vec<(String, String)>,
    /// How workers are reached: local subprocess pipes (default) or TCP
    /// connections to `campaign --listen` daemons.
    pub transport: TransportKind,
    /// TCP lease: a remote worker whose *progress* stalls for this long
    /// loses its shard (revoked and re-leased, possibly elsewhere). Renewed
    /// by records and by heartbeat frames whose completion count advanced —
    /// never by heartbeats alone.
    pub lease_timeout: Duration,
    /// Trust-but-verify: deterministically sample worker records for local
    /// re-execution before commit, and quarantine endpoints whose records
    /// diverge or conflict (see [`AuditPolicy`]). `None` trusts workers
    /// unconditionally — the pre-audit behavior.
    pub audit: Option<AuditPolicy>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            shard_size: 64,
            shard_timeout: Duration::from_secs(60),
            max_retries: 2,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            max_poison: 8,
            poison_path: None,
            worker_cmd: None,
            worker_env: Vec::new(),
            transport: TransportKind::Pipe,
            lease_timeout: Duration::from_secs(30),
            audit: None,
        }
    }
}

/// One quarantined trial: it repeatedly killed its worker and was excluded
/// from the campaign summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonEntry {
    /// Campaign trial index.
    pub trial: u64,
    /// The fault the trial would have injected.
    pub site: FaultSite,
    /// The last worker failure observed (watchdog, exit signal, lease
    /// expiry, connection loss).
    pub reason: String,
    /// Worker attempts the trial consumed before being poisoned.
    pub attempts: u32,
}

/// Render a sorted trial list compactly: `"0-5,9,11-20"`.
pub fn format_trials(trials: &[u64]) -> String {
    let mut out = String::new();
    let mut i = 0;
    while i < trials.len() {
        let start = trials[i];
        let mut end = start;
        while i + 1 < trials.len() && trials[i + 1] == end + 1 {
            i += 1;
            end = trials[i];
        }
        if !out.is_empty() {
            out.push(',');
        }
        if start == end {
            let _ = write!(out, "{start}");
        } else {
            let _ = write!(out, "{start}-{end}");
        }
        i += 1;
    }
    out
}

/// Parse [`format_trials`] output back into a trial list.
///
/// # Errors
///
/// A description of the first malformed segment (bad integer, inverted
/// range, empty list).
pub fn parse_trials(s: &str) -> Result<Vec<u64>, String> {
    let mut trials = Vec::new();
    for seg in s.split(',') {
        let parse = |t: &str| t.parse::<u64>().map_err(|_| format!("bad trial index {t:?}"));
        match seg.split_once('-') {
            Some((a, b)) => {
                let (a, b) = (parse(a)?, parse(b)?);
                if a > b {
                    return Err(format!("inverted range {seg:?}"));
                }
                trials.extend(a..=b);
            }
            None => trials.push(parse(seg)?),
        }
    }
    if trials.is_empty() {
        return Err("empty trial list".into());
    }
    Ok(trials)
}

/// Default sidecar location: `<checkpoint>.poison.json` (appended, so the
/// checkpoint's own extension survives).
pub fn default_poison_path(checkpoint: &Path) -> PathBuf {
    let mut name = checkpoint.as_os_str().to_os_string();
    name.push(".poison.json");
    PathBuf::from(name)
}

/// Serialize a poison sidecar document.
pub fn render_poison(workload: &str, config_hash: u64, entries: &[PoisonEntry]) -> String {
    let mut out = String::with_capacity(96 + entries.len() * 128);
    let _ = write!(out, "{{\n  \"version\": {POISON_VERSION},\n  \"workload\": ");
    json::write_str(&mut out, workload);
    let _ = write!(out, ",\n  \"config_hash\": {config_hash},\n  \"poisoned\": [");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"trial\": {}, \"wg\": {}, \"after\": {}, \"reg\": {}, \"lane\": {}, \"bit\": {}, \"attempts\": {}, \"reason\": ",
            e.trial, e.site.wg, e.site.after_retired, e.site.reg, e.site.lane, e.site.bit, e.attempts,
        );
        json::write_str(&mut out, &e.reason);
        out.push('}');
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Durably and atomically write the poison sidecar at `path` (temp file,
/// `sync_all`, rename, parent-directory fsync — the same discipline as
/// checkpoints, through the same failpoint-aware layer).
///
/// # Errors
///
/// [`SupervisorError::Io`] if the write cannot be made durable after
/// bounded retry.
pub fn save_poison(
    path: &Path,
    workload: &str,
    config_hash: u64,
    entries: &[PoisonEntry],
) -> Result<(), SupervisorError> {
    atomic_write_durable(path, render_poison(workload, config_hash, entries).as_bytes()).map_err(
        |e| SupervisorError::Io { path: path.display().to_string(), detail: e.to_string() },
    )
}

/// A loaded poison sidecar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonSidecar {
    /// Workload the poisoning campaign ran over.
    pub workload: String,
    /// Fingerprint of the poisoning campaign's configuration.
    pub config_hash: u64,
    /// Quarantined trials, sorted by trial index.
    pub entries: Vec<PoisonEntry>,
}

/// Load and validate the poison sidecar at `path`.
///
/// # Errors
///
/// [`SupervisorError::Io`] if the file cannot be read;
/// [`SupervisorError::Protocol`] for parse or schema violations (the caller
/// quarantines those). Fingerprint validation is the caller's job.
pub fn load_poison(path: &Path) -> Result<PoisonSidecar, SupervisorError> {
    let text = std::fs::read_to_string(path).map_err(|e| SupervisorError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })?;
    let bad = |detail: String| SupervisorError::Protocol { detail };
    let doc = json::parse(&text).map_err(|d| bad(format!("poison sidecar: {d}")))?;
    let version = doc
        .get("version")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("poison sidecar: missing \"version\"".into()))?;
    if version != POISON_VERSION {
        return Err(bad(format!("poison sidecar: foreign version {version}")));
    }
    let workload = doc
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| bad("poison sidecar: missing \"workload\"".into()))?
        .to_string();
    let config_hash = doc
        .get("config_hash")
        .and_then(Value::as_u64)
        .ok_or_else(|| bad("poison sidecar: missing \"config_hash\"".into()))?;
    let raw = doc
        .get("poisoned")
        .and_then(Value::as_arr)
        .ok_or_else(|| bad("poison sidecar: missing \"poisoned\"".into()))?;
    let mut entries = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| bad(format!("poison entry {i}: missing \"{k}\"")))
        };
        entries.push(PoisonEntry {
            trial: field("trial")?,
            site: FaultSite {
                wg: u32::try_from(field("wg")?)
                    .map_err(|_| bad(format!("poison entry {i}: \"wg\" out of range")))?,
                after_retired: field("after")?,
                reg: u8::try_from(field("reg")?)
                    .map_err(|_| bad(format!("poison entry {i}: \"reg\" out of range")))?,
                lane: u8::try_from(field("lane")?)
                    .map_err(|_| bad(format!("poison entry {i}: \"lane\" out of range")))?,
                bit: u8::try_from(field("bit")?)
                    .map_err(|_| bad(format!("poison entry {i}: \"bit\" out of range")))?,
            },
            attempts: field("attempts")? as u32,
            reason: e
                .get("reason")
                .and_then(Value::as_str)
                .ok_or_else(|| bad(format!("poison entry {i}: missing \"reason\"")))?
                .to_string(),
        });
    }
    entries.sort_by_key(|e| e.trial);
    entries.dedup_by_key(|e| e.trial);
    Ok(PoisonSidecar { workload, config_hash, entries })
}

/// Load the sidecar, quarantining malformed files (like checkpoint
/// corruption: moved to `<path>.corrupt` with a warning, treated as
/// absent). A fingerprint mismatch is a hard error — the sidecar belongs to
/// a different campaign.
pub(crate) fn load_or_quarantine_poison(
    path: &Path,
    fingerprint: u64,
) -> Result<Vec<PoisonEntry>, SupervisorError> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    match load_poison(path) {
        Ok(sidecar) => {
            if sidecar.config_hash != fingerprint {
                return Err(SupervisorError::SidecarMismatch {
                    expected: fingerprint,
                    found: sidecar.config_hash,
                });
            }
            Ok(sidecar.entries)
        }
        Err(SupervisorError::Protocol { detail }) => {
            match quarantine_corrupt(path) {
                Some(q) => eprintln!(
                    "warning: corrupt poison sidecar at {} ({detail}); moved to {}",
                    path.display(),
                    q.display()
                ),
                None => eprintln!(
                    "warning: corrupt poison sidecar at {} ({detail}); quarantine failed, ignoring it",
                    path.display()
                ),
            }
            Ok(Vec::new())
        }
        Err(e) => Err(e),
    }
}

enum ShardRun {
    /// Worker finished every remaining trial.
    Done,
    /// Worker died or lost its lease (signal, abort, truncated stream,
    /// watchdog, lease expiry, connection loss). `channel` records whether
    /// the failure is charged to the channel rather than the head trial:
    /// a worker that dies before answering the lease never ran it.
    Died { progress: bool, channel: bool, detail: String },
    /// Non-retryable worker failure.
    Fatal(SupervisorError),
    /// The first message was not a valid handshake for this campaign.
    Mismatch(String),
    /// The worker sent a record conflicting with committed state, or one
    /// the audit caught diverging — a trust failure charged to the endpoint
    /// (`quarantined` reports whether it crossed the ledger's budget, which
    /// bars the endpoint for the rest of the campaign), not a
    /// campaign-fatal protocol error.
    Hostile { quarantined: bool, detail: String },
}

/// What the pre-commit audit concluded about one record.
enum AuditOutcome {
    /// Not in the audit sample (or auditing is off).
    Skipped,
    /// Re-executed locally; bit-identical.
    Passed,
    /// Re-executed locally; the records disagree. The local record is
    /// committed in the remote one's place.
    Diverged,
}

/// Why a handler stopped driving a shard.
enum ShardEnd {
    /// The shard is fully committed (or its stragglers poisoned).
    Finished,
    /// The campaign is stopping (fatal error, degradation, shutdown).
    Stop,
    /// The remote endpoint stayed unreachable through the retry budget; the
    /// (partially completed) shard should be re-offered to other handlers.
    EndpointDead { detail: String },
}

struct Fleet<'a> {
    session: &'a Session<'a>,
    sup: &'a SupervisorConfig,
    /// Trials poisoned before this fleet started: by earlier runs, or by an
    /// earlier fleet of this run that degraded.
    prior_poison: usize,
    /// Local re-executor for audited records, over the session's own
    /// golden shape and sampler; built when auditing is on and trials are
    /// pending. Serializes audits across handlers.
    auditor: Option<Mutex<TrialExecutor<'a>>>,
    /// Per-endpoint trust state plus the campaign-wide audit counters.
    ledger: &'a TrustLedger,
    queue: LeaseQueue,
    poison: Mutex<Vec<PoisonEntry>>,
    fatal: Mutex<Option<SupervisorError>>,
    degrade: AtomicBool,
    stop: AtomicBool,
    handlers: usize,
    retired: AtomicUsize,
}

impl Fleet<'_> {
    fn should_stop(&self) -> bool {
        // A tripped cancel token stops new leases exactly like an internal
        // stop: handlers drain what is in flight and retire. It also
        // suppresses the AllEndpointsLost backstop — pending trials after a
        // cancellation are deliberate, not stranded.
        self.stop.load(Ordering::SeqCst)
            || self.degrade.load(Ordering::SeqCst)
            || self.session.runner.cancel.cancelled().is_some()
    }

    fn raise_fatal(&self, e: SupervisorError) {
        self.fatal.lock().expect("fatal lock").get_or_insert(e);
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Degrade is only safe while nothing has happened yet: no completed
    /// trial, no new poison. Returns whether degradation was initiated.
    fn try_degrade(&self) -> bool {
        let untouched = self.session.completed.load(Ordering::SeqCst) == 0
            && self.poison.lock().expect("poison lock").is_empty();
        if untouched {
            self.degrade.store(true, Ordering::SeqCst);
        }
        untouched
    }

    fn backoff(&self, handler: usize, consecutive_failures: u32) -> Duration {
        jittered_backoff(
            self.sup.backoff_base,
            self.sup.backoff_cap,
            self.session.cfg.seed,
            handler,
            consecutive_failures,
        )
    }

    /// Build handler `id`'s channel to its worker.
    fn make_transport(&self, id: usize) -> Transport {
        let session = self.session;
        let hello = render_hello(
            session.workload.name,
            session.cfg,
            self.sup.lease_timeout,
            session.runner.batch_width,
        );
        let connector = match &self.sup.transport {
            TransportKind::Pipe => Connector::Spawn {
                argv: self.sup.worker_cmd.clone(),
                env: self.sup.worker_env.clone(),
                watchdog: self.sup.shard_timeout,
            },
            TransportKind::Tcp { endpoints } => Connector::Dial {
                addr: endpoints[id % endpoints.len()].clone(),
                lease: self.sup.lease_timeout,
            },
        };
        Transport::new(connector, hello)
    }

    /// A channel — spawn or dial, hello or lease send, or a worker dying
    /// before it answers — failed past its retry budget: a remote endpoint
    /// is declared dead (its shard is re-offered); a local one degrades the
    /// campaign while nothing is committed, and is fatal after.
    fn channel_dead(&self, transport: &Transport, detail: String) -> ShardEnd {
        if transport.is_remote() {
            return ShardEnd::EndpointDead { detail };
        }
        if !self.try_degrade() {
            self.raise_fatal(SupervisorError::Spawn { detail });
        }
        ShardEnd::Stop
    }

    /// Stream one lease's messages, committing records as they arrive.
    /// Committed trials are removed from `remaining`, so a retry re-leases
    /// only what is still missing — and after a one-trial-at-a-time lease
    /// the head of `remaining` is the trial a death is attributable to.
    fn stream_shard(&self, transport: &mut Transport, remaining: &mut VecDeque<u64>) -> ShardRun {
        let mut lease = Lease::new(transport.policy());
        let mut progress = false;
        let mut handshaken = false;
        let mut drain_sent = false;
        // Progress gate for TCP heartbeats: renew only when the daemon's
        // completion count *changes*, so a frozen executor with a beating
        // heart still loses its lease.
        let mut last_hb: Option<u64> = None;
        loop {
            if self.stop.load(Ordering::SeqCst) || self.degrade.load(Ordering::SeqCst) {
                transport.revoke();
                return ShardRun::Died {
                    progress,
                    channel: !handshaken && transport.is_remote(),
                    detail: "supervisor shutdown".into(),
                };
            }
            if let Some(reason) = self.session.runner.cancel.cancelled() {
                if transport.is_remote() && handshaken {
                    // Graceful preemption of a live daemon: ask it to finish
                    // the trial in flight and part cleanly, then keep
                    // streaming (and committing) until its `drained` ack.
                    // A daemon that never acks still loses its lease on the
                    // ordinary expiry path below — drain adds no new way to
                    // hang the supervisor.
                    if !drain_sent {
                        if let Err(detail) = transport.drain() {
                            transport.revoke();
                            return ShardRun::Died {
                                progress,
                                channel: false,
                                detail: format!("cancelled ({reason}); drain failed: {detail}"),
                            };
                        }
                        drain_sent = true;
                    }
                } else {
                    // Subprocess workers (and daemons that have not yet
                    // handshaken) hold no unflushed committed work: revoke.
                    transport.revoke();
                    return ShardRun::Died {
                        progress,
                        channel: !handshaken && transport.is_remote(),
                        detail: format!("cancelled ({reason})"),
                    };
                }
            }
            let msg = match transport.recv(lease.poll_wait()) {
                ChannelEvent::Msg(msg) => msg,
                ChannelEvent::Garbage(detail) if !handshaken => {
                    transport.revoke();
                    return ShardRun::Mismatch(format!("expected worker handshake: {detail}"));
                }
                ChannelEvent::Garbage(detail) => {
                    transport.revoke();
                    return ShardRun::Died { progress, channel: false, detail };
                }
                ChannelEvent::Idle => {
                    if lease.expired() {
                        let detail = lease.describe(remaining.len());
                        transport.revoke();
                        // A silent local worker is the trial's problem (the
                        // watchdog); a silent remote one may be a dial into
                        // a dying listener's backlog.
                        let channel = !handshaken && transport.is_remote();
                        return ShardRun::Died { progress, channel, detail };
                    }
                    continue;
                }
                ChannelEvent::Eof { status } => {
                    // A worker that drained its shard but lost the sentinel
                    // did all the work; don't retry an empty shard.
                    if remaining.is_empty() {
                        return ShardRun::Done;
                    }
                    return ShardRun::Died {
                        progress,
                        channel: !handshaken,
                        detail: format!(
                            "worker died ({status}) with {} trials left",
                            remaining.len()
                        ),
                    };
                }
            };
            let v = json::parse(&msg).unwrap_or(Value::Null);
            // An error can precede the handshake: the worker rejected our
            // hello. A fatal configuration error either way.
            if let Some(detail) = v.get("error").and_then(Value::as_str) {
                let detail = detail.to_string();
                transport.revoke();
                return ShardRun::Fatal(SupervisorError::WorkerFatal { detail });
            }
            if !handshaken {
                let ok = v.get("mbavf_worker").and_then(Value::as_u64) == Some(PROTOCOL_VERSION)
                    && v.get("fingerprint").and_then(Value::as_u64)
                        == Some(self.session.fingerprint);
                if !ok {
                    transport.revoke();
                    let head: String = msg.chars().take(120).collect();
                    return ShardRun::Mismatch(format!("expected worker handshake, got {head:?}"));
                }
                handshaken = true;
                lease.renew();
                continue;
            }
            if let Some(n) = v.get("hb").and_then(Value::as_u64) {
                if last_hb != Some(n) {
                    last_hb = Some(n);
                    lease.renew();
                }
                continue;
            }
            if v.get("drained").is_some() {
                // The daemon honored our drain frame: its in-flight trials
                // are committed (we streamed them above), its lease is
                // flushed back, and it parted cleanly. The shard's
                // leftovers stay pending for the resume.
                return ShardRun::Died {
                    progress,
                    channel: false,
                    detail: "endpoint drained after cancellation".into(),
                };
            }
            if v.get("done").is_some() {
                return if remaining.is_empty() {
                    ShardRun::Done
                } else {
                    ShardRun::Fatal(SupervisorError::Protocol {
                        detail: format!(
                            "worker reported done with {} trials unaccounted for",
                            remaining.len()
                        ),
                    })
                };
            }
            let (mut record, mut us) = match parse_record(&v) {
                Ok(r) => r,
                Err(detail) => {
                    transport.revoke();
                    return ShardRun::Fatal(SupervisorError::Protocol {
                        detail: format!("bad record frame: {detail}"),
                    });
                }
            };
            let trial = record.trial;
            let leased = remaining.iter().position(|&t| t == trial);
            // Trust-but-verify: re-execute sampled records locally *before*
            // they reach the WAL. The sample is a pure function of (seed,
            // trial), so it is invariant under the worker count and endpoint
            // layout; only leased (first-delivery) records are audited, so
            // each selected trial is audited exactly once. On divergence the
            // local re-execution wins the tie: the local record is
            // committed, the remote one discarded.
            let mut audit = AuditOutcome::Skipped;
            if leased.is_some() {
                if let (Some(policy), Some(auditor)) = (self.sup.audit, &self.auditor) {
                    if policy.selects(self.session.cfg.seed, trial) {
                        let mut local = None;
                        let Ok(()) =
                            auditor.lock().expect("auditor lock").run_group(&[trial], |r, t| {
                                local = Some((r, t));
                                Ok::<(), std::convert::Infallible>(())
                            });
                        let (local, local_us) = local.expect("one trial, one record");
                        if local == record {
                            audit = AuditOutcome::Passed;
                        } else {
                            audit = AuditOutcome::Diverged;
                            record = local;
                            us = local_us;
                        }
                    }
                }
            }
            match self.session.commit(record, us, leased.is_some()) {
                MergeVerdict::Fresh => {
                    let pos = leased.expect("fresh commits are leased");
                    remaining.remove(pos);
                    progress = true;
                    lease.renew();
                    match audit {
                        AuditOutcome::Skipped => {}
                        AuditOutcome::Passed => self.ledger.record_pass(),
                        AuditOutcome::Diverged => {
                            let endpoint = transport.endpoint();
                            eprintln!(
                                "warning: audit divergence on trial {trial}: endpoint {endpoint} disagrees with local re-execution; the local record was committed"
                            );
                            if self.ledger.record_divergence(&endpoint) {
                                transport.revoke();
                                return ShardRun::Hostile {
                                    quarantined: true,
                                    detail: format!(
                                        "quarantined by the trust ledger after an audit divergence on trial {trial}"
                                    ),
                                };
                            }
                        }
                    }
                }
                MergeVerdict::Duplicate => {
                    // A replay of a record committed by an earlier lease
                    // (reconnect, duplicated frames): dropped by the merge,
                    // never recounted.
                    if let Some(pos) = leased {
                        remaining.remove(pos);
                        progress = true;
                    }
                    lease.renew();
                }
                MergeVerdict::Conflict { detail } => {
                    // A record contradicting committed state is a trust
                    // failure, charged to the endpoint's retry budget and
                    // trust ledger — not silently formatted into a fatal
                    // error.
                    let quarantined = self.ledger.record_conflict(&transport.endpoint());
                    transport.revoke();
                    return ShardRun::Hostile { quarantined, detail };
                }
                MergeVerdict::Foreign { .. } => {
                    transport.revoke();
                    return ShardRun::Fatal(SupervisorError::Protocol {
                        detail: format!("worker emitted trial {trial} outside its shard"),
                    });
                }
            }
        }
    }

    /// Drive one shard to completion: lease/re-lease with jittered backoff,
    /// poison the head trial after repeated no-progress failure, declare
    /// the endpoint dead when it stays unreachable.
    fn run_shard(&self, transport: &mut Transport, handler: usize, shard: &mut Shard) -> ShardEnd {
        let mut lease_fails: u32 = 0;
        // A death in a batched lease cannot be pinned on the head trial: it
        // charges no trial, but later leases run one trial at a time.
        let mut narrowed = false;
        while !shard.remaining.is_empty() {
            if self.should_stop() {
                return ShardEnd::Stop;
            }
            // A quarantined endpoint never leases again this campaign; its
            // shard goes back to the queue for surviving endpoints.
            if transport.is_remote() && self.ledger.is_quarantined(&transport.endpoint()) {
                return ShardEnd::EndpointDead {
                    detail: "endpoint is quarantined by the trust ledger".into(),
                };
            }
            if shard.attempts > self.sup.max_retries {
                let trial = shard.remaining.pop_front().expect("remaining is non-empty");
                let sampler =
                    self.session.sampler.as_ref().expect("pending trials imply a sampler");
                let (attempts, last_fail) = (shard.attempts, shard.last_fail.clone());
                let entry = PoisonEntry {
                    trial,
                    site: sampler.sample(self.session.cfg.seed, trial),
                    reason: last_fail.clone(),
                    attempts,
                };
                eprintln!(
                    "warning: poisoning trial {trial} after {attempts} failed worker attempts ({last_fail})"
                );
                let total = {
                    let mut poison = self.poison.lock().expect("poison lock");
                    poison.push(entry);
                    self.prior_poison + poison.len()
                };
                if total > self.sup.max_poison {
                    self.raise_fatal(SupervisorError::TooManyPoisoned {
                        poisoned: total,
                        cap: self.sup.max_poison,
                    });
                    return ShardEnd::Stop;
                }
                shard.attempts = 0;
                shard.last_fail = String::from("never ran");
                narrowed = false;
                continue;
            }
            // Workers batch attempt 0 only.
            let attempt = shard.attempts + u32::from(narrowed) + lease_fails;
            let batched = attempt == 0 && self.session.runner.batch_width > 1;
            if attempt > 0 {
                std::thread::sleep(self.backoff(handler, attempt));
            }
            let trials: Vec<u64> = shard.remaining.iter().copied().collect();
            if let Err(detail) = transport.lease(&trials, attempt) {
                lease_fails += 1;
                if lease_fails > self.sup.max_retries {
                    return self.channel_dead(transport, detail);
                }
                continue;
            }
            match self.stream_shard(transport, &mut shard.remaining) {
                ShardRun::Done => return ShardEnd::Finished,
                ShardRun::Died { progress, channel, detail } => {
                    if channel {
                        // The worker died before answering the lease — a
                        // torn lease frame, a child that exited on start-up,
                        // a dial that landed in a dying listener's backlog.
                        // The trial never ran, so charge the channel's retry
                        // budget, not the trial's.
                        lease_fails += 1;
                        if lease_fails > self.sup.max_retries {
                            return self.channel_dead(transport, detail);
                        }
                        continue;
                    }
                    lease_fails = 0;
                    if batched {
                        narrowed = true;
                    } else {
                        shard.attempts = if progress { 1 } else { shard.attempts + 1 };
                    }
                    shard.last_fail = detail;
                }
                ShardRun::Fatal(e) => {
                    self.raise_fatal(e);
                    return ShardEnd::Stop;
                }
                ShardRun::Hostile { quarantined, detail } => {
                    if !transport.is_remote() {
                        // A local subprocess contradicting committed state or
                        // local re-execution is a determinism bug in this very
                        // binary, not a trust problem — fail loudly.
                        self.raise_fatal(SupervisorError::Protocol { detail });
                        return ShardEnd::Stop;
                    }
                    // Charged like a pre-handshake death: the endpoint's
                    // budget, not the head trial's.
                    lease_fails += 1;
                    if quarantined || lease_fails > self.sup.max_retries {
                        return ShardEnd::EndpointDead { detail };
                    }
                }
                ShardRun::Mismatch(detail) => {
                    if self.try_degrade() {
                        if transport.is_remote() {
                            eprintln!(
                                "warning: worker endpoint {} is not serving this campaign ({detail})",
                                transport.endpoint()
                            );
                        } else {
                            eprintln!(
                                "warning: worker handshake failed ({detail}); is this binary missing the __worker dispatch?"
                            );
                        }
                        return ShardEnd::Stop;
                    }
                    self.raise_fatal(SupervisorError::Protocol { detail });
                    return ShardEnd::Stop;
                }
            }
        }
        ShardEnd::Finished
    }

    /// Handler `id`'s main loop: lease shards off the queue until it is
    /// drained or the campaign stops. A dead endpoint hands its shard back
    /// for the surviving handlers and retires.
    fn drive(&self, id: usize) {
        let mut transport = self.make_transport(id);
        // `take` blocks while the queue is empty but another handler still
        // holds a shard it may give back, so an idle survivor outlives a
        // dying endpoint's redial and backoff.
        while !self.should_stop() {
            let Some(mut shard) = self.queue.take() else { return };
            match self.run_shard(&mut transport, id, &mut shard) {
                ShardEnd::Finished => {}
                ShardEnd::Stop => return,
                ShardEnd::EndpointDead { detail } => {
                    eprintln!(
                        "warning: worker endpoint {} lost ({detail}); re-offering its shard",
                        transport.endpoint()
                    );
                    self.queue.give_back(shard);
                    return;
                }
            }
        }
    }

    fn handler(&self, id: usize) {
        self.drive(id);
        // Backstop: the last handler out must not strand re-offered shards.
        // With work still queued and no stop in flight, every endpoint died
        // after work was committed — degrade if still possible, else fail
        // loudly rather than report a silent partial campaign.
        if self.retired.fetch_add(1, Ordering::SeqCst) + 1 == self.handlers {
            let pending = self.queue.outstanding();
            if pending > 0
                && !self.should_stop()
                && self.fatal.lock().expect("fatal lock").is_none()
                && !self.try_degrade()
            {
                self.raise_fatal(TransportError::AllEndpointsLost { pending }.into());
            }
        }
    }
}

/// Run (or resume) a campaign with worker subprocesses or remote worker
/// daemons.
///
/// Identical record semantics to [`crate::runner::run_campaign`] — the same
/// checkpoint format, the same fingerprint, bit-identical non-poison
/// records at any worker count over any transport — plus the failure policy
/// described at the module level. Trials that repeatedly kill their worker
/// are poisoned rather than failing the campaign; if no worker ever
/// produces a record the supervisor degrades one isolation level (TCP →
/// process → thread) with a warning.
///
/// # Errors
///
/// Everything [`crate::runner::run_campaign`] can raise, plus
/// [`InjectError::Supervisor`] for a fatal worker error (exit 10 or an
/// `error` frame), a protocol violation after trials have completed, a
/// poison sidecar from a different campaign, more than
/// [`SupervisorConfig::max_poison`] poisoned trials, a TCP transport with
/// no endpoints ([`TransportError::NoEndpoints`]), or every endpoint lost
/// after work was committed ([`TransportError::AllEndpointsLost`]).
pub fn run_supervised(
    workload: &Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
    sup: &SupervisorConfig,
) -> Result<CampaignReport, InjectError> {
    if sup.shard_size == 0 {
        return Err(InjectError::BadConfig { detail: "shard_size must be at least 1".into() });
    }
    if let TransportKind::Tcp { endpoints } = &sup.transport {
        if endpoints.is_empty() {
            return Err(SupervisorError::from(TransportError::NoEndpoints).into());
        }
    }

    let golden = golden_shape(workload, cfg)?;
    let poison_path =
        sup.poison_path.clone().or_else(|| runner.checkpoint.as_deref().map(default_poison_path));
    let mut session = Session::open(workload, cfg, runner, &golden, poison_path)?;
    let ledger = TrustLedger::new(sup.audit.map_or(0, |a| a.max_failures()));
    let mut sup = sup.clone();
    let mut poison: Vec<PoisonEntry> = Vec::new();
    // Degradation keeps the open session: the next executor runs the same
    // work list against the same durable state, golden run and exclusions.
    let fatal = loop {
        let fleet = run_fleet(&session, &sup, &ledger, session.prior_poison.len() + poison.len());
        poison.extend(fleet.poison.into_inner().expect("poison lock"));
        if !fleet.degrade.into_inner() {
            break fleet.fatal.into_inner().expect("fatal lock");
        }
        session.pending.retain(|t| !poison.iter().any(|e| e.trial == *t));
        if let TransportKind::Tcp { .. } = sup.transport {
            eprintln!(
                "warning: no tcp worker produced a record; degrading to local process isolation for this campaign"
            );
            sup.transport = TransportKind::Pipe;
        } else {
            eprintln!(
                "warning: process isolation unavailable; degrading to thread isolation for this campaign"
            );
            session.run_threads();
            break None;
        }
    };
    let mut report = session.finish(poison, fatal)?;
    let summary = &mut report.summary;
    summary.audited = ledger.audited();
    summary.audit_divergences = ledger.divergences();
    summary.merge_conflicts = ledger.conflicts();
    summary.quarantined_endpoints = ledger.quarantined();
    Ok(report)
}

/// The lease-fleet executor: shard the session's work list, run one
/// handler per worker until the queue drains or the campaign stops, and
/// return the fleet's final state (new poison, fatal error, degradation).
fn run_fleet<'a>(
    session: &'a Session<'a>,
    sup: &'a SupervisorConfig,
    ledger: &'a TrustLedger,
    prior_poison: usize,
) -> Fleet<'a> {
    // Contiguous shards with boundaries fixed by trial index, so the shard
    // layout is invariant under the worker count.
    let mut shards: VecDeque<Shard> = VecDeque::new();
    for &t in &session.pending {
        let shard_id = t / sup.shard_size as u64;
        match shards.back_mut() {
            Some(last)
                if last
                    .remaining
                    .back()
                    .is_some_and(|&p| p / sup.shard_size as u64 == shard_id) =>
            {
                last.remaining.push_back(t)
            }
            _ => shards.push_back(Shard::new(VecDeque::from([t]))),
        }
    }
    let (label, workers) = match &sup.transport {
        TransportKind::Tcp { endpoints } => ("tcp", endpoints.len()),
        TransportKind::Pipe if sup.workers == 0 => {
            ("process", std::thread::available_parallelism().map(usize::from).unwrap_or(1))
        }
        TransportKind::Pipe => ("process", sup.workers),
    };
    let workers = workers.clamp(1, shards.len().max(1));

    // The audit re-executor walks the same executor the workers do, over
    // this campaign's own golden shape and sampler. Built only when
    // something can actually be audited.
    let auditor = match (sup.audit, &session.sampler) {
        (Some(_), Some(sampler)) if !session.pending.is_empty() => Some(Mutex::new(
            TrialExecutor::new(session.workload, session.cfg, session.golden, sampler, 1),
        )),
        _ => None,
    };
    let ctx = Fleet {
        session,
        sup,
        prior_poison,
        auditor,
        ledger,
        queue: LeaseQueue::new(shards),
        poison: Mutex::new(Vec::new()),
        fatal: Mutex::new(None),
        degrade: AtomicBool::new(false),
        stop: AtomicBool::new(false),
        handlers: workers,
        retired: AtomicUsize::new(0),
    };
    let extra = || {
        let mut extra = String::new();
        let n = ctx.prior_poison + ctx.poison.lock().expect("poison lock").len();
        if n > 0 {
            let _ = write!(extra, ", poisoned {n}");
        }
        let audited = ctx.ledger.audited();
        if audited > 0 {
            let _ = write!(extra, ", audited {audited} ({} divergent)", ctx.ledger.divergences());
        }
        let q = ctx.ledger.quarantined_count();
        if q > 0 {
            let _ = write!(extra, ", quarantined {q}");
        }
        extra
    };
    session.execute(label, workers, &|| ctx.queue.leased(), &extra, &|id| ctx.handler(id));
    ctx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Outcome, SingleBitRecord};
    use crate::checkpoint;
    use crate::runner::run_campaign;
    use mbavf_workloads::by_name;

    fn cfg(n: usize) -> CampaignConfig {
        CampaignConfig { seed: 0x5EED, injections: n, ..CampaignConfig::default() }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-supervisor-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sh(script: &str) -> Option<Vec<String>> {
        Some(vec!["sh".into(), "-c".into(), script.into()])
    }

    /// A shell command printing `payload` as one frame: the big-endian
    /// length prefix as octal escapes, then the payload verbatim.
    fn printf_frame(payload: &str) -> String {
        let prefix: String =
            (payload.len() as u32).to_be_bytes().iter().map(|b| format!("\\{b:03o}")).collect();
        format!("printf '{prefix}%s' '{payload}'")
    }

    #[test]
    fn rangelist_roundtrips() {
        for trials in [
            vec![0u64],
            vec![0, 1, 2, 3],
            vec![0, 1, 2, 5, 9, 10, 11, 40],
            vec![7],
            (100..200).collect(),
        ] {
            let s = format_trials(&trials);
            assert_eq!(parse_trials(&s).unwrap(), trials, "via {s:?}");
        }
        assert_eq!(format_trials(&[0, 1, 2, 5, 9, 10, 11]), "0-2,5,9-11");
        assert!(parse_trials("").is_err());
        assert!(parse_trials("3-1").is_err());
        assert!(parse_trials("a-b").is_err());
    }

    #[test]
    fn poison_sidecar_roundtrips_and_quarantines() {
        let dir = tmpdir("sidecar");
        let path = dir.join("c.json.poison.json");
        let entries = vec![
            PoisonEntry {
                trial: 3,
                site: FaultSite { wg: 1, after_retired: 17, reg: 3, lane: 9, bit: 30 },
                reason: "worker died (signal: 6) with 2 trials left".into(),
                attempts: 3,
            },
            PoisonEntry {
                trial: 9,
                site: FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 },
                reason: "shard watchdog fired after 100ms with 1 trials outstanding".into(),
                attempts: 1,
            },
        ];
        save_poison(&path, "transpose", 0xABCD, &entries).unwrap();
        let loaded = load_poison(&path).unwrap();
        assert_eq!(loaded.workload, "transpose");
        assert_eq!(loaded.config_hash, 0xABCD);
        assert_eq!(loaded.entries, entries);
        assert_eq!(load_or_quarantine_poison(&path, 0xABCD).unwrap(), entries);

        // Wrong campaign: hard error, not quarantine.
        assert!(matches!(
            load_or_quarantine_poison(&path, 0xBEEF),
            Err(SupervisorError::SidecarMismatch { expected: 0xBEEF, found: 0xABCD })
        ));

        // Corruption: quarantined aside, treated as absent.
        std::fs::write(&path, "{ not json").unwrap();
        assert_eq!(load_or_quarantine_poison(&path, 0xABCD).unwrap(), Vec::new());
        assert!(!path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_line_roundtrips() {
        let records = [
            SingleBitRecord {
                trial: 7,
                site: FaultSite { wg: 2, after_retired: 99, reg: 11, lane: 63, bit: 31 },
                outcome: Outcome::Crash { reason: "boom \"quoted\"\n".into() },
                read_before_overwrite: true,
            },
            SingleBitRecord {
                trial: 0,
                site: FaultSite { wg: 0, after_retired: 0, reg: 0, lane: 0, bit: 0 },
                outcome: Outcome::Masked,
                read_before_overwrite: false,
            },
        ];
        for r in records {
            let mut wire: Vec<u8> = Vec::new();
            transport::write_frame(&mut wire, &transport::render_record(&r, 1234)).unwrap();
            let line = transport::read_frame(&mut wire.as_slice()).unwrap().unwrap();
            let v = json::parse(&line).unwrap();
            assert_eq!(parse_record(&v).unwrap(), (r, 1234));
        }
    }

    #[test]
    fn respawn_backoff_is_jittered_deterministic_and_bounded() {
        let base = Duration::from_millis(50);
        let cap = Duration::from_secs(2);
        let d0 = jittered_backoff(base, cap, 0x5EED, 0, 1);
        assert_eq!(d0, jittered_backoff(base, cap, 0x5EED, 0, 1), "jitter must be deterministic");
        let distinct: std::collections::HashSet<Duration> =
            (0..8).map(|h| jittered_backoff(base, cap, 0x5EED, h, 1)).collect();
        assert!(distinct.len() > 1, "handlers must not retry in lockstep");
        for handler in 0..8 {
            for failures in 1..=20u32 {
                let full = base.saturating_mul(1u32 << failures.saturating_sub(1).min(16)).min(cap);
                let d = jittered_backoff(base, cap, 0x5EED, handler, failures);
                assert!(
                    d <= full && d >= full / 2,
                    "handler {handler} failure {failures}: {d:?} outside [{:?}, {full:?}]",
                    full / 2
                );
                assert!(d <= cap);
            }
        }
    }

    #[test]
    fn spawn_failure_degrades_to_thread_mode() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(8);
        let sup = SupervisorConfig {
            workers: 1,
            worker_cmd: Some(vec!["/nonexistent/mbavf-worker".into()]),
            ..SupervisorConfig::default()
        };
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        assert_eq!(report.summary, thread.summary);
        assert!(report.complete);
        assert!(report.poisoned.is_empty());
    }

    /// A resumed campaign that degrades to threads still excludes the trials
    /// its poison sidecar quarantined: a trial that killed its worker must
    /// never run inside the supervisor's own process.
    #[test]
    fn degraded_resume_keeps_prior_poison() {
        let w = by_name("transpose").expect("registered");
        let cfg = CampaignConfig { seed: 7, injections: 8, ..CampaignConfig::default() };
        let dir = tmpdir("degraded-poison");
        let ckpt = dir.join("c.json");
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        // An earlier run committed two trials and poisoned trial 3.
        let partial = RunnerConfig {
            checkpoint: Some(ckpt.clone()),
            cancel: crate::cancel::CancelToken::limited(2),
            ..RunnerConfig::serial()
        };
        run_campaign(&w, &cfg, &partial).unwrap();
        let entry = PoisonEntry {
            trial: 3,
            site: thread.summary.records[3].site,
            reason: "worker died (signal: 6) with 1 trials left".into(),
            attempts: 3,
        };
        let fp = checkpoint::config_fingerprint(w.name, &cfg);
        save_poison(&default_poison_path(&ckpt), w.name, fp, &[entry]).unwrap();

        let sup = SupervisorConfig {
            workers: 1,
            worker_cmd: Some(vec!["/nonexistent/mbavf-worker".into()]),
            ..SupervisorConfig::default()
        };
        let runner = RunnerConfig { checkpoint: Some(ckpt.clone()), ..RunnerConfig::serial() };
        let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
        assert!(report.summary.records.iter().all(|r| r.trial != 3), "poisoned trial re-ran");
        assert_eq!(report.poisoned.len(), 1);
        assert!(report.complete);
        let mut expected = thread.summary.records.clone();
        expected.remove(3);
        assert_eq!(report.summary.records, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn handshake_garbage_degrades_to_thread_mode() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(6);
        let sup = SupervisorConfig {
            workers: 1,
            worker_cmd: sh("echo 'running 4 tests'"),
            ..SupervisorConfig::default()
        };
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        assert_eq!(report.summary, thread.summary);
        assert!(report.poisoned.is_empty());
    }

    #[test]
    fn tcp_with_no_endpoints_is_rejected() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let sup = SupervisorConfig {
            transport: TransportKind::Tcp { endpoints: Vec::new() },
            ..SupervisorConfig::default()
        };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        assert!(
            matches!(
                err,
                InjectError::Supervisor(SupervisorError::Transport(TransportError::NoEndpoints))
            ),
            "{err}"
        );
    }

    #[test]
    fn watchdog_poisons_silent_workers() {
        // A worker that hangs without ever speaking: every trial is
        // eventually poisoned, the campaign still completes, honestly
        // reporting zero measured trials.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(2);
        let sup = SupervisorConfig {
            workers: 1,
            shard_timeout: Duration::from_millis(200),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            max_poison: 8,
            worker_cmd: sh("sleep 5"),
            ..SupervisorConfig::default()
        };
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        assert!(report.complete);
        assert_eq!(report.newly_run, 0);
        assert_eq!(report.summary.records.len(), 0);
        assert_eq!(report.poisoned.len(), 2);
        assert_eq!(report.poisoned[0].trial, 0);
        assert_eq!(report.poisoned[1].trial, 1);
        assert!(report.poisoned[0].reason.contains("watchdog"), "{}", report.poisoned[0].reason);
    }

    #[test]
    fn poison_cap_aborts_the_campaign() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(3);
        let sup = SupervisorConfig {
            workers: 1,
            shard_timeout: Duration::from_millis(150),
            max_retries: 0,
            backoff_base: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(5),
            max_poison: 1,
            worker_cmd: sh("sleep 5"),
            ..SupervisorConfig::default()
        };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        assert!(
            matches!(
                err,
                InjectError::Supervisor(SupervisorError::TooManyPoisoned { poisoned: 2, cap: 1 })
            ),
            "{err}"
        );
    }

    #[test]
    fn worker_error_line_is_fatal_not_retried() {
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let fp = checkpoint::config_fingerprint(w.name, &cfg);
        let script = format!(
            "{}; {}; exit 10",
            printf_frame(&format!(
                "{{\"mbavf_worker\": {PROTOCOL_VERSION}, \"fingerprint\": {fp}}}"
            )),
            printf_frame("{\"error\": \"unknown workload\"}"),
        );
        let sup =
            SupervisorConfig { workers: 1, worker_cmd: sh(&script), ..SupervisorConfig::default() };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        match err {
            InjectError::Supervisor(SupervisorError::WorkerFatal { detail }) => {
                assert_eq!(detail, "unknown workload");
            }
            other => panic!("expected WorkerFatal, got {other}"),
        }
    }

    #[test]
    fn pre_handshake_error_line_is_fatal_not_mismatch() {
        // A worker that rejects its flags emits the error line *before* any
        // handshake; the supervisor must surface the configuration error
        // rather than degrade on a handshake mismatch.
        let w = by_name("transpose").expect("registered");
        let cfg = cfg(4);
        let sup = SupervisorConfig {
            workers: 1,
            worker_cmd: sh(&format!(
                "{}; exit 10",
                printf_frame("{\"error\": \"bad integer for --seed\"}")
            )),
            ..SupervisorConfig::default()
        };
        let err = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap_err();
        match err {
            InjectError::Supervisor(SupervisorError::WorkerFatal { detail }) => {
                assert_eq!(detail, "bad integer for --seed");
            }
            other => panic!("expected WorkerFatal, got {other}"),
        }
    }

    #[test]
    fn worker_cli_flag_parsing_rejects_garbage() {
        let fields = |list: &[(&str, &str)]| -> String {
            let body: Vec<String> = list.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
            format!("{{{}}}", body.join(", "))
        };
        let version = PROTOCOL_VERSION.to_string();
        let hello = [
            ("mbavf_hello", version.as_str()),
            ("lease_ms", "30000"),
            ("batch_width", "1"),
            ("workload", "\"transpose\""),
            ("seed", "1"),
            ("scale", "\"test\""),
            ("hang_factor", "8"),
            ("wrap_oob", "true"),
            ("mode_bits", "1"),
        ];
        let lease = [("trials", "\"0-3\""), ("attempt", "0")];
        let parse = |hello: &[(&str, &str)], lease: &[(&str, &str)]| -> Result<(), String> {
            transport::parse_hello(&json::parse(&fields(hello)).unwrap())?;
            transport::parse_lease(&json::parse(&fields(lease)).unwrap())?;
            Ok(())
        };
        // A fully valid session parses (running it is exercised by the
        // torture tests); here, check each way it can be malformed.
        assert_eq!(parse(&hello, &lease), Ok(()));
        for (name, bad) in [
            ("scale", "\"huge\""),
            ("wrap_oob", "\"yes\""),
            ("trials", "\"5-1\""),
            ("seed", "\"not-a-number\""),
            ("workload", "\"no-such-workload\""),
        ] {
            fn swap<'a>(
                list: &[(&'a str, &'a str)],
                name: &str,
                bad: &'a str,
            ) -> Vec<(&'a str, &'a str)> {
                list.iter().map(|&(k, v)| (k, if k == name { bad } else { v })).collect()
            }
            let (h, l) = (swap(&hello, name, bad), swap(&lease, name, bad));
            assert!(parse(&h, &l).is_err(), "{name}={bad} must be rejected");
        }
        let missing: Vec<(&str, &str)> =
            hello.iter().copied().filter(|(k, _)| *k != "workload").collect();
        assert!(parse(&missing, &lease).is_err(), "missing workload must be rejected");
    }
}
