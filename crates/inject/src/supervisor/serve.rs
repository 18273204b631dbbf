//! The worker side of the protocol: one session handler, served over a
//! socket by the `__serve` daemon and over stdin/stdout by `__worker`
//! subprocesses.
//!
//! `campaign --listen host:port` runs one daemon per worker machine. The
//! daemon binds the socket, announces the bound address on stdout as a
//! single JSON line (`{"mbavf_serve": 1, "listen": "ip:port"}` — port 0
//! requests an ephemeral port, so callers parse this line), and then serves
//! supervisor connections forever, one thread per connection. A `__worker`
//! subprocess serves exactly one session on its stdin/stdout and exits
//! when the supervisor closes its stdin.
//!
//! Per session: the supervisor sends a *hello* frame carrying the protocol
//! version, the lease budget, the batch width, and the full campaign
//! config; the worker builds a [`TrialExecutor`] from it (golden run,
//! sampler, arena or lockstep batch — paid once per session, reused across
//! leases). Each subsequent *lease* frame names a trial range; the worker
//! answers with the fingerprint handshake, one record frame per trial in
//! order, and a `done` sentinel, while a side thread emits `{"hb": N}`
//! heartbeat frames (N = trials completed in this lease) so the
//! supervisor's progress-gated lease can distinguish a slow-but-alive
//! worker from a dead or livelocked one.
//!
//! The worker holds no shard state between leases — after any disconnect
//! the supervisor simply reconnects (or respawns) and leases whatever its
//! merge is still missing, and the idempotent merge makes re-delivered
//! records harmless.
//!
//! **Drain:** a cancelled supervisor sends a `{"drain": true}` frame
//! instead of severing the socket. The daemon finishes the trial group in
//! flight, stops taking new ones, and answers `{"drained": N}` (N = trials
//! completed in the interrupted lease) — the record stream up to that
//! point has already been delivered, so the supervisor's merge holds
//! everything the daemon did. The connection then parts cleanly and the
//! daemon keeps serving other (or future) campaigns.

use super::transport::{parse_hello, parse_lease, render_record, spawn_reader, write_frame, Hello};
use super::PROTOCOL_VERSION;
use crate::campaign::{golden_shape, Outcome, SiteSampler, TrialExecutor};
use crate::chaos::{ChaosEngine, Fault, OpClass};
use crate::checkpoint;
use crate::drill::{self, drills};
use crate::json;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

/// Version of the `__serve` stdout announcement line.
pub const SERVE_VERSION: u64 = 1;

/// Entry point for the hidden `__serve` argv (`campaign __serve --listen
/// host:port`, also reachable as `campaign --listen host:port`). Hosting
/// binaries must dispatch it before normal flag parsing, exactly like
/// `__worker`. Serves forever; returns non-zero only if the socket cannot
/// be bound.
pub fn serve_main(args: &[String]) -> i32 {
    match serve_run(args) {
        Ok(()) => 0,
        Err(detail) => {
            eprintln!("serve: {detail}");
            1
        }
    }
}

/// Entry point for the hidden `__worker` argv. Hosting binaries (the
/// campaign CLI, `harness = false` test binaries) must call this before
/// anything else when `argv[1] == "__worker"` and exit with the returned
/// code. The worker serves one session on stdin/stdout; the arguments are
/// ignored, since the campaign config arrives in the hello frame.
///
/// Returns 0 once the supervisor closes the session, 1 if it failed. A
/// fatal configuration error is also sent as an `{"error": "<detail>"}`
/// frame, which the supervisor reports as [`SupervisorError::WorkerFatal`]
/// instead of retrying.
///
/// [`SupervisorError::WorkerFatal`]: mbavf_core::error::SupervisorError::WorkerFatal
pub fn worker_main(_args: &[String]) -> i32 {
    match handle_conn(std::io::stdin(), std::io::stdout()) {
        Ok(()) => 0,
        Err(detail) => {
            eprintln!("worker: {detail}");
            1
        }
    }
}

fn serve_run(args: &[String]) -> Result<(), String> {
    let addr = args
        .windows(2)
        .find(|w| w[0] == "--listen")
        .map(|w| w[1].as_str())
        .ok_or("missing --listen HOST:PORT")?;
    let listener = TcpListener::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let local = listener.local_addr().map_err(|e| format!("local_addr: {e}"))?;
    // The announcement line is the daemon's only stdout output; callers
    // (tests, CI, orchestration) parse it to learn the ephemeral port.
    println!("{{\"mbavf_serve\": {SERVE_VERSION}, \"listen\": \"{local}\"}}");
    std::io::stdout().flush().map_err(|e| format!("stdout: {e}"))?;
    for stream in listener.incoming() {
        match stream {
            Ok(stream) => {
                std::thread::spawn(move || {
                    let _ = stream.set_nodelay(true);
                    let result = match (stream.try_clone(), stream.try_clone()) {
                        (Ok(reader), Ok(writer)) => handle_conn(reader, writer),
                        (Err(e), _) | (_, Err(e)) => Err(format!("cloning stream: {e}")),
                    };
                    // The session's reader thread blocks on its own clone of
                    // the socket; only a shutdown unblocks it.
                    let _ = stream.shutdown(Shutdown::Both);
                    if let Err(detail) = result {
                        eprintln!("serve: connection failed: {detail}");
                    }
                });
            }
            Err(e) => eprintln!("serve: accept failed: {e}"),
        }
    }
    Ok(())
}

/// Send one frame through the shared writer (record stream and heartbeat
/// thread interleave whole frames, never bytes).
fn send<W: Write>(writer: &Mutex<W>, payload: &str) -> Result<(), String> {
    let mut w = writer.lock().expect("writer lock");
    write_frame(&mut *w, payload).map_err(|e| format!("writing frame: {e}"))
}

/// Tear the stream the way a dying peer does: a length prefix promising
/// bytes that never come.
fn tear<W: Write>(writer: &Mutex<W>) {
    let mut w = writer.lock().expect("writer lock");
    let _ = w.write_all(&64u32.to_be_bytes());
    let _ = w.write_all(b"{\"trial\": ");
    let _ = w.flush();
}

/// Serve one session: hello, then leases until the supervisor closes.
fn handle_conn<R, W>(reader: R, writer: W) -> Result<(), String>
where
    R: Read + Send + 'static,
    W: Write + Send,
{
    // Incoming frames flow through a reader thread so the lease executor
    // can poll for a mid-lease `drain` frame between trial groups without
    // blocking on the stream. The channel disconnects when the supervisor
    // closes its end.
    let frames = spawn_reader(reader);
    let writer = Mutex::new(writer);
    let hello = match frames.recv() {
        Ok(Ok(frame)) => frame,
        Ok(Err(detail)) => return Err(format!("reading hello: {detail}")),
        Err(mpsc::RecvError) => return Ok(()), // probe connection; nothing to serve
    };
    // A fatal configuration error is reported in-band before hanging up.
    let fatal = |detail: String| -> String {
        let mut frame = String::from("{\"error\": ");
        json::write_str(&mut frame, &detail);
        frame.push('}');
        let _ = send(&writer, &frame);
        detail
    };
    let v = json::parse(&hello).map_err(|d| fatal(format!("bad hello frame: {d}")))?;
    let Hello { workload, cfg, lease_ms, batch_width } = parse_hello(&v).map_err(fatal)?;
    let golden = golden_shape(&workload, &cfg).map_err(|e| fatal(e.to_string()))?;
    let sampler = SiteSampler::new(&golden.per_wg_retired, golden.num_vregs)
        .map_err(|e| fatal(e.to_string()))?;
    let mut exec = TrialExecutor::new(&workload, &cfg, &golden, &sampler, batch_width);
    let fingerprint = checkpoint::config_fingerprint(workload.name, &cfg);
    let handshake =
        format!("{{\"mbavf_worker\": {PROTOCOL_VERSION}, \"fingerprint\": {fingerprint}}}");
    let hb_every = Duration::from_millis((lease_ms / 3).max(10));

    // Byzantine drill: a mercurial core computes every trial correctly,
    // then flips the verdict on a deterministic chaos schedule before
    // reporting it. The engine is session-local and NEVER installed
    // globally: a global install would fault the worker's own frame
    // writes, and this drill is about lies, not losses.
    let liar = match &drills().lie {
        Some(Ok(spec)) => Some(ChaosEngine::new(*spec)),
        Some(Err(detail)) => return Err(detail.clone()),
        None => None,
    };

    loop {
        let lease = match frames.recv() {
            Ok(Ok(frame)) => frame,
            Ok(Err(detail)) => return Err(format!("reading lease: {detail}")),
            Err(mpsc::RecvError) => return Ok(()), // supervisor closed: campaign over
        };
        let v = json::parse(&lease).map_err(|d| format!("bad lease frame: {d}"))?;
        if v.get("drain").is_some() {
            // Drained between leases: nothing in flight, nothing unsent.
            // Ack and keep the connection; the supervisor parts by closing.
            send(&writer, "{\"drained\": 0}")?;
            continue;
        }
        let (trials, attempt) = parse_lease(&v)?;
        send(&writer, &handshake)?;
        let lease = Lease { writer: &writer, frames: &frames, trials: &trials, attempt };
        if !lease.run(&mut exec, hb_every, liar.as_ref())? {
            return Ok(());
        }
    }
}

/// The lie a verdict-flip fault tells: always a *plausible* wrong answer —
/// an error laundered into Masked, or a clean run smeared as SDC — never a
/// malformed record the protocol layer would catch for free.
fn flip_outcome(outcome: Outcome) -> Outcome {
    match outcome {
        Outcome::Masked => Outcome::Sdc,
        Outcome::Sdc | Outcome::Hang => Outcome::Masked,
        Outcome::Crash { .. } => Outcome::Masked,
    }
}

/// How a lease's trial loop ended.
enum LeaseEnd {
    /// Every trial's record was sent.
    Done,
    /// A `drain` frame stopped the lease after this many records.
    Drained(u64),
    /// A drill tore the stream; end the session.
    HangUp,
}

/// One lease being served.
struct Lease<'a, W> {
    writer: &'a Mutex<W>,
    frames: &'a mpsc::Receiver<Result<String, String>>,
    trials: &'a [u64],
    attempt: u32,
}

impl<W: Write + Send> Lease<'_, W> {
    /// Stream the lease's record frames with the heartbeat thread running
    /// alongside, then — once no heartbeat can trail it — the `done` or
    /// `drained` frame. Returns whether to keep serving the session.
    fn run(
        &self,
        exec: &mut TrialExecutor,
        hb_every: Duration,
        liar: Option<&ChaosEngine>,
    ) -> Result<bool, String> {
        let progress = AtomicU64::new(0);
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let end = std::thread::scope(|scope| {
            let (writer, progress) = (self.writer, &progress);
            scope.spawn(move || {
                while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(hb_every) {
                    let frame = format!("{{\"hb\": {}}}", progress.load(Ordering::SeqCst));
                    if send(writer, &frame).is_err() {
                        return; // lease revoked: the supervisor severed us
                    }
                }
            });
            let result = self.serve(exec, liar, progress);
            let _ = stop_tx.send(());
            result
        })?;
        match end {
            LeaseEnd::Done => send(self.writer, &format!("{{\"done\": {}}}", self.trials.len()))?,
            LeaseEnd::Drained(n) => send(self.writer, &format!("{{\"drained\": {n}}}"))?,
            LeaseEnd::HangUp => return Ok(false),
        }
        Ok(true)
    }

    /// Run the lease's trials group by group. A group is the trial
    /// boundary: a `drain` frame is honoured, and the drills of
    /// [`crate::drill`] fire, only between groups. The first attempt runs
    /// groups of the executor's batch width; a retry runs one trial per
    /// group, so a trial that kills its worker is isolated at the head of
    /// the shard however wide the batch.
    fn serve(
        &self,
        exec: &mut TrialExecutor,
        liar: Option<&ChaosEngine>,
        progress: &AtomicU64,
    ) -> Result<LeaseEnd, String> {
        let d = drills();
        let first = self.attempt == 0;
        let group_len = if first { exec.width() } else { 1 };
        let mut sent: Vec<String> = Vec::new();
        let mut done = 0u64;
        for group in self.trials.chunks(group_len) {
            // Every record of earlier groups is already on the wire, so the
            // drained count tells the supervisor exactly what this lease
            // accomplished.
            match self.frames.try_recv() {
                Ok(Ok(frame)) => {
                    let v = json::parse(&frame).map_err(|d| format!("bad mid-lease frame: {d}"))?;
                    if v.get("drain").is_none() {
                        return Err(format!(
                            "unexpected frame mid-lease: {:?}",
                            frame.chars().take(120).collect::<String>()
                        ));
                    }
                    return Ok(LeaseEnd::Drained(done));
                }
                Ok(Err(detail)) => return Err(format!("reading mid-lease: {detail}")),
                Err(mpsc::TryRecvError::Empty) => {}
                Err(mpsc::TryRecvError::Disconnected) => {
                    // The supervisor severed us: the lease is revoked. Stop
                    // running trials nobody will merge.
                    return Err("connection closed mid-lease".into());
                }
            }
            if drill::hits(d.abort, group) {
                std::process::abort();
            }
            if (first && drill::hits(d.kill, group)) || drill::hits(d.net_kill, group) {
                drill::sigkill_self();
            }
            if first && drill::hits(d.trunc, group) {
                tear(self.writer);
                return Ok(LeaseEnd::HangUp);
            }
            if drill::hits(d.net_stall, group) {
                // Freeze the executor with the heartbeat still beating: the
                // supervisor's progress-gated lease must expire and revoke
                // even though frames keep arriving.
                std::thread::sleep(Duration::from_secs(3600));
            }
            exec.run_group(group, |mut record, us| {
                if liar.is_some_and(|e| e.draw(OpClass::Verdict) == Fault::VerdictFlip) {
                    // The Byzantine lie: a correct computation, reported
                    // wrong — the failure mode only an audit can catch.
                    record.outcome = flip_outcome(record.outcome);
                }
                let payload = render_record(&record, us);
                send(self.writer, &payload)?;
                done += 1;
                progress.store(done, Ordering::SeqCst);
                if d.net.is_some() {
                    sent.push(payload);
                }
                Ok::<(), String>(())
            })?;
            if first && drill::hits(d.net, group) {
                // Hostile-network drill: replay every record already sent
                // in this lease (duplicates the merge must drop without
                // recounting), then tear a frame and hang up.
                for payload in &sent {
                    send(self.writer, payload)?;
                }
                tear(self.writer);
                return Err("net drill severed the connection".into());
            }
        }
        Ok(LeaseEnd::Done)
    }
}
