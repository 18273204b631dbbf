//! The supervisor↔worker channel: one framed protocol, two ways to reach
//! a worker.
//!
//! Every worker speaks the same session, whether it is a local subprocess
//! talking over its stdin/stdout or a `campaign --listen` daemon behind a
//! socket: the supervisor sends a *hello* frame carrying the campaign
//! config, then one *lease* frame per shard; the worker answers each lease
//! with the fingerprint handshake, one record frame per trial (interleaved
//! with `hb` heartbeat frames), and a `done` sentinel. A [`Transport`]'s
//! [`Connector`] decides only how the byte stream is obtained:
//!
//! * [`Connector::Spawn`] starts `current_exe __worker` (or a test
//!   override) and talks over its pipes. The child lives across leases;
//!   revocation kills it and the next lease respawns it. Deadlines are the
//!   fixed whole-shard watchdog.
//! * [`Connector::Dial`] connects to a worker daemon and redials on loss
//!   (the daemon is stateless between leases, so a reconnect simply
//!   re-leases whatever is still missing); revocation severs the socket.
//!   Deadlines slide on progress.
//!
//! Frames are a `u32` big-endian length prefix followed by that many bytes
//! of UTF-8 JSON. A frame cut short by a dying peer ends the stream, which
//! the stream loop observes as EOF; a stream that is not framed at all
//! (oversized length, non-UTF-8) is reported as [`ChannelEvent::Garbage`].

use super::lease::DeadlinePolicy;
use super::{format_trials, parse_trials, PROTOCOL_VERSION};
use crate::campaign::{CampaignConfig, FaultSite, Outcome, OutcomeKind, SingleBitRecord};
use crate::json::{self, Value};
use mbavf_core::error::TransportError;
use mbavf_workloads::{by_name, Scale, Workload};
use std::fmt::Write as _;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::time::{Duration, Instant};

/// Hard cap on a single frame's payload. A record frame is ~200 bytes; a
/// length prefix beyond this is garbage (or an attack), not a record.
pub(crate) const MAX_FRAME: usize = 1 << 20;

/// Write one length-delimited frame and flush it.
///
/// The write is subject to a [`crate::chaos`] verdict: an injected fault
/// tears or fails the frame exactly as a dying peer would, and the stream
/// loop's existing reconnect/redial machinery is what recovers — chaos
/// proves that machinery, it does not get special handling.
pub(crate) fn write_frame<W: Write>(w: &mut W, payload: &str) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            TransportError::FrameTooLarge { len: payload.len() as u64, cap: MAX_FRAME as u64 },
        ));
    }
    let len = payload.len() as u32;
    let mut bytes = Vec::with_capacity(4 + payload.len());
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(payload.as_bytes());
    match crate::chaos::draw(crate::chaos::OpClass::Frame) {
        crate::chaos::Fault::None => {}
        crate::chaos::Fault::Stall { millis } => {
            std::thread::sleep(Duration::from_millis(u64::from(millis)));
        }
        crate::chaos::Fault::Torn { keep_64ths } => {
            let keep = bytes.len() * usize::from(keep_64ths) / 64;
            w.write_all(&bytes[..keep])?;
            let _ = w.flush();
            return Err(std::io::Error::other(format!(
                "chaos: injected torn frame ({keep} of {} bytes sent)",
                bytes.len()
            )));
        }
        _ => return Err(std::io::Error::other("chaos: injected frame write error")),
    }
    w.write_all(&bytes)?;
    w.flush()
}

/// Read one length-delimited frame. `Ok(None)` is a clean EOF at a frame
/// boundary; EOF anywhere inside a frame (a torn write from a dying peer)
/// is an error, as are oversized lengths and non-UTF-8 payloads.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < len_buf.len() {
        let n = r.read(&mut len_buf[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "torn frame: EOF inside the length prefix",
            ));
        }
        got += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        // Reject before allocating: the prefix is attacker-controlled input,
        // and honoring it would size a buffer to a hostile peer's choosing.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            TransportError::FrameTooLarge { len: len as u64, cap: MAX_FRAME as u64 },
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map(Some).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, "frame payload is not UTF-8")
    })
}

/// Serialize the session hello the supervisor sends a worker: protocol
/// version, lease budget, lockstep batch width, and the full campaign
/// configuration the worker builds its executor from.
pub(crate) fn render_hello(
    workload: &str,
    cfg: &CampaignConfig,
    lease_timeout: Duration,
    batch_width: usize,
) -> String {
    let scale = match cfg.scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    };
    let mut out = String::with_capacity(192);
    let _ = write!(
        out,
        "{{\"mbavf_hello\": {PROTOCOL_VERSION}, \"lease_ms\": {}, \"batch_width\": {batch_width}, \"workload\": ",
        lease_timeout.as_millis(),
    );
    json::write_str(&mut out, workload);
    let _ = write!(
        out,
        ", \"seed\": {}, \"scale\": \"{scale}\", \"hang_factor\": {}, \"wrap_oob\": {}, \"mode_bits\": {}}}",
        cfg.seed, cfg.hang_factor, cfg.wrap_oob, cfg.mode_bits,
    );
    out
}

/// A parsed hello frame: everything a worker needs to serve a campaign.
pub(crate) struct Hello {
    pub(crate) workload: Workload,
    pub(crate) cfg: CampaignConfig,
    pub(crate) lease_ms: u64,
    pub(crate) batch_width: usize,
}

/// Parse and validate the supervisor's hello frame.
pub(crate) fn parse_hello(v: &Value) -> Result<Hello, String> {
    let field = |k: &str| {
        v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("hello frame missing \"{k}\""))
    };
    let version = field("mbavf_hello")?;
    if version != PROTOCOL_VERSION {
        return Err(format!(
            "unsupported protocol version {version} (this worker speaks {PROTOCOL_VERSION})"
        ));
    }
    let name = v
        .get("workload")
        .and_then(Value::as_str)
        .ok_or_else(|| "hello frame missing \"workload\"".to_string())?;
    let workload = by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let scale = match v.get("scale").and_then(Value::as_str) {
        Some("test") => Scale::Test,
        Some("paper") => Scale::Paper,
        other => return Err(format!("hello frame has bad \"scale\" {other:?}")),
    };
    let batch_width = match field("batch_width")? {
        0 => return Err("hello frame \"batch_width\" must be at least 1".into()),
        w => usize::try_from(w).map_err(|_| "hello frame \"batch_width\" out of range")?,
    };
    let cfg = CampaignConfig {
        seed: field("seed")?,
        // The budget is excluded from the fingerprint; the trials to run
        // arrive per lease.
        injections: 1,
        scale,
        hang_factor: field("hang_factor")?,
        wrap_oob: v
            .get("wrap_oob")
            .and_then(Value::as_bool)
            .ok_or_else(|| "hello frame missing \"wrap_oob\"".to_string())?,
        mode_bits: u8::try_from(field("mode_bits")?)
            .map_err(|_| "hello frame \"mode_bits\" out of range".to_string())?,
    };
    Ok(Hello { workload, cfg, lease_ms: field("lease_ms")?, batch_width })
}

/// Parse a lease frame into its trial list and attempt number.
pub(crate) fn parse_lease(v: &Value) -> Result<(Vec<u64>, u32), String> {
    let trials = v
        .get("trials")
        .and_then(Value::as_str)
        .ok_or_else(|| "lease frame missing \"trials\"".to_string())?;
    let attempt = v.get("attempt").and_then(Value::as_u64).unwrap_or(0);
    Ok((parse_trials(trials)?, u32::try_from(attempt).unwrap_or(u32::MAX)))
}

/// Serialize one trial record: the checkpoint record fields plus `"us"`,
/// the trial's wall-clock in microseconds.
pub(crate) fn render_record(r: &SingleBitRecord, us: u64) -> String {
    let mut out = String::with_capacity(128);
    let _ = write!(
        out,
        "{{\"trial\": {}, \"wg\": {}, \"after\": {}, \"reg\": {}, \"lane\": {}, \"bit\": {}, \"outcome\": \"{}\", ",
        r.trial,
        r.site.wg,
        r.site.after_retired,
        r.site.reg,
        r.site.lane,
        r.site.bit,
        r.outcome.kind().as_str(),
    );
    if let Outcome::Crash { reason } = &r.outcome {
        out.push_str("\"reason\": ");
        json::write_str(&mut out, reason);
        out.push_str(", ");
    }
    let _ = write!(out, "\"read\": {}, \"us\": {us}}}", r.read_before_overwrite);
    out
}

/// Parse a [`render_record`] payload back into the record and its latency.
pub(crate) fn parse_record(v: &Value) -> Result<(SingleBitRecord, u64), String> {
    let field = |k: &str| {
        v.get(k).and_then(Value::as_u64).ok_or_else(|| format!("missing or non-integer \"{k}\""))
    };
    let kind = v
        .get("outcome")
        .and_then(Value::as_str)
        .and_then(OutcomeKind::parse)
        .ok_or_else(|| "missing or unknown \"outcome\"".to_string())?;
    let outcome = match kind {
        OutcomeKind::Masked => Outcome::Masked,
        OutcomeKind::Sdc => Outcome::Sdc,
        OutcomeKind::Hang => Outcome::Hang,
        OutcomeKind::Crash => Outcome::Crash {
            reason: v
                .get("reason")
                .and_then(Value::as_str)
                .unwrap_or("unrecorded crash reason")
                .to_string(),
        },
    };
    let read =
        v.get("read").and_then(Value::as_bool).ok_or_else(|| "missing \"read\"".to_string())?;
    let record = SingleBitRecord {
        trial: field("trial")?,
        site: FaultSite {
            wg: u32::try_from(field("wg")?).map_err(|_| "\"wg\" out of range".to_string())?,
            after_retired: field("after")?,
            reg: u8::try_from(field("reg")?).map_err(|_| "\"reg\" out of range".to_string())?,
            lane: u8::try_from(field("lane")?).map_err(|_| "\"lane\" out of range".to_string())?,
            bit: u8::try_from(field("bit")?).map_err(|_| "\"bit\" out of range".to_string())?,
        },
        outcome,
        read_before_overwrite: read,
    };
    Ok((record, field("us")?))
}

/// What [`Transport::recv`] observed.
pub(crate) enum ChannelEvent {
    /// One protocol message (a frame payload).
    Msg(String),
    /// Bytes arrived that are not a frame stream.
    Garbage(String),
    /// Nothing arrived within the wait budget.
    Idle,
    /// The channel ended: the subprocess exited or the connection closed.
    Eof {
        /// Exit status or connection-loss description, for failure reports.
        status: String,
    },
}

/// How a handler reaches its worker, and how long a lease may run.
pub(crate) enum Connector {
    /// A local subprocess speaking the protocol over its stdin/stdout:
    /// `argv` (a test override) or `current_exe __worker`, plus extra
    /// environment variables. Each lease gets a fixed `watchdog` budget.
    Spawn { argv: Option<Vec<String>>, env: Vec<(String, String)>, watchdog: Duration },
    /// A `campaign --listen` worker daemon at `host:port`. Each lease gets
    /// a sliding deadline of `lease`, renewed on progress.
    Dial { addr: String, lease: Duration },
}

/// How long a child whose stdin was closed between leases gets to end its
/// session before it is killed.
const REAP_GRACE: Duration = Duration::from_secs(2);

enum Peer {
    /// The child, and a read end of its stdin pipe held open so that a
    /// write to a child that already exited lands in the pipe buffer
    /// instead of raising SIGPIPE — the death is observed as EOF on the
    /// child's stdout, like every other worker death.
    Child {
        child: Child,
        _stdin_read: std::io::PipeReader,
    },
    Socket(TcpStream),
}

struct Conn {
    writer: Box<dyn Write + Send>,
    rx: Receiver<Result<String, String>>,
    peer: Peer,
}

impl Conn {
    /// End the connection. A socket is shut down, which also unblocks the
    /// reader thread. A child is reaped: killed at once when `kill`, else
    /// its stdin is closed so it ends its session, and it is killed only if
    /// its stdout stays open past [`REAP_GRACE`]. Returns the exit status.
    fn close(mut self, mut kill: bool) -> String {
        let child = match &mut self.peer {
            Peer::Socket(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                return "connection closed".into();
            }
            Peer::Child { child, .. } => child,
        };
        if !kill {
            self.writer = Box::new(std::io::sink());
            let deadline = Instant::now() + REAP_GRACE;
            loop {
                match self.rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(_) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    Err(mpsc::RecvTimeoutError::Timeout) => {
                        kill = true;
                        break;
                    }
                }
            }
        }
        if kill {
            let _ = child.kill();
        }
        child.wait().map(|s| s.to_string()).unwrap_or_else(|e| format!("unwaitable: {e}"))
    }
}

/// Forward frames from `r` until it ends. An I/O failure — a torn final
/// frame, a reset connection — is a dying peer and ends the stream quietly;
/// bytes that do not decode as frames are reported.
pub(crate) fn spawn_reader(r: impl Read + Send + 'static) -> Receiver<Result<String, String>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut r = BufReader::new(r);
        loop {
            let msg = match read_frame(&mut r) {
                Ok(Some(payload)) => Ok(payload),
                Err(e) if e.kind() == std::io::ErrorKind::InvalidData => Err(e.to_string()),
                Ok(None) | Err(_) => return,
            };
            let end = msg.is_err();
            if tx.send(msg).is_err() || end {
                return;
            }
        }
    });
    rx
}

/// One handler's channel to one worker. A lease hands the worker a set of
/// trials; `recv` then streams its messages until `done`, EOF, or
/// revocation. Lease errors are returned for the caller to charge — it
/// owns the retry budget and decides when the channel is dead.
pub(crate) struct Transport {
    connector: Connector,
    /// The session's hello frame, sent on every (re)connect.
    hello: String,
    conn: Option<Conn>,
}

impl Transport {
    pub(crate) fn new(connector: Connector, hello: String) -> Self {
        Transport { connector, hello, conn: None }
    }

    fn connect(&self) -> Result<Conn, String> {
        match &self.connector {
            Connector::Spawn { argv, env, .. } => {
                let argv = match argv {
                    Some(argv) => argv.clone(),
                    None => {
                        let exe = std::env::current_exe()
                            .map_err(|e| format!("current_exe unavailable: {e}"))?;
                        vec![exe.to_string_lossy().into_owned(), "__worker".to_string()]
                    }
                };
                let (stdin_read, stdin_write) =
                    std::io::pipe().map_err(|e| format!("creating worker stdin pipe: {e}"))?;
                let child_stdin =
                    stdin_read.try_clone().map_err(|e| format!("cloning worker stdin: {e}"))?;
                let mut child = Command::new(&argv[0])
                    .args(&argv[1..])
                    .envs(env.iter().map(|(k, v)| (k, v)))
                    .stdin(child_stdin)
                    .stdout(Stdio::piped())
                    .spawn()
                    .map_err(|e| format!("spawning {:?}: {e}", argv[0]))?;
                let stdout = child.stdout.take().expect("worker stdout is piped");
                Ok(Conn {
                    writer: Box::new(stdin_write),
                    rx: spawn_reader(stdout),
                    peer: Peer::Child { child, _stdin_read: stdin_read },
                })
            }
            Connector::Dial { addr, lease } => {
                let timeout = (*lease).min(Duration::from_secs(5));
                let addrs = addr.to_socket_addrs().map_err(|e| format!("resolving {addr}: {e}"))?;
                let mut last_err = format!("{addr} resolves to no addresses");
                for sock in addrs {
                    match TcpStream::connect_timeout(&sock, timeout) {
                        Ok(stream) => {
                            let _ = stream.set_nodelay(true);
                            let clone = || {
                                stream
                                    .try_clone()
                                    .map_err(|e| format!("cloning stream to {addr}: {e}"))
                            };
                            return Ok(Conn {
                                writer: Box::new(clone()?),
                                rx: spawn_reader(clone()?),
                                peer: Peer::Socket(stream),
                            });
                        }
                        Err(e) => last_err = format!("connecting {sock}: {e}"),
                    }
                }
                Err(last_err)
            }
        }
    }

    /// Send one frame on the live connection; a failed send drops it.
    fn send(&mut self, what: &str, payload: &str) -> Result<(), String> {
        let Some(conn) = self.conn.as_mut() else {
            return Err(format!("no connection to {}", self.endpoint()));
        };
        if let Err(e) = write_frame(&mut conn.writer, payload) {
            self.revoke();
            return Err(format!("sending {what} to {}: {e}", self.endpoint()));
        }
        Ok(())
    }

    /// Lease `trials` to the worker, (re)connecting first — spawning the
    /// child or dialing the daemon and sending the hello — if needed.
    pub(crate) fn lease(&mut self, trials: &[u64], attempt: u32) -> Result<(), String> {
        if self.conn.is_none() {
            self.conn = Some(self.connect()?);
            let hello = std::mem::take(&mut self.hello);
            let sent = self.send("hello", &hello);
            self.hello = hello;
            sent?;
        }
        let frame =
            format!("{{\"trials\": \"{}\", \"attempt\": {attempt}}}", format_trials(trials));
        self.send("lease", &frame)
    }

    /// Wait up to `wait` for the next message.
    pub(crate) fn recv(&mut self, wait: Duration) -> ChannelEvent {
        let Some(conn) = &self.conn else {
            return ChannelEvent::Eof { status: format!("no connection to {}", self.endpoint()) };
        };
        match conn.rx.recv_timeout(wait) {
            Ok(Ok(payload)) => ChannelEvent::Msg(payload),
            Ok(Err(detail)) => ChannelEvent::Garbage(detail),
            Err(mpsc::RecvTimeoutError::Timeout) => ChannelEvent::Idle,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = self.conn.take().expect("checked above").close(false);
                ChannelEvent::Eof { status }
            }
        }
    }

    /// Revoke the current lease: kill the child / sever the socket.
    pub(crate) fn revoke(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.close(true);
        }
    }

    /// Ask the worker to stop gracefully: finish the trial in flight, send
    /// a `drained` ack, and part cleanly — the cancellation counterpart of
    /// `revoke`.
    pub(crate) fn drain(&mut self) -> Result<(), String> {
        self.send("drain", "{\"drain\": true}")
    }

    /// How revocation deadlines behave for this transport.
    pub(crate) fn policy(&self) -> DeadlinePolicy {
        match self.connector {
            Connector::Spawn { watchdog, .. } => DeadlinePolicy::Fixed(watchdog),
            Connector::Dial { lease, .. } => DeadlinePolicy::Sliding(lease),
        }
    }

    /// Whether the worker lives on another host: remote endpoints die
    /// without failing the campaign (their shards are re-offered), local
    /// channel failure degrades or is fatal.
    pub(crate) fn is_remote(&self) -> bool {
        matches!(self.connector, Connector::Dial { .. })
    }

    /// Where the worker is, for failure messages.
    pub(crate) fn endpoint(&self) -> String {
        match &self.connector {
            Connector::Spawn { argv: Some(argv), .. } => argv.join(" "),
            Connector::Spawn { argv: None, .. } => "local __worker subprocess".into(),
            Connector::Dial { addr, .. } => addr.clone(),
        }
    }
}

impl Drop for Transport {
    /// Every child is reaped before its handler retires, so none outlive
    /// the campaign and their CPU time is accounted to it.
    fn drop(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.close(false);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip() {
        let mut buf: Vec<u8> = Vec::new();
        write_frame(&mut buf, "{\"trial\": 7}").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), Some("{\"trial\": 7}".to_string()));
        assert_eq!(read_frame(&mut r).unwrap(), Some(String::new()));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF at a frame boundary");
    }

    #[test]
    fn torn_frames_and_oversized_lengths_are_errors() {
        // EOF inside the length prefix.
        let mut r: &[u8] = &[0u8, 0];
        assert!(read_frame(&mut r).is_err());
        // EOF inside the payload: a peer that died mid-write.
        let mut torn: Vec<u8> = Vec::new();
        torn.extend_from_slice(&64u32.to_be_bytes());
        torn.extend_from_slice(b"{\"trial\": ");
        let mut r = torn.as_slice();
        assert!(read_frame(&mut r).is_err());
        // A length prefix beyond the cap is rejected before allocation,
        // with a typed error naming both the claim and the cap.
        let mut huge: Vec<u8> = Vec::new();
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = huge.as_slice();
        let err = read_frame(&mut r).unwrap_err();
        let typed = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<TransportError>())
            .expect("oversized length yields a typed TransportError");
        assert_eq!(
            *typed,
            TransportError::FrameTooLarge { len: u64::from(u32::MAX), cap: MAX_FRAME as u64 }
        );
        // The outbound payload cap is the same typed error.
        let mut sink: Vec<u8> = Vec::new();
        let err = write_frame(&mut sink, &"x".repeat(MAX_FRAME + 1)).unwrap_err();
        assert!(matches!(
            err.get_ref().and_then(|e| e.downcast_ref::<TransportError>()),
            Some(TransportError::FrameTooLarge { .. })
        ));
        // Non-UTF-8 payloads are rejected.
        let mut bad: Vec<u8> = Vec::new();
        bad.extend_from_slice(&2u32.to_be_bytes());
        bad.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = bad.as_slice();
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn hello_carries_the_campaign_config() {
        let cfg = CampaignConfig { seed: 0xACE5, ..CampaignConfig::default() };
        let hello = render_hello("transpose", &cfg, Duration::from_secs(30), 8);
        let v = crate::json::parse(&hello).unwrap();
        assert_eq!(
            v.get("mbavf_hello").and_then(crate::json::Value::as_u64),
            Some(super::super::PROTOCOL_VERSION)
        );
        assert_eq!(v.get("lease_ms").and_then(crate::json::Value::as_u64), Some(30_000));
        assert_eq!(v.get("workload").and_then(crate::json::Value::as_str), Some("transpose"));
        assert_eq!(v.get("seed").and_then(crate::json::Value::as_u64), Some(0xACE5));
    }
}
