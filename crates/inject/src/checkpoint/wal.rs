//! The write-ahead trial journal: append-only, CRC32-framed durability for
//! every committed trial between checkpoint snapshots.
//!
//! The periodic snapshot ([`super::save`]) is an O(N) rewrite, so it runs
//! on a cadence — which used to mean a crash could discard up to a whole
//! cadence of committed trials. The journal closes that gap with group
//! commit: the records of one lockstep group (one [`WalWriter::append_group`]
//! call, at most the batch width) are framed into one buffer, written with
//! one `write` and made durable with one `fsync`, and only then count as
//! committed. After any crash at most the one *in-flight* group is lost —
//! none of its trials counted yet — never a committed one. At batch width 1
//! a group is a single trial.
//!
//! ## On-disk format (journal version 1)
//!
//! A sequence of frames, each:
//!
//! ```text
//! [u32 BE payload length][u32 BE CRC-32 of payload][payload bytes]
//! ```
//!
//! The first frame's payload is a JSON header naming the journal version,
//! checkpoint format version, workload, config fingerprint, and fault-mode
//! width — so a journal can never be replayed against the wrong campaign.
//! Every later frame's payload is one trial record, in the exact JSON shape
//! the snapshot uses ([`super::write_record`]).
//!
//! ## Recovery
//!
//! [`recover`] scans frames front to back and distinguishes two kinds of
//! damage:
//!
//! - a **torn tail** — the file ends inside a frame, the signature of a
//!   crash mid-append. Expected; the tail is truncated in place and every
//!   complete frame survives.
//! - **corruption** — a CRC mismatch, an absurd length, or an unparseable
//!   payload before the end. Not a crash signature; the whole journal is
//!   moved aside through the shared no-clobber quarantine
//!   ([`crate::durable::quarantine_corrupt`]) as evidence, and the frames
//!   that scanned clean before the damage still count.
//!
//! Recovered records are merged into the snapshot state through the same
//! idempotent trial-index merge the networked supervisor uses, so frames
//! duplicating already-snapshotted trials (a crash between compaction and
//! journal reset) are dropped without double-counting.

use super::{parse_record, write_record, VERSION};
use crate::campaign::SingleBitRecord;
use crate::durable::{chaos_fsync, chaos_write, quarantine_corrupt, with_retry};
use crate::json::{self, Value};
use mbavf_core::crc::crc32;
use mbavf_core::error::CheckpointError;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};

/// Journal format version, independent of the checkpoint snapshot version.
pub const WAL_VERSION: u64 = 1;

/// Upper bound on a sane frame payload; a length prefix beyond this is
/// corruption, not a frame (mirrors the transport's frame cap).
const MAX_FRAME: usize = 1 << 20;

/// Where the journal for `checkpoint` lives: `<checkpoint>.wal`.
pub fn wal_path(checkpoint: &Path) -> PathBuf {
    let mut name = checkpoint.as_os_str().to_os_string();
    name.push(".wal");
    PathBuf::from(name)
}

fn push_frame(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
}

fn header_payload(workload: &str, config_hash: u64, mode_bits: u8) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(out, "{{\"wal\": {WAL_VERSION}, \"version\": {VERSION}, \"workload\": ");
    json::write_str(&mut out, workload);
    let _ = write!(out, ", \"config_hash\": {config_hash}, \"mode_bits\": {mode_bits}}}");
    out
}

fn io_err(path: &Path, e: &std::io::Error) -> CheckpointError {
    CheckpointError::Io { path: path.display().to_string(), detail: e.to_string() }
}

/// An open journal accepting one group of frames per commit.
///
/// A clean append is one `write` and one `fsync`. Appends are
/// self-repairing under retry: once an attempt has failed, the file is
/// truncated back to the last committed frame boundary before the next
/// write, so a torn write from a failed attempt can never leave a
/// half-frame in front of a later successful one.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Byte length of the journal's committed (fsynced, whole-frame) prefix.
    committed: u64,
    /// Whether the file may hold bytes past `committed` (a failed attempt,
    /// or a reset): the next write rolls back first.
    dirty: bool,
    /// The group being appended, framed; reused across appends.
    buf: Vec<u8>,
}

impl WalWriter {
    /// Create (or wipe and re-create) the journal for `checkpoint`, writing
    /// the campaign header frame.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the journal cannot be opened or the
    /// header cannot be made durable.
    pub fn create(
        checkpoint: &Path,
        workload: &str,
        config_hash: u64,
        mode_bits: u8,
    ) -> Result<WalWriter, CheckpointError> {
        let path = wal_path(checkpoint);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err(&path, &e))?;
        let mut writer = WalWriter { path, file, committed: 0, dirty: true, buf: Vec::new() };
        writer.reset(workload, config_hash, mode_bits)?;
        Ok(writer)
    }

    /// Append one committed trial record as a durable frame: a group of
    /// one ([`Self::append_group`]).
    ///
    /// # Errors
    ///
    /// As [`Self::append_group`].
    pub fn append(&mut self, record: &SingleBitRecord) -> Result<(), CheckpointError> {
        let mut payload = String::with_capacity(96);
        write_record(&mut payload, record);
        self.append_group([payload.as_str()])
    }

    /// Append a group of record payloads — each a record serialized by
    /// [`super::write_record`] — as consecutive frames with one `write` and
    /// one `fsync`. The group is durable, whole, when this returns `Ok`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] once bounded retry is exhausted, or
    /// [`CheckpointError::Malformed`] when any payload is longer than
    /// [`MAX_FRAME`], which rejects the whole group unwritten. Either way the
    /// journal is left at its previous committed length, so the writer
    /// stays usable if the caller wants to continue.
    pub fn append_group<'t>(
        &mut self,
        payloads: impl IntoIterator<Item = &'t str>,
    ) -> Result<(), CheckpointError> {
        self.buf.clear();
        for (i, payload) in payloads.into_iter().enumerate() {
            if payload.len() > MAX_FRAME {
                // Mirror the transport's write_frame cap: recover() treats
                // any length prefix past MAX_FRAME as corruption, so writing
                // such a frame now would quarantine the whole journal — and
                // discard every frame after this one — at the next resume.
                let head: String = payload.chars().take(24).collect();
                return Err(CheckpointError::Malformed {
                    detail: format!(
                        "record {i} of the group ({head}…) serializes to {} bytes, over the \
                         {MAX_FRAME}-byte journal frame cap",
                        payload.len()
                    ),
                });
            }
            push_frame(&mut self.buf, payload.as_bytes());
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        self.write_group()
    }

    /// Reset the journal to just the campaign header — called after each
    /// successful snapshot compaction, which has made every journaled
    /// record durable elsewhere. A crash *between* compaction and reset is
    /// safe: the stale frames replay as idempotent-merge duplicates.
    pub fn reset(
        &mut self,
        workload: &str,
        config_hash: u64,
        mode_bits: u8,
    ) -> Result<(), CheckpointError> {
        // Committed length 0 plus the dirty mark: the write that follows
        // truncates the file to nothing before laying down the header.
        self.committed = 0;
        self.dirty = true;
        self.buf.clear();
        push_frame(&mut self.buf, header_payload(workload, config_hash, mode_bits).as_bytes());
        self.write_group()
    }

    /// Write `buf` at the committed boundary and fsync it, with bounded
    /// retry. Only a dirty file (after a failed attempt or a reset) is
    /// rolled back to `committed` first; the clean path is write + fsync.
    fn write_group(&mut self) -> Result<(), CheckpointError> {
        let WalWriter { path, file, committed, dirty, buf } = self;
        let committed = *committed;
        with_retry(|| {
            if *dirty {
                file.set_len(committed)?;
                file.seek(SeekFrom::Start(committed))?;
            }
            // Until the fsync returns, the bytes past `committed` are in
            // doubt: a failure anywhere below leaves the file dirty.
            *dirty = true;
            chaos_write(file, buf)?;
            chaos_fsync(file)?;
            *dirty = false;
            Ok(())
        })
        .map_err(|e| {
            // Best-effort rollback so a torn final attempt is not left
            // dangling past the committed boundary.
            let _ = file.set_len(committed);
            io_err(path, &e)
        })?;
        self.committed += self.buf.len() as u64;
        Ok(())
    }
}

/// What [`recover`] found in (and did to) the journal.
#[derive(Debug, Default)]
pub struct WalRecovery {
    /// Records from intact frames, in append order.
    pub records: Vec<SingleBitRecord>,
    /// Bytes dropped as a torn tail (the file was truncated in place).
    pub torn_tail: u64,
    /// Where the journal was moved when corruption or a foreign header was
    /// found (`<path>.corrupt[.N]`, via the shared quarantine).
    pub quarantined: Option<PathBuf>,
}

/// Scan the journal for `checkpoint`, truncate any torn tail, quarantine
/// corruption, and return every surviving record.
///
/// A missing or empty journal is not an event — campaigns predating the
/// journal, or crashes before the header frame landed, recover to "nothing
/// journaled" with no noise.
///
/// # Errors
///
/// [`CheckpointError::Io`] only for hard filesystem failures (the journal
/// exists but cannot be read). Damage is never an error: torn tails
/// truncate, corruption quarantines, and both preserve every frame that
/// scanned clean.
pub fn recover(
    checkpoint: &Path,
    workload: &str,
    config_hash: u64,
) -> Result<WalRecovery, CheckpointError> {
    let path = wal_path(checkpoint);
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(WalRecovery::default()),
        Err(e) => return Err(io_err(&path, &e)),
    };
    if bytes.is_empty() {
        return Ok(WalRecovery::default());
    }

    // Scan frames until the end, a torn tail, or corruption.
    let mut payloads: Vec<&[u8]> = Vec::new();
    let mut offset = 0usize;
    let mut torn = false;
    let mut corrupt: Option<String> = None;
    while offset < bytes.len() {
        if bytes.len() - offset < 8 {
            torn = true;
            break;
        }
        let len =
            u32::from_be_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME {
            corrupt = Some(format!("frame at byte {offset} claims {len} byte payload"));
            break;
        }
        let crc = u32::from_be_bytes(bytes[offset + 4..offset + 8].try_into().expect("4 bytes"));
        if bytes.len() - offset - 8 < len {
            torn = true;
            break;
        }
        let payload = &bytes[offset + 8..offset + 8 + len];
        if crc32(payload) != crc {
            corrupt = Some(format!("CRC mismatch in frame at byte {offset}"));
            break;
        }
        payloads.push(payload);
        offset += 8 + len;
    }

    // First frame is the campaign header; validate or treat as foreign.
    let mut records = Vec::new();
    if let Some(header) = payloads.first() {
        if let Err(detail) = check_header(header, workload, config_hash) {
            let quarantined = quarantine_corrupt(&path);
            warn_quarantine(&path, &detail, quarantined.as_deref());
            return Ok(WalRecovery { records, torn_tail: 0, quarantined });
        }
        for (i, payload) in payloads[1..].iter().enumerate() {
            let parsed = std::str::from_utf8(payload)
                .map_err(|_| CheckpointError::Malformed {
                    detail: format!("frame {i}: non-UTF-8 payload"),
                })
                .and_then(|text| {
                    json::parse(text).map_err(|detail| CheckpointError::Malformed { detail })
                })
                .and_then(|value| parse_record(&value, i));
            match parsed {
                Ok(record) => records.push(record),
                Err(e) => {
                    // A frame with a valid CRC but an unparseable record is
                    // writer damage, not a crash signature: quarantine, keep
                    // what parsed.
                    corrupt = Some(format!("journal frame {i}: {e}"));
                    break;
                }
            }
        }
    }

    if let Some(detail) = corrupt {
        let quarantined = quarantine_corrupt(&path);
        warn_quarantine(&path, &detail, quarantined.as_deref());
        return Ok(WalRecovery { records, torn_tail: 0, quarantined });
    }

    let mut torn_tail = 0u64;
    if torn {
        torn_tail = (bytes.len() - offset) as u64;
        match OpenOptions::new().write(true).open(&path) {
            Ok(file) => {
                if file.set_len(offset as u64).is_ok() {
                    let _ = file.sync_all();
                } else {
                    let _ = quarantine_corrupt(&path);
                }
            }
            Err(_) => {
                let _ = quarantine_corrupt(&path);
            }
        }
        eprintln!(
            "warning: journal {} had a torn tail ({torn_tail} bytes after the last complete frame); truncated",
            path.display()
        );
    }
    Ok(WalRecovery { records, torn_tail, quarantined: None })
}

fn check_header(payload: &[u8], workload: &str, config_hash: u64) -> Result<(), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 header".to_string())?;
    let doc = json::parse(text).map_err(|e| format!("unparseable header: {e}"))?;
    let field = |key: &str| doc.get(key).and_then(Value::as_u64);
    match field("wal") {
        Some(WAL_VERSION) => {}
        other => {
            return Err(format!("journal version {other:?}, this build expects {WAL_VERSION}"))
        }
    }
    match field("version") {
        Some(VERSION) => {}
        other => return Err(format!("checkpoint version {other:?}, this build expects {VERSION}")),
    }
    match doc.get("workload").and_then(Value::as_str) {
        Some(w) if w == workload => {}
        other => return Err(format!("journal for workload {other:?}, campaign runs {workload:?}")),
    }
    match field("config_hash") {
        Some(h) if h == config_hash => Ok(()),
        other => {
            Err(format!("journal config hash {other:?}, campaign expects {config_hash:#018x}"))
        }
    }
}

fn warn_quarantine(path: &Path, detail: &str, dest: Option<&Path>) {
    match dest {
        Some(q) => eprintln!(
            "warning: corrupt or foreign journal at {} ({detail}); moved to {}",
            path.display(),
            q.display()
        ),
        None => eprintln!(
            "warning: corrupt or foreign journal at {} ({detail}); quarantine failed, continuing over it",
            path.display()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FaultSite, Outcome};

    fn rec(trial: u64) -> SingleBitRecord {
        SingleBitRecord {
            trial,
            site: FaultSite { wg: trial as u32, after_retired: trial * 3, reg: 1, lane: 2, bit: 3 },
            outcome: if trial.is_multiple_of(2) {
                Outcome::Sdc
            } else {
                Outcome::Crash { reason: format!("reason \"{trial}\"\n") }
            },
            read_before_overwrite: trial.is_multiple_of(3),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("mbavf-wal-{tag}"));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn roundtrip_appends_and_recovers_in_order() {
        let dir = tmpdir("roundtrip");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 2).unwrap();
        for t in [3u64, 0, 7] {
            w.append(&rec(t)).unwrap();
        }
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(3), rec(0), rec(7)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_or_empty_journal_recovers_to_nothing() {
        let dir = tmpdir("absent");
        let ckpt = dir.join("c.json");
        let got = recover(&ckpt, "dct", 1).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_none());
        std::fs::write(wal_path(&ckpt), b"").unwrap();
        let got = recover(&ckpt, "dct", 1).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_prefix_truncation_recovers_exactly_complete_frames() {
        let dir = tmpdir("torn");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        let all: Vec<SingleBitRecord> = (0..4).map(rec).collect();
        for r in &all {
            w.append(r).unwrap();
        }
        drop(w);
        let path = wal_path(&ckpt);
        let intact = std::fs::read(&path).unwrap();

        // Frame boundaries: replaying the scan tells us how many records a
        // prefix of each length must recover.
        for cut in 0..=intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let got = recover(&ckpt, "dct", 0xFEED).unwrap();
            assert!(got.quarantined.is_none(), "cut={cut} must be torn, not corrupt");
            assert_eq!(got.records, all[..expected_complete(&intact, cut)], "cut at {cut} bytes");
            // The torn tail was truncated: a second recovery is clean.
            let again = recover(&ckpt, "dct", 0xFEED).unwrap();
            assert_eq!(again.torn_tail, 0, "cut={cut} second pass must be clean");
            assert_eq!(again.records, got.records);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// How many *record* frames are complete within the first `cut` bytes.
    fn expected_complete(intact: &[u8], cut: usize) -> usize {
        let mut offset = 0usize;
        let mut frames = 0usize;
        while offset + 8 <= cut {
            let len = u32::from_be_bytes(intact[offset..offset + 4].try_into().unwrap()) as usize;
            if offset + 8 + len > cut {
                break;
            }
            frames += 1;
            offset += 8 + len;
        }
        frames.saturating_sub(1) // minus the header frame
    }

    #[test]
    fn per_byte_corruption_never_panics_and_never_invents_records() {
        let dir = tmpdir("corrupt");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        let all: Vec<SingleBitRecord> = (0..3).map(rec).collect();
        for r in &all {
            w.append(r).unwrap();
        }
        drop(w);
        let path = wal_path(&ckpt);
        let intact = std::fs::read(&path).unwrap();

        for pos in 0..intact.len() {
            // Fresh directory per position: quarantine renames the file.
            let mut damaged = intact.clone();
            damaged[pos] ^= 0x55;
            std::fs::write(&path, &damaged).unwrap();
            let got = recover(&ckpt, "dct", 0xFEED).unwrap();
            // Every recovered record must be one of the real ones, in
            // order — corruption may cost records, never invent them.
            assert!(
                got.records.iter().zip(&all).all(|(a, b)| a == b),
                "byte {pos}: recovered {:?}",
                got.records
            );
            assert!(
                got.records.len() < all.len()
                    || got.torn_tail > 0
                    || got.quarantined.is_some()
                    || got.records == all,
                "byte {pos}: damage went entirely unnoticed with records intact"
            );
            // Reset state for the next position.
            for leftover in std::fs::read_dir(&dir).unwrap() {
                let p = leftover.unwrap().path();
                if p != path {
                    std::fs::remove_file(&p).ok();
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_header_quarantines_instead_of_replaying() {
        let dir = tmpdir("foreign");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        drop(w);

        // Wrong fingerprint: the journal belongs to a different campaign.
        let got = recover(&ckpt, "dct", 0xBEEF).unwrap();
        assert!(got.records.is_empty(), "foreign journal must contribute nothing");
        let q = got.quarantined.expect("foreign journal must be quarantined");
        assert!(q.exists());
        assert!(!wal_path(&ckpt).exists());

        // Wrong workload, same shape.
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(1)).unwrap();
        drop(w);
        let got = recover(&ckpt, "matmul", 0xFEED).unwrap();
        assert!(got.records.is_empty() && got.quarantined.is_some());
        // The first quarantined journal was not clobbered.
        assert!(q.exists());
        assert_ne!(got.quarantined.unwrap(), q);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn oversized_record_is_rejected_at_append_and_never_poisons_the_journal() {
        let dir = tmpdir("oversize");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        let mut big = rec(1);
        big.outcome = Outcome::Crash { reason: "x".repeat(MAX_FRAME + 1) };
        assert!(matches!(w.append(&big), Err(CheckpointError::Malformed { .. })));
        // The writer stays usable at its committed boundary, and recovery
        // sees a clean journal — no quarantine, no lost later frames.
        w.append(&rec(2)).unwrap();
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(0), rec(2)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn text(r: &SingleBitRecord) -> String {
        let mut out = String::new();
        write_record(&mut out, r);
        out
    }

    fn append_records(w: &mut WalWriter, records: &[SingleBitRecord]) {
        let texts: Vec<String> = records.iter().map(text).collect();
        w.append_group(texts.iter().map(String::as_str)).unwrap();
    }

    #[test]
    fn append_group_roundtrips_in_order() {
        let dir = tmpdir("group-roundtrip");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 2).unwrap();
        append_records(&mut w, &[rec(5), rec(2), rec(9)]);
        w.append(&rec(0)).unwrap();
        append_records(&mut w, &[rec(7), rec(1)]);
        // An empty group writes nothing and fails nothing.
        let len = std::fs::metadata(wal_path(&ckpt)).unwrap().len();
        w.append_group([]).unwrap();
        assert_eq!(std::fs::metadata(wal_path(&ckpt)).unwrap().len(), len);
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(5), rec(2), rec(9), rec(0), rec(7), rec(1)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A crash mid-append can cut a group's one write anywhere: recovery
    /// keeps exactly the whole frames before the cut — a torn tail, never
    /// corruption.
    #[test]
    fn a_group_cut_at_every_byte_recovers_the_whole_frames_before_the_cut() {
        let dir = tmpdir("group-torn");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        let header_len = w.committed as usize;
        let group = [rec(4), rec(1), rec(6)];
        append_records(&mut w, &group);
        drop(w);
        let path = wal_path(&ckpt);
        let intact = std::fs::read(&path).unwrap();

        for cut in header_len..=intact.len() {
            std::fs::write(&path, &intact[..cut]).unwrap();
            let got = recover(&ckpt, "dct", 0xFEED).unwrap();
            assert!(got.quarantined.is_none(), "cut={cut} must be torn, not corrupt");
            let whole = expected_complete(&intact, cut);
            assert_eq!(got.records, group[..whole], "cut at {cut} bytes");
            // The header frame plus the whole record frames survive.
            assert_eq!(got.torn_tail as usize, cut - frame_end(&intact, whole + 1), "cut={cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Byte offset just past the first `frames` frames of `bytes`.
    fn frame_end(bytes: &[u8], frames: usize) -> usize {
        (0..frames).fold(0, |offset, _| {
            let len = u32::from_be_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
            offset + 8 + len
        })
    }

    #[test]
    fn an_oversized_record_rejects_its_whole_group_and_keeps_the_writer_usable() {
        let dir = tmpdir("group-oversize");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        let committed = w.committed;
        let mut big = rec(2);
        big.outcome = Outcome::Crash { reason: "x".repeat(MAX_FRAME + 1) };
        let texts = [text(&rec(1)), text(&big), text(&rec(3))];
        let err = w.append_group(texts.iter().map(String::as_str));
        assert!(matches!(err, Err(CheckpointError::Malformed { .. })), "{err:?}");
        // Nothing of the group reached the file, not even the frame before
        // the oversized one.
        assert_eq!(w.committed, committed);
        assert_eq!(std::fs::metadata(wal_path(&ckpt)).unwrap().len(), committed);
        append_records(&mut w, &[rec(4), rec(5)]);
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(0), rec(4), rec(5)]);
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed attempt (a torn write, or a write whose fsync failed) leaves
    /// bytes past the committed boundary; the retry must truncate them
    /// before it rewrites the group, or the journal would hold the group's
    /// torn prefix in front of the group.
    #[test]
    fn a_failed_attempt_is_rolled_back_before_the_retry() {
        use crate::chaos::{script, Fault};
        let dir = tmpdir("group-retry");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        append_records(&mut w, &[rec(0), rec(1)]);
        let mut expected = std::fs::read(wal_path(&ckpt)).unwrap();

        // Verdicts in draw order: attempt 1 tears its write; attempt 2
        // writes whole but its fsync fails; attempt 3 succeeds.
        script(&[Fault::Torn { keep_64ths: 40 }, Fault::None, Fault::FsyncFailed]);
        let group = [rec(2), rec(3), rec(4)];
        append_records(&mut w, &group);
        for r in &group {
            push_frame(&mut expected, text(r).as_bytes());
        }
        assert_eq!(std::fs::read(wal_path(&ckpt)).unwrap(), expected);
        assert_eq!(w.committed, expected.len() as u64);

        // The writer is clean again: the next group appends in place.
        append_records(&mut w, &[rec(5)]);
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, (0..6).map(rec).collect::<Vec<_>>());
        assert_eq!(got.torn_tail, 0);
        assert!(got.quarantined.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reset_drops_journaled_frames_but_keeps_the_header() {
        let dir = tmpdir("reset");
        let ckpt = dir.join("c.json");
        let mut w = WalWriter::create(&ckpt, "dct", 0xFEED, 1).unwrap();
        w.append(&rec(0)).unwrap();
        w.append(&rec(1)).unwrap();
        w.reset("dct", 0xFEED, 1).unwrap();
        w.append(&rec(2)).unwrap();
        drop(w);
        let got = recover(&ckpt, "dct", 0xFEED).unwrap();
        assert_eq!(got.records, vec![rec(2)]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
