//! Durability torture: checkpoint and repro-bundle loading must survive
//! arbitrary on-disk damage — every possible truncation length and every
//! single-byte corruption of a valid file — without panicking; the campaign
//! engine must quarantine damage and carry on; and the process-isolation
//! supervisor must survive workers that abort, get SIGKILLed, tear their
//! stdout mid-record, or exit without reading their stdin.
//!
//! This test runs with `harness = false` and a hand-rolled main: the
//! supervisor re-executes the current binary with a hidden `__worker` argv,
//! which libtest's own main would swallow (recursively running the test
//! suite inside every worker). Our main dispatches `__worker` to
//! [`mbavf_inject::worker_main`] and `__serve` to
//! [`mbavf_inject::serve_main`] before anything else, making re-execution
//! safe. The TCP tests spawn real `__serve` daemons on loopback ephemeral
//! ports and drive them through the networked supervisor.

use mbavf_core::error::{BundleError, CheckpointError};
use mbavf_inject::campaign::{CampaignConfig, Outcome, OutcomeKind};
use mbavf_inject::runner::{quarantine_corrupt, quarantine_path};
use mbavf_inject::supervisor::{default_poison_path, load_poison};
use mbavf_inject::{
    bundle, checkpoint, run_campaign, run_supervised, serve_main, worker_main, AuditPolicy,
    CancelToken, RunnerConfig, SupervisorConfig, TransportKind,
};
use mbavf_workloads::by_name;
use std::io::BufRead as _;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some("__worker") {
        std::process::exit(worker_main(&args[2..]));
    }
    if args.get(1).map(String::as_str) == Some("__serve") {
        std::process::exit(serve_main(&args[2..]));
    }
    let tests: &[(&str, fn())] = &[
        ("checkpoint_load_never_panics_under_damage", checkpoint_load_never_panics_under_damage),
        ("bundle_load_never_panics_under_damage", bundle_load_never_panics_under_damage),
        (
            "quarantine_preserves_every_corpse_and_degrades",
            quarantine_preserves_every_corpse_and_degrades,
        ),
        (
            "kill_resume_with_mid_run_corruption_converges",
            kill_resume_with_mid_run_corruption_converges,
        ),
        (
            "wal_crash_at_every_boundary_resumes_byte_identical",
            wal_crash_at_every_boundary_resumes_byte_identical,
        ),
        (
            "chaos_campaign_checkpoint_matches_fault_free",
            chaos_campaign_checkpoint_matches_fault_free,
        ),
        (
            "process_isolation_matches_thread_mode_bit_exact",
            process_isolation_matches_thread_mode_bit_exact,
        ),
        ("abort_drill_poisons_and_resumes_clean", abort_drill_poisons_and_resumes_clean),
        (
            "batched_abort_drill_poisons_only_the_killer",
            batched_abort_drill_poisons_only_the_killer,
        ),
        ("sigkill_mid_shard_recovers_bit_exact", sigkill_mid_shard_recovers_bit_exact),
        ("stdout_truncation_recovers_bit_exact", stdout_truncation_recovers_bit_exact),
        ("process_kill_resume_converges_cross_mode", process_kill_resume_converges_cross_mode),
        ("tcp_loopback_matches_thread_mode_bit_exact", tcp_loopback_matches_thread_mode_bit_exact),
        ("tcp_endpoint_sigkill_fails_over_bit_exact", tcp_endpoint_sigkill_fails_over_bit_exact),
        ("tcp_net_drill_replays_without_double_count", tcp_net_drill_replays_without_double_count),
        ("tcp_lease_expiry_poisons_stalled_trial", tcp_lease_expiry_poisons_stalled_trial),
        ("tcp_unreachable_degrades_to_process_mode", tcp_unreachable_degrades_to_process_mode),
        (
            "tcp_byzantine_liar_is_quarantined_and_bit_exact",
            tcp_byzantine_liar_is_quarantined_and_bit_exact,
        ),
        ("process_workers_persist_across_leases", process_workers_persist_across_leases),
        // Last: it restores SIGPIPE's default disposition for the process.
        (
            "supervisor_survives_default_sigpipe_against_a_deaf_worker",
            supervisor_survives_default_sigpipe_against_a_deaf_worker,
        ),
    ];
    let filter = args.iter().skip(1).find(|a| !a.starts_with('-')).cloned();
    let mut ran = 0usize;
    let mut failed = 0usize;
    for (name, f) in tests {
        if let Some(fil) = &filter {
            if !name.contains(fil.as_str()) {
                continue;
            }
        }
        ran += 1;
        println!("test {name} ...");
        match std::panic::catch_unwind(f) {
            Ok(()) => println!("test {name} ... ok"),
            Err(_) => {
                println!("test {name} ... FAILED");
                failed += 1;
            }
        }
    }
    let verdict = if failed == 0 { "ok" } else { "FAILED" };
    println!("\ntest result: {verdict}. {} passed; {failed} failed", ran - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mbavf-torture-{tag}"));
    std::fs::remove_dir_all(&d).ok();
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Run a tiny campaign that emits both a checkpoint and repro bundles,
/// returning (checkpoint path, bundle paths).
fn seed_artifacts(dir: &Path) -> (PathBuf, Vec<PathBuf>) {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };
    let report = run_campaign(&w, &cfg, &runner).unwrap();
    assert!(!report.bundles.is_empty(), "seed campaign must emit at least one bundle");
    (ckpt, report.bundles)
}

/// A supervisor tuned for tests: tiny shards (so several workers get work),
/// millisecond backoff, and a watchdog short enough to fail fast but long
/// enough for a debug-build worker to do real work.
fn test_supervisor(workers: usize, shard_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        workers,
        shard_size,
        shard_timeout: Duration::from_secs(60),
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        ..SupervisorConfig::default()
    }
}

/// Every prefix truncation and every single-byte corruption of a valid
/// checkpoint must load as `Ok` or a typed error — never a panic. The
/// damaged loads are run under `catch_unwind` so a regression reports the
/// offending byte rather than aborting the suite.
fn checkpoint_load_never_panics_under_damage() {
    let dir = tmpdir("ckpt");
    let (ckpt, _) = seed_artifacts(&dir);
    let intact = std::fs::read(&ckpt).unwrap();
    assert!(checkpoint::load(&ckpt).is_ok());

    let damaged = dir.join("damaged.json");
    for cut in 0..intact.len() {
        std::fs::write(&damaged, &intact[..cut]).unwrap();
        let got = std::panic::catch_unwind(|| checkpoint::load(&damaged).map(drop));
        match got {
            Ok(_) => {}
            Err(_) => panic!("checkpoint load panicked on truncation to {cut} bytes"),
        }
    }
    for pos in 0..intact.len() {
        let mut bytes = intact.clone();
        bytes[pos] ^= 0x55;
        std::fs::write(&damaged, &bytes).unwrap();
        let got = std::panic::catch_unwind(|| checkpoint::load(&damaged).map(drop));
        match got {
            Ok(
                Ok(_)
                | Err(
                    CheckpointError::Malformed { .. }
                    | CheckpointError::VersionMismatch { .. }
                    | CheckpointError::Io { .. },
                ),
            ) => {}
            Ok(Err(other)) => panic!("unexpected error class at byte {pos}: {other}"),
            Err(_) => panic!("checkpoint load panicked on corrupt byte {pos}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The same torture applied to repro bundles: `bundle::load` must return
/// `Ok` or a typed [`BundleError`] on every prefix and every flipped byte.
fn bundle_load_never_panics_under_damage() {
    let dir = tmpdir("bundle");
    let (_, bundles) = seed_artifacts(&dir);
    let intact = std::fs::read(&bundles[0]).unwrap();
    assert!(bundle::load(&bundles[0]).is_ok());

    let damaged = dir.join("damaged.repro.json");
    for cut in 0..intact.len() {
        std::fs::write(&damaged, &intact[..cut]).unwrap();
        if std::panic::catch_unwind(|| bundle::load(&damaged).map(drop)).is_err() {
            panic!("bundle load panicked on truncation to {cut} bytes");
        }
    }
    for pos in 0..intact.len() {
        let mut bytes = intact.clone();
        bytes[pos] ^= 0x55;
        std::fs::write(&damaged, &bytes).unwrap();
        match std::panic::catch_unwind(|| bundle::load(&damaged).map(drop)) {
            Ok(
                Ok(())
                | Err(
                    BundleError::Malformed { .. }
                    | BundleError::VersionMismatch { .. }
                    | BundleError::SamplerMismatch { .. }
                    | BundleError::SiteOutOfRange { .. }
                    | BundleError::Io { .. },
                ),
            ) => {}
            Ok(Err(other)) => panic!("unexpected error class at byte {pos}: {other}"),
            Err(_) => panic!("bundle load panicked on corrupt byte {pos}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Quarantine never clobbers earlier evidence: a second corruption of the
/// same checkpoint moves to `.corrupt.1` while `.corrupt` keeps the first
/// damaged file, and a vanished path degrades to `None` instead of failing.
fn quarantine_preserves_every_corpse_and_degrades() {
    let dir = tmpdir("quarantine");
    let path = dir.join("camp.json");

    std::fs::write(&path, b"first corpse").unwrap();
    let q0 = quarantine_corrupt(&path).expect("first quarantine succeeds");
    assert_eq!(q0, quarantine_path(&path));
    assert_eq!(std::fs::read(&q0).unwrap(), b"first corpse");

    std::fs::write(&path, b"second corpse").unwrap();
    let q1 = quarantine_corrupt(&path).expect("second quarantine succeeds");
    assert_ne!(q0, q1, "second quarantine must not clobber the first");
    assert!(q1.to_string_lossy().ends_with(".corrupt.1"), "got {}", q1.display());
    assert_eq!(std::fs::read(&q0).unwrap(), b"first corpse", "first corpse clobbered");
    assert_eq!(std::fs::read(&q1).unwrap(), b"second corpse");

    std::fs::write(&path, b"third corpse").unwrap();
    let q2 = quarantine_corrupt(&path).expect("third quarantine succeeds");
    assert!(q2.to_string_lossy().ends_with(".corrupt.2"), "got {}", q2.display());

    // A path that cannot be renamed (already gone) degrades to None.
    assert!(quarantine_corrupt(&dir.join("never-existed.json")).is_none());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-resume loop with damage injected between rounds: whatever
/// prefix the checkpoint holds, a resumed campaign ends with the exact
/// record set of an uninterrupted run, and the bundle set matches too.
fn kill_resume_with_mid_run_corruption_converges() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let clean_dir = tmpdir("kr-clean");
    let clean = run_campaign(
        &w,
        &cfg,
        &RunnerConfig { repro_dir: Some(clean_dir.join("repro")), ..RunnerConfig::serial() },
    )
    .unwrap();

    let dir = tmpdir("kr");
    let ckpt = dir.join("camp.json");
    let runner = |stop: Option<usize>| RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 2,
        cancel: stop.map_or_else(CancelToken::new, CancelToken::limited),
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };

    // Kill after a few trials, then corrupt the tail of the checkpoint.
    run_campaign(&w, &cfg, &runner(Some(5))).unwrap();
    let bytes = std::fs::read(&ckpt).unwrap();
    std::fs::write(&ckpt, &bytes[..bytes.len().saturating_sub(4)]).unwrap();

    // Kill again mid-flight, then run to completion: the quarantine path
    // plus per-trial determinism must still converge on the clean summary.
    run_campaign(&w, &cfg, &runner(Some(9))).unwrap();
    let finished = run_campaign(&w, &cfg, &runner(None)).unwrap();
    assert!(finished.complete);
    assert_eq!(finished.summary, clean.summary, "records diverged after corruption + resume");

    // Record-for-record identity on disk, and identical bundle bytes.
    let reloaded = checkpoint::load(&ckpt).unwrap();
    assert_eq!(reloaded.records, clean.summary.records);
    assert_eq!(finished.bundles.len(), clean.bundles.len());
    for (a, b) in finished.bundles.iter().zip(&clean.bundles) {
        assert_eq!(a.file_name(), b.file_name());
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "{}", a.display());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Crash-at-every-write-boundary drill for the write-ahead trial journal.
/// The durable cycle is append → compact (temp write, rename) → journal
/// reset; a crash can land between any two of those steps. Each iteration
/// fabricates the exact on-disk state such a crash leaves behind — snapshot
/// holding the first `m` records, journal holding the next `j` frames,
/// plus torn-tail, stale-temp-file, and compacted-but-not-reset
/// (duplicate-frame) variants — and the resumed campaign must always end
/// with a checkpoint byte-identical to an uninterrupted run's.
fn wal_crash_at_every_boundary_resumes_byte_identical() {
    use mbavf_inject::checkpoint::wal;

    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let fingerprint = checkpoint::config_fingerprint(w.name, &cfg);

    let ref_dir = tmpdir("walb-ref");
    let ref_ckpt = ref_dir.join("camp.json");
    run_campaign(
        &w,
        &cfg,
        &RunnerConfig { checkpoint: Some(ref_ckpt.clone()), ..RunnerConfig::serial() },
    )
    .unwrap();
    let reference = std::fs::read(&ref_ckpt).unwrap();
    let all = checkpoint::load(&ref_ckpt).unwrap().records;

    let dir = tmpdir("walb");
    let ckpt = dir.join("camp.json");
    let wal_file = wal::wal_path(&ckpt);
    let resume = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        ..RunnerConfig::serial()
    };

    // Snapshot of the first `m` records + journal frames for the next `j`.
    let fabricate = |m: usize, j: usize| {
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_file(&wal_file).ok();
        if m > 0 {
            checkpoint::save(&ckpt, w.name, fingerprint, cfg.mode_bits, &all[..m]).unwrap();
        }
        let mut writer = wal::WalWriter::create(&ckpt, w.name, fingerprint, cfg.mode_bits)
            .expect("journal create");
        for r in &all[m..m + j] {
            writer.append(r).expect("journal append");
        }
    };
    let check = |label: &str| {
        let report = run_campaign(&w, &cfg, &resume).unwrap();
        assert!(report.complete, "{label}");
        assert_eq!(
            std::fs::read(&ckpt).unwrap(),
            reference,
            "{label}: resumed checkpoint must be byte-identical to the uninterrupted run"
        );
        assert!(!wal_file.exists(), "{label}: a finished campaign must remove its journal");
    };

    // Crash between trial appends, for every journal length — including
    // j = 0 (crash right after a reset) and m = 0 (crash before the first
    // compaction ever succeeded, the journal alone carrying the records).
    for j in 0..=6 {
        fabricate(6, j);
        check(&format!("append boundary m=6 j={j}"));
    }
    fabricate(0, 5);
    check("journal-only state (crash before first snapshot)");

    // Crash mid-append: a torn partial frame past the committed tail.
    fabricate(6, 3);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new().append(true).open(&wal_file).unwrap();
        f.write_all(&[0, 0, 0, 96, 0xde, 0xad, 0xbe]).unwrap();
    }
    check("torn frame past the committed tail");

    // Crash mid-compaction: the snapshot's temp file written but not yet
    // renamed. Resume must ignore the temp and replace it.
    fabricate(6, 3);
    std::fs::write(ckpt.with_extension("tmp"), b"{ half a snapsh").unwrap();
    check("stale snapshot temp file");

    // Crash between compaction's rename and the journal reset: the
    // snapshot already holds the journaled records, so every frame must
    // replay as an idempotent-merge duplicate, not a double-count.
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&wal_file).ok();
    checkpoint::save(&ckpt, w.name, fingerprint, cfg.mode_bits, &all[..9]).unwrap();
    {
        let mut writer = wal::WalWriter::create(&ckpt, w.name, fingerprint, cfg.mode_bits)
            .expect("journal create");
        for r in &all[6..9] {
            writer.append(r).expect("journal append");
        }
    }
    check("compacted but journal not yet reset (duplicate frames)");

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&ref_dir).ok();
}

/// End-to-end chaos: with the deterministic fault engine injecting into
/// every durable write the harness makes, a campaign still completes, no
/// committed record is lost, and the final checkpoint is byte-identical to
/// a fault-free run's. Runs in this sequential binary because the chaos
/// engine is process-global — installing it under libtest's parallel
/// harness would inject faults into unrelated tests.
fn chaos_campaign_checkpoint_matches_fault_free() {
    /// Uninstall on every exit path, including panics, so a failure here
    /// cannot leak faults into the rest of the suite.
    struct ClearChaos;
    impl Drop for ClearChaos {
        fn drop(&mut self) {
            mbavf_inject::chaos::clear();
        }
    }

    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 60, ..CampaignConfig::default() };

    let clean_dir = tmpdir("chaos-clean");
    let clean_ckpt = clean_dir.join("camp.json");
    let clean = run_campaign(
        &w,
        &cfg,
        &RunnerConfig {
            checkpoint: Some(clean_ckpt.clone()),
            repro_dir: Some(clean_dir.join("repro")),
            ..RunnerConfig::serial()
        },
    )
    .unwrap();
    let reference = std::fs::read(&clean_ckpt).unwrap();

    let dir = tmpdir("chaos");
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };
    let _guard = ClearChaos;
    let engine =
        mbavf_inject::chaos::install(mbavf_inject::ChaosSpec { seed: 0xC4A0_5EED, rate: 0.1 });
    let report = run_campaign(&w, &cfg, &runner).unwrap();
    mbavf_inject::chaos::clear();

    assert!(report.complete);
    assert!(engine.injected() > 0, "a 10% chaos rate must actually inject faults");
    assert_eq!(
        std::fs::read(&ckpt).unwrap(),
        reference,
        "chaos run's final checkpoint must be byte-identical to the fault-free run's"
    );
    assert_eq!(report.summary.records, clean.summary.records, "no committed record may be lost");
    assert_eq!(report.bundles.len(), clean.bundles.len());
    for (a, b) in report.bundles.iter().zip(&clean.bundles) {
        assert_eq!(std::fs::read(a).unwrap(), std::fs::read(b).unwrap(), "{}", a.display());
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

/// Real subprocess workers (re-executing this binary through `__worker`)
/// must produce records bit-identical to the in-process thread engine, at
/// any worker count and shard size — including crash outcomes, whose
/// reasons cross the stdout protocol as escaped JSON.
fn process_isolation_matches_thread_mode_bit_exact() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        injections: 40,
        wrap_oob: false,
        ..CampaignConfig::default()
    };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    assert!(
        thread.summary.count(OutcomeKind::Crash) > 0,
        "campaign must include crash outcomes to exercise reason transport"
    );
    for width in [1usize, 8] {
        for (workers, shard_size) in [(1usize, 8usize), (2, 8), (3, 64)] {
            let sup = test_supervisor(workers, shard_size);
            let runner = RunnerConfig { batch_width: width, ..RunnerConfig::serial() };
            let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
            let at = format!("workers={workers} shard={shard_size} width={width}");
            assert!(report.complete, "{at}");
            assert!(report.poisoned.is_empty(), "{at}");
            assert_eq!(report.summary, thread.summary, "{at}");
            assert!(report.trial_latency.is_some(), "worker latencies must reach the report");
        }
    }
}

/// The abort drill end-to-end: a worker that calls `std::process::abort()`
/// on a marker trial is retried, bisected, and the marker poisoned — the
/// campaign completes with N−1 trials, the sidecar and a repro bundle name
/// exactly the marker, and a later resume leaves the quarantine intact.
fn abort_drill_poisons_and_resumes_clean() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let dir = tmpdir("abort-drill");
    let ckpt = dir.join("camp.json");
    let runner = RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 4,
        repro_dir: Some(dir.join("repro")),
        ..RunnerConfig::serial()
    };
    let marker = 5u64;
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_ABORT_DRILL".into(), marker.to_string())];

    let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
    assert!(report.complete);
    assert_eq!(report.newly_run, 11);
    assert_eq!(report.poisoned.len(), 1, "poisoned: {:?}", report.poisoned);
    assert_eq!(report.poisoned[0].trial, marker);
    assert!(report.summary.records.iter().all(|r| r.trial != marker));

    // The sidecar names exactly the drilled trial.
    let sidecar = load_poison(&default_poison_path(&ckpt)).unwrap();
    assert_eq!(sidecar.entries.len(), 1);
    assert_eq!(sidecar.entries[0].trial, marker);
    assert_eq!(sidecar.config_hash, checkpoint::config_fingerprint(w.name, &cfg));

    // The poisoned trial has a standard repro bundle, flagged as poison.
    let fp = checkpoint::config_fingerprint(w.name, &cfg);
    let bpath = bundle::bundle_path(&dir.join("repro"), w.name, fp, marker, OutcomeKind::Crash);
    assert!(bpath.exists(), "missing poison bundle {}", bpath.display());
    let b = bundle::load(&bpath).unwrap();
    assert!(
        matches!(&b.outcome, Outcome::Crash { reason } if reason.starts_with("poison: ")),
        "{:?}",
        b.outcome
    );

    // Resume without the drill: the quarantine holds (the trial is *not*
    // retried just because the environment recovered), nothing re-runs, and
    // the summary is unchanged.
    let resume = run_supervised(&w, &cfg, &runner, &test_supervisor(1, 4)).unwrap();
    assert!(resume.complete);
    assert_eq!(resume.newly_run, 0);
    assert_eq!(resume.resumed, 11);
    assert_eq!(resume.poisoned, report.poisoned);
    assert_eq!(resume.summary, report.summary);
    std::fs::remove_dir_all(&dir).ok();
}

/// A killer trial in the middle of a lockstep group, with no retries to
/// spare: the batched death charges no trial, the one-trial-at-a-time
/// re-lease pins the death on the killer, and only the killer is poisoned —
/// every other record equals thread mode at either batch width.
fn batched_abort_drill_poisons_only_the_killer() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 16, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let marker = 5u64;
    let expected: Vec<_> =
        thread.summary.records.iter().filter(|r| r.trial != marker).cloned().collect();
    for width in [1usize, 8] {
        let mut sup = test_supervisor(2, 8);
        sup.max_retries = 0;
        sup.worker_env = vec![("MBAVF_ABORT_DRILL".into(), marker.to_string())];
        let runner = RunnerConfig { batch_width: width, ..RunnerConfig::serial() };
        let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
        assert!(report.complete, "width={width}");
        let poisoned: Vec<u64> = report.poisoned.iter().map(|p| p.trial).collect();
        assert_eq!(poisoned, [marker], "width={width}");
        assert_eq!(report.summary.records, expected, "width={width}");
    }
}

/// SIGKILL mid-shard: the worker kills itself (simulating the OOM killer)
/// before the marker trial on its first attempt only. The respawn must pick
/// up exactly the remaining trials and converge bit-exact with no poison.
fn sigkill_mid_shard_recovers_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_KILL_DRILL".into(), "6".into())];
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "kill drill must recover, not poison");
    assert_eq!(report.summary, thread.summary);
}

/// Torn stdout: the worker writes half a record frame, flushes, and exits
/// cleanly. The supervisor must discard the partial frame, respawn on the
/// remaining trials, and converge bit-exact with no poison.
fn stdout_truncation_recovers_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut sup = test_supervisor(2, 4);
    sup.worker_env = vec![("MBAVF_TRUNC_DRILL".into(), "2".into())];
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "truncation must recover, not poison");
    assert_eq!(report.summary, thread.summary);
}

/// Local workers live across leases the way a daemon connection does: one
/// worker serving four shards is spawned once, and the kill drill costs
/// exactly one respawn. Spawns are counted by a `worker_cmd` wrapper that
/// logs a line and then `exec`s this binary's `__worker` entry point.
fn process_workers_persist_across_leases() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 16, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let dir = tmpdir("spawn-count");
    let exe = std::env::current_exe().expect("current exe").to_string_lossy().into_owned();
    for (drill, spawns) in [(None, 1usize), (Some(("MBAVF_KILL_DRILL", "6")), 2)] {
        let log = dir.join("spawns.log");
        std::fs::remove_file(&log).ok();
        let mut sup = test_supervisor(1, 4);
        sup.worker_cmd = Some(vec![
            "sh".into(),
            "-c".into(),
            format!("echo spawn >> '{}'; exec \"$0\" __worker", log.display()),
            exe.clone(),
        ]);
        sup.worker_env = drill.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
        assert!(report.complete, "{drill:?}");
        assert!(report.poisoned.is_empty(), "{drill:?}: {:?}", report.poisoned);
        assert_eq!(report.summary, thread.summary, "{drill:?}");
        let logged = std::fs::read_to_string(&log).unwrap();
        assert_eq!(logged.lines().count(), spawns, "{drill:?}: spawns logged {logged:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// With SIGPIPE at its default disposition — what `reset_sigpipe` sets in
/// every CLI — a worker that exits without reading its stdin must not take
/// the supervisor down with it when the hello and lease frames are written
/// to the dead pipe. The deaths are observed through the stream, charged
/// to the channel, and the untouched campaign degrades to thread mode.
fn supervisor_survives_default_sigpipe_against_a_deaf_worker() {
    mbavf_inject::reset_sigpipe();
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 8, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let mut sup = test_supervisor(2, 4);
    sup.max_retries = 3;
    sup.worker_cmd = Some(vec!["sh".into(), "-c".into(), "exec 0<&-; exit 0".into()]);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "channel deaths must not poison: {:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
}

/// A process-isolated campaign interrupted by a trial budget must resume —
/// in *thread* mode — into the identical final checkpoint and summary:
/// isolation is an execution property, never a record property.
fn process_kill_resume_converges_cross_mode() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 16, ..CampaignConfig::default() };
    let clean = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let dir = tmpdir("proc-resume");
    let ckpt = dir.join("camp.json");
    let runner = |stop: Option<usize>| RunnerConfig {
        checkpoint: Some(ckpt.clone()),
        checkpoint_every: 2,
        cancel: stop.map_or_else(CancelToken::new, CancelToken::limited),
        ..RunnerConfig::serial()
    };
    let first = run_supervised(&w, &cfg, &runner(Some(6)), &test_supervisor(2, 4)).unwrap();
    assert!(!first.complete);
    assert_eq!(first.newly_run, 6);

    let finished = run_campaign(&w, &cfg, &runner(None)).unwrap();
    assert!(finished.complete);
    assert_eq!(finished.resumed, 6);
    assert_eq!(finished.summary, clean.summary, "process-then-thread resume diverged");
    let reloaded = checkpoint::load(&ckpt).unwrap();
    assert_eq!(reloaded.records, clean.summary.records);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// TCP transport torture
// ---------------------------------------------------------------------------

/// A real `__serve` worker daemon on a loopback ephemeral port, killed on
/// drop. The bound address is parsed from the daemon's single stdout
/// announcement line.
struct Daemon {
    child: std::process::Child,
    addr: String,
}

impl Daemon {
    fn spawn(env: &[(&str, &str)]) -> Daemon {
        let exe = std::env::current_exe().expect("current exe");
        let mut cmd = std::process::Command::new(exe);
        cmd.args(["__serve", "--listen", "127.0.0.1:0"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("spawn __serve daemon");
        let stdout = child.stdout.take().expect("daemon stdout piped");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("daemon announcement");
        // {"mbavf_serve": 1, "listen": "127.0.0.1:PORT"}
        let addr = line
            .split("\"listen\": \"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("unparseable daemon announcement: {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A TCP supervisor config tuned for tests: short lease, fast backoff.
fn tcp_supervisor(endpoints: Vec<String>, shard_size: usize) -> SupervisorConfig {
    SupervisorConfig {
        shard_size,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        transport: TransportKind::Tcp { endpoints },
        lease_timeout: Duration::from_secs(30),
        ..SupervisorConfig::default()
    }
}

/// A campaign leased to two loopback daemons must land the exact thread-mode
/// summary AND write a byte-identical checkpoint — the tentpole invariant:
/// transport is an execution property, never a record property.
fn tcp_loopback_matches_thread_mode_bit_exact() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig {
        seed: 0xC0FFEE,
        injections: 40,
        wrap_oob: false,
        ..CampaignConfig::default()
    };
    let dir = tmpdir("tcp-loopback");
    let thread_ckpt = dir.join("thread.json");
    let tcp_ckpt = dir.join("tcp.json");
    let runner = |ckpt: &Path| RunnerConfig {
        checkpoint: Some(ckpt.to_path_buf()),
        checkpoint_every: 8,
        ..RunnerConfig::serial()
    };
    let thread = run_campaign(&w, &cfg, &runner(&thread_ckpt)).unwrap();
    assert!(
        thread.summary.count(OutcomeKind::Crash) > 0,
        "campaign must include crash outcomes to exercise reason framing"
    );

    let (a, b) = (Daemon::spawn(&[]), Daemon::spawn(&[]));
    let sup = tcp_supervisor(vec![a.addr.clone(), b.addr.clone()], 8);
    for width in [1usize, 8] {
        std::fs::remove_file(&tcp_ckpt).ok();
        let runner = RunnerConfig { batch_width: width, ..runner(&tcp_ckpt) };
        let report = run_supervised(&w, &cfg, &runner, &sup).unwrap();
        assert!(report.complete, "width={width}");
        assert!(report.poisoned.is_empty(), "width={width}: {:?}", report.poisoned);
        assert_eq!(report.summary, thread.summary, "width={width}");
        assert!(report.trial_latency.is_some(), "remote latencies must reach the report");
        assert_eq!(
            std::fs::read(&tcp_ckpt).unwrap(),
            std::fs::read(&thread_ckpt).unwrap(),
            "width={width}: tcp checkpoint must be byte-identical to thread mode"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// SIGKILL an entire worker daemon mid-shard (the net kill drill fires on
/// every attempt, so the killed endpoint can never serve the marker). The
/// supervisor must re-offer the dead endpoint's shard — failure history
/// intact — to the surviving daemon and converge bit-exact with no poison.
fn tcp_endpoint_sigkill_fails_over_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let doomed = Daemon::spawn(&[("MBAVF_NET_KILL_DRILL", "2")]);
    let survivor = Daemon::spawn(&[]);
    let sup = tcp_supervisor(vec![doomed.addr.clone(), survivor.addr.clone()], 8);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "failover must recover, not poison: {:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
}

/// The hostile-network drill: the daemon replays every record of the lease
/// as duplicates, then severs the connection inside a frame's length
/// prefix. The idempotent merge must drop the replays without recounting,
/// the torn frame must not panic the supervisor, and the reconnect must
/// resume from the first missing trial — honest completion, bit-exact.
fn tcp_net_drill_replays_without_double_count() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let daemon = Daemon::spawn(&[("MBAVF_NET_DRILL", "5")]);
    let sup = tcp_supervisor(vec![daemon.addr.clone()], 8);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty(), "replays must recover, not poison: {:?}", report.poisoned);
    assert_eq!(report.summary, thread.summary);
    assert_eq!(report.newly_run, 24, "duplicated records must not inflate the count");
}

/// A daemon whose executor freezes on the marker trial while its heartbeat
/// keeps beating: the progress-gated lease must expire anyway, and since
/// the stall recurs on every attempt, the marker is eventually poisoned —
/// with the lease named as the reason — while every other trial completes.
fn tcp_lease_expiry_poisons_stalled_trial() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let marker = 5u64;
    let daemon = Daemon::spawn(&[("MBAVF_NET_STALL_DRILL", &marker.to_string())]);
    let mut sup = tcp_supervisor(vec![daemon.addr.clone()], 4);
    sup.lease_timeout = Duration::from_millis(400);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert_eq!(report.newly_run, 11);
    assert_eq!(report.poisoned.len(), 1, "poisoned: {:?}", report.poisoned);
    assert_eq!(report.poisoned[0].trial, marker);
    assert!(
        report.poisoned[0].reason.contains("lease expired"),
        "reason must name the lease: {}",
        report.poisoned[0].reason
    );
    assert!(report.summary.records.iter().all(|r| r.trial != marker));
}

/// No endpoint ever connects (nothing listens on the address): before any
/// record lands, the campaign must degrade to local process isolation and
/// still finish bit-exact — same contract as process→thread degradation.
fn tcp_unreachable_degrades_to_process_mode() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 12, ..CampaignConfig::default() };
    let thread = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    // Reserve a loopback port and close it, so the dial is refused fast.
    let dead_addr = {
        let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        sock.local_addr().unwrap().to_string()
    };
    let mut sup = tcp_supervisor(vec![dead_addr], 4);
    sup.lease_timeout = Duration::from_secs(2);
    let report = run_supervised(&w, &cfg, &RunnerConfig::serial(), &sup).unwrap();
    assert!(report.complete);
    assert!(report.poisoned.is_empty());
    assert_eq!(report.summary, thread.summary);
}

/// The Byzantine drill: one honest daemon, one daemon that computes every
/// trial correctly and then lies about the verdict (`MBAVF_LIE_DRILL` at
/// rate 1.0 flips every outcome it reports). With `--audit 1.0` every
/// incoming record is re-executed locally before commit, so the liar's
/// first record diverges, the trust ledger quarantines the endpoint
/// (one-strike default), the local truth is committed in the lie's place,
/// and the liar's shards hand over to the honest daemon. The campaign must
/// finish with records — and a checkpoint — byte-identical to fault-free
/// thread mode, and must name exactly the lying endpoint.
fn tcp_byzantine_liar_is_quarantined_and_bit_exact() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 7, injections: 24, ..CampaignConfig::default() };
    let dir = tmpdir("tcp-byzantine");
    let thread_ckpt = dir.join("thread.json");
    let tcp_ckpt = dir.join("tcp.json");
    let runner = |ckpt: &Path| RunnerConfig {
        checkpoint: Some(ckpt.to_path_buf()),
        checkpoint_every: 8,
        ..RunnerConfig::serial()
    };
    let thread = run_campaign(&w, &cfg, &runner(&thread_ckpt)).unwrap();

    let honest = Daemon::spawn(&[]);
    let liar = Daemon::spawn(&[("MBAVF_LIE_DRILL", "9:1")]);
    let mut sup = tcp_supervisor(vec![honest.addr.clone(), liar.addr.clone()], 8);
    sup.audit = Some(AuditPolicy::new(1.0, 0));
    let report = run_supervised(&w, &cfg, &runner(&tcp_ckpt), &sup).unwrap();

    assert!(report.complete);
    assert!(
        report.poisoned.is_empty(),
        "lies must be corrected, not poisoned: {:?}",
        report.poisoned
    );
    // The liar was caught on its first committed record and named; the
    // honest endpoint kept its good name.
    assert_eq!(
        report.summary.quarantined_endpoints,
        vec![liar.addr.clone()],
        "exactly the lying endpoint must be quarantined"
    );
    assert!(report.summary.audit_divergences >= 1, "the audit must have caught at least one lie");
    // With --audit 1.0 every newly committed record was audited, and the
    // audit sample is chosen by (seed, trial) alone — worker-count-invariant.
    assert_eq!(report.summary.audited, 24);
    // Every lie was replaced by the local truth before commit: the records
    // and the checkpoint are exactly thread mode's.
    assert_eq!(report.summary.records, thread.summary.records);
    assert_eq!(
        std::fs::read(&tcp_ckpt).unwrap(),
        std::fs::read(&thread_ckpt).unwrap(),
        "audited checkpoint must be byte-identical to thread mode"
    );
    std::fs::remove_dir_all(&dir).ok();
}
