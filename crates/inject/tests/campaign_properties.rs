//! Property-style coverage of the campaign engine's headline guarantees:
//! thread-count invariance, interrupt/resume equivalence, checkpoint
//! round-tripping, and crash isolation as recorded data.
//!
//! Cases are generated from vendored SplitMix64 streams so every failure
//! reproduces from the case index in the assertion message.

use mbavf_core::rng::SplitMix64;
use mbavf_inject::campaign::{CampaignConfig, FaultSite, Outcome, SingleBitRecord};
use mbavf_inject::checkpoint;
use mbavf_inject::runner::quarantine_path;
use mbavf_inject::{run_adaptive, run_campaign, AdaptiveConfig, CancelToken, RunnerConfig};
use mbavf_workloads::{by_name, nondet_drill};
use std::path::PathBuf;

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mbavf-campaign-props-{tag}"));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// For random campaign seeds, the summary is a pure function of the config:
/// any thread count produces bit-identical records.
#[test]
fn summaries_are_thread_count_invariant_across_seeds() {
    let w = by_name("dct").expect("registered");
    let mut seeds = SplitMix64::new(0x7112EAD5);
    for case in 0..3 {
        let cfg =
            CampaignConfig { seed: seeds.next_u64(), injections: 16, ..CampaignConfig::default() };
        let serial = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
        for threads in [3, 8] {
            let par = run_campaign(&w, &cfg, &RunnerConfig { threads, ..RunnerConfig::default() })
                .unwrap();
            assert_eq!(par.summary, serial.summary, "case {case}, threads {threads}");
        }
        // Batch width is an execution knob exactly like the thread count.
        for batch_width in [2, 3, 8] {
            let batched = run_campaign(
                &w,
                &cfg,
                &RunnerConfig { threads: 3, batch_width, ..RunnerConfig::default() },
            )
            .unwrap();
            assert_eq!(batched.summary, serial.summary, "case {case}, width {batch_width}");
        }
    }
}

/// A batched campaign's *artifacts* — not just the in-memory summary — are
/// bit-identical to the width-1 sequential path: final checkpoint bytes and
/// every repro bundle, at every batch width.
#[test]
fn batched_artifacts_match_width_one_byte_for_byte() {
    let w = by_name("scan_large").expect("registered");
    let cfg = CampaignConfig { seed: 0xBA7C4, injections: 30, ..CampaignConfig::default() };
    let dir = tmpdir("batch-artifacts");

    let run_with = |width: usize| {
        let ckpt = dir.join(format!("w{width}.ckpt.json"));
        let bundles = dir.join(format!("w{width}-bundles"));
        std::fs::remove_file(&ckpt).ok();
        std::fs::remove_dir_all(&bundles).ok();
        let report = run_campaign(
            &w,
            &cfg,
            &RunnerConfig {
                threads: 2,
                batch_width: width,
                checkpoint: Some(ckpt.clone()),
                checkpoint_every: 4,
                repro_dir: Some(bundles.clone()),
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        let bundle_files: Vec<(String, Vec<u8>)> = report
            .bundles
            .iter()
            .map(|p| {
                (p.file_name().unwrap().to_string_lossy().into_owned(), std::fs::read(p).unwrap())
            })
            .collect();
        (report.summary, std::fs::read(&ckpt).unwrap(), bundle_files)
    };

    let (base_summary, base_ckpt, base_bundles) = run_with(1);
    for width in [2usize, 3, 8] {
        let (summary, ckpt, bundles) = run_with(width);
        assert_eq!(summary, base_summary, "width {width}: records diverged");
        assert_eq!(ckpt, base_ckpt, "width {width}: checkpoint bytes diverged");
        assert_eq!(bundles, base_bundles, "width {width}: repro bundles diverged");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Interrupting a batched campaign and resuming it at a *different* batch
/// width converges on the width-1 uninterrupted summary: the checkpoint
/// carries no trace of how trials were grouped.
#[test]
fn resume_across_batch_width_change_matches_uninterrupted() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 0x51DE, injections: 20, ..CampaignConfig::default() };
    let uninterrupted = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let dir = tmpdir("width-change");

    for stop in [1usize, 5, 13] {
        let path = dir.join(format!("wc{stop}.json"));
        std::fs::remove_file(&path).ok();
        let interrupted = run_campaign(
            &w,
            &cfg,
            &RunnerConfig {
                threads: 2,
                batch_width: 3,
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                cancel: CancelToken::limited(stop),
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(interrupted.newly_run, stop, "stop {stop}");

        let resumed = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { batch_width: 8, checkpoint: Some(path), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(resumed.complete, "stop {stop}");
        assert_eq!(resumed.resumed, stop, "stop {stop}");
        assert_eq!(resumed.summary, uninterrupted.summary, "stop {stop}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Interrupting a campaign at *any* point and resuming from its checkpoint
/// reproduces the uninterrupted summary exactly.
#[test]
fn resume_matches_uninterrupted_at_every_stop_point() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 0x5709, injections: 8, ..CampaignConfig::default() };
    let uninterrupted = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let dir = tmpdir("every-stop");

    for stop in 0..cfg.injections {
        let path = dir.join(format!("stop{stop}.json"));
        std::fs::remove_file(&path).ok();
        let interrupted = run_campaign(
            &w,
            &cfg,
            &RunnerConfig {
                threads: 1,
                checkpoint: Some(path.clone()),
                checkpoint_every: 2,
                cancel: CancelToken::limited(stop),
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(interrupted.newly_run, stop, "stop {stop}");
        assert_eq!(interrupted.complete, stop == cfg.injections, "stop {stop}");

        let resumed = run_campaign(
            &w,
            &cfg,
            &RunnerConfig { checkpoint: Some(path), ..RunnerConfig::default() },
        )
        .unwrap();
        assert!(resumed.complete, "stop {stop}");
        assert_eq!(resumed.resumed, stop, "stop {stop}");
        assert_eq!(resumed.summary, uninterrupted.summary, "stop {stop}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Random record sets survive a render/load round trip bit-for-bit.
#[test]
fn checkpoints_roundtrip_random_records() {
    let dir = tmpdir("roundtrip");
    for case in 0u64..20 {
        let mut rng = SplitMix64::stream(0x0BE1, case);
        let n = rng.range_u64(0, 12);
        let mut records: Vec<SingleBitRecord> = (0..n)
            .map(|trial| SingleBitRecord {
                trial: trial * rng.range_u64(1, 9),
                site: FaultSite {
                    wg: rng.below(8) as u32,
                    after_retired: rng.next_u64() >> 20,
                    reg: rng.below(32) as u8,
                    lane: rng.below(64) as u8,
                    bit: rng.below(32) as u8,
                },
                outcome: match rng.below(4) {
                    0 => Outcome::Masked,
                    1 => Outcome::Sdc,
                    2 => Outcome::Hang,
                    _ => Outcome::Crash {
                        reason: format!("panic \"{}\" at line {}\n\ttrace", case, rng.below(999)),
                    },
                },
                read_before_overwrite: rng.bool(),
            })
            .collect();
        records.sort_by_key(|r| r.trial);
        records.dedup_by_key(|r| r.trial);

        let path = dir.join(format!("c{case}.json"));
        let hash = rng.next_u64();
        checkpoint::save(&path, "prop", hash, 1, &records).unwrap();
        let loaded = checkpoint::load(&path).unwrap();
        assert_eq!(loaded.config_hash, hash, "case {case}");
        assert_eq!(loaded.records, records, "case {case}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Adaptive sizing follows a deterministic stage schedule, so its trial
/// count — and every record — is bit-identical across thread counts.
#[test]
fn adaptive_campaigns_are_thread_count_invariant() {
    let w = by_name("dct").expect("registered");
    let cfg = CampaignConfig { seed: 0xADA7, ..CampaignConfig::default() };
    // A target loose enough to be reachable, tight enough to need growth
    // past the first batch.
    let adaptive =
        AdaptiveConfig { target_halfwidth: 0.09, batch: 24, max_injections: 384, confidence: 0.95 };
    let serial = run_adaptive(&w, &cfg, &RunnerConfig::serial(), &adaptive).unwrap();
    assert!(
        serial.stages.len() > 1,
        "target must require more than one batch: {:?}",
        serial.stages
    );
    assert_eq!(serial.stages, {
        let all = adaptive.stage_budgets();
        all[..serial.stages.len()].to_vec()
    });
    if serial.target_met {
        assert!(serial.sdc.halfwidth() <= adaptive.target_halfwidth);
    } else {
        assert_eq!(*serial.stages.last().unwrap(), adaptive.max_injections);
    }
    for threads in [2, 6] {
        let par =
            run_adaptive(&w, &cfg, &RunnerConfig { threads, ..RunnerConfig::default() }, &adaptive)
                .unwrap();
        assert_eq!(par.report.summary, serial.report.summary, "threads {threads}");
        assert_eq!(par.sdc, serial.sdc, "threads {threads}");
        assert_eq!(par.stages, serial.stages, "threads {threads}");
        assert_eq!(par.target_met, serial.target_met, "threads {threads}");
    }
}

/// Interrupting an adaptive campaign at several points and resuming from
/// its checkpoint converges to the identical final state: the records, the
/// interval, and the stopping decision are all interruption-invariant.
#[test]
fn adaptive_resume_matches_uninterrupted() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 0x2E5, ..CampaignConfig::default() };
    let adaptive =
        AdaptiveConfig { target_halfwidth: 0.08, batch: 16, max_injections: 256, confidence: 0.95 };
    let uninterrupted = run_adaptive(&w, &cfg, &RunnerConfig::serial(), &adaptive).unwrap();
    assert!(uninterrupted.stages.len() > 1, "want a multi-stage run: {:?}", uninterrupted.stages);

    let dir = tmpdir("adaptive-resume");
    for stop in [1usize, 7, 20, 33] {
        let path = dir.join(format!("ada{stop}.json"));
        std::fs::remove_file(&path).ok();
        // Drive the campaign in `stop`-trial slices until it completes.
        let mut rounds = 0;
        let finished = loop {
            let slice = run_adaptive(
                &w,
                &cfg,
                &RunnerConfig {
                    threads: 2,
                    checkpoint: Some(path.clone()),
                    checkpoint_every: 4,
                    cancel: CancelToken::limited(stop),
                    ..RunnerConfig::default()
                },
                &adaptive,
            )
            .unwrap();
            rounds += 1;
            assert!(rounds < 1000, "stop {stop}: adaptive run failed to converge");
            if slice.target_met || slice.report.complete {
                break slice;
            }
        };
        assert_eq!(
            finished.report.summary, uninterrupted.report.summary,
            "stop {stop}: records diverged"
        );
        assert_eq!(finished.sdc, uninterrupted.sdc, "stop {stop}");
        assert_eq!(finished.target_met, uninterrupted.target_met, "stop {stop}");
        assert_eq!(
            finished.stages.last(),
            uninterrupted.stages.last(),
            "stop {stop}: final budget diverged"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A hard kill early in stage 2 leaves journal frames for trials past the
/// last snapshot's stage-1 budget. The resume must pick its stage from the
/// snapshot and the journal together, and converge to the uninterrupted run.
#[test]
fn adaptive_resume_after_a_kill_before_the_first_stage_two_snapshot() {
    let w = by_name("fast_walsh").expect("registered");
    let cfg = CampaignConfig { seed: 0x2E5, ..CampaignConfig::default() };
    let adaptive =
        AdaptiveConfig { target_halfwidth: 0.08, batch: 16, max_injections: 256, confidence: 0.95 };
    let uninterrupted = run_adaptive(&w, &cfg, &RunnerConfig::serial(), &adaptive).unwrap();
    assert!(uninterrupted.stages.len() > 1, "want a multi-stage run: {:?}", uninterrupted.stages);

    let dir = tmpdir("adaptive-kill");
    let path = dir.join("ada.json");
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(checkpoint::wal::wal_path(&path)).ok();
    let runner = RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() };
    // Stage 1, complete and checkpointed.
    let stage1 = CampaignConfig { injections: 16, ..cfg };
    assert!(run_campaign(&w, &stage1, &runner).unwrap().complete);
    // Stage 2 killed after four commits: their frames reached the journal,
    // no snapshot did.
    let stage2 = CampaignConfig { injections: 32, ..cfg };
    let records = run_campaign(&w, &stage2, &RunnerConfig::serial()).unwrap().summary.records;
    let fingerprint = checkpoint::config_fingerprint(w.name, &cfg);
    let mut wal =
        checkpoint::wal::WalWriter::create(&path, w.name, fingerprint, cfg.mode_bits).unwrap();
    for r in records.iter().filter(|r| (16..20).contains(&r.trial)) {
        wal.append(r).unwrap();
    }
    drop(wal);

    let resumed = run_adaptive(&w, &cfg, &runner, &adaptive).unwrap();
    assert_eq!(resumed.report.summary, uninterrupted.report.summary);
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt (truncated) checkpoint is quarantined to `<path>.corrupt` and
/// the campaign restarts cleanly, reproducing the uncorrupted summary.
#[test]
fn corrupt_checkpoints_are_quarantined_and_recovered() {
    let w = by_name("transpose").expect("registered");
    let cfg = CampaignConfig { seed: 0xC0, injections: 12, ..CampaignConfig::default() };
    let clean = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();

    let dir = tmpdir("quarantine");
    let path = dir.join("camp.json");
    let runner = RunnerConfig { checkpoint: Some(path.clone()), ..RunnerConfig::serial() };
    run_campaign(&w, &cfg, &runner).unwrap();
    let intact = std::fs::read(&path).unwrap();

    // Truncation at any of these byte offsets must be survivable: the file
    // is set aside and the campaign restarts from zero.
    for cut in [0usize, 1, intact.len() / 4, intact.len() / 2, intact.len() - 3] {
        std::fs::write(&path, &intact[..cut]).unwrap();
        std::fs::remove_file(quarantine_path(&path)).ok();

        let recovered = run_campaign(&w, &cfg, &runner)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery failed: {e}"));
        assert_eq!(recovered.resumed, 0, "cut at {cut}: nothing valid to resume");
        assert_eq!(recovered.newly_run, cfg.injections, "cut at {cut}");
        assert_eq!(recovered.summary, clean.summary, "cut at {cut}");
        assert_eq!(
            std::fs::read(quarantine_path(&path)).unwrap(),
            intact[..cut],
            "cut at {cut}: quarantined bytes must be the damaged file"
        );
        // The rewritten checkpoint is valid again.
        assert_eq!(checkpoint::load(&path).unwrap().records.len(), cfg.injections);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The integrity negative control: a workload whose golden run drifts
/// between builds must be refused outright — classifying injections against
/// an unstable reference would poison every verdict.
#[test]
fn nondeterministic_golden_runs_are_refused() {
    let w = nondet_drill();
    let cfg = CampaignConfig { injections: 4, ..CampaignConfig::default() };
    let err =
        run_campaign(&w, &cfg, &RunnerConfig::serial()).expect_err("the drill exists to be caught");
    let msg = err.to_string();
    assert!(msg.contains("nondeterministic"), "unhelpful diagnostic: {msg}");
}

/// The crash positive control: with OOB wrapping disabled, fault-induced
/// interpreter panics are recorded as Crash outcomes — and even those
/// records (including their captured panic text) are identical across
/// thread counts.
#[test]
fn crash_records_are_data_and_deterministic() {
    let w = by_name("histogram").expect("registered");
    let cfg = CampaignConfig {
        seed: 0xBAD_ACCE55,
        injections: 80,
        wrap_oob: false,
        ..CampaignConfig::default()
    };
    let serial = run_campaign(&w, &cfg, &RunnerConfig::serial()).unwrap();
    let crashes: Vec<&SingleBitRecord> = serial
        .summary
        .records
        .iter()
        .filter(|r| matches!(r.outcome, Outcome::Crash { .. }))
        .collect();
    assert!(!crashes.is_empty(), "expected wild accesses to crash with wrap_oob off");
    for r in &crashes {
        let Outcome::Crash { reason } = &r.outcome else { unreachable!() };
        assert!(!reason.is_empty());
    }

    let par =
        run_campaign(&w, &cfg, &RunnerConfig { threads: 4, ..RunnerConfig::default() }).unwrap();
    assert_eq!(par.summary, serial.summary);

    // Batched execution retires crashy trials onto the sequential path, so
    // even the captured panic text matches byte for byte at any width.
    let batched = run_campaign(
        &w,
        &cfg,
        &RunnerConfig { threads: 4, batch_width: 8, ..RunnerConfig::default() },
    )
    .unwrap();
    assert_eq!(batched.summary, serial.summary);

    // The same seed with paper semantics (wrapping) records no crashes.
    let wrapped =
        run_campaign(&w, &CampaignConfig { wrap_oob: true, ..cfg }, &RunnerConfig::serial())
            .unwrap();
    assert!(
        wrapped.summary.records.iter().all(|r| !matches!(r.outcome, Outcome::Crash { .. })),
        "wrapping memory must not crash"
    );
}
