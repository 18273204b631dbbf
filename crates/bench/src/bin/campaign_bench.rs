//! Campaign benchmark: the hot path (clone-per-trial vs. reusable arena
//! vs. lockstep trial batching) and the whole campaign end to end.
//!
//! Measures the same pre-sampled fault sites through three trial paths —
//! the historical [`run_one`] (fresh `Workload::build` per trial, a full
//! memory image allocated and dropped every time), the arena path (one
//! [`TrialArena`] reset between trials via dirty-page tracking), and the
//! batched path (a [`TrialBatch`] decoding each golden instruction once
//! for a whole lockstep group) — and emits a machine-readable
//! `BENCH_campaign.json`:
//!
//! ```json
//! {
//!   "workload": "fast_walsh",
//!   "trials": 300,
//!   "baseline": {"trials_per_sec": ..., "allocs_per_trial": ...},
//!   "arena":    {"trials_per_sec": ..., "allocs_per_trial": ...},
//!   "speedup": ...,
//!   "batch": {"width": 8, "trials_per_sec": ..., "allocs_per_trial": ...,
//!             "lockstep_completed": ..., "retired_to_sequential": ...},
//!   "batch_speedup": ...,
//!   "e2e": {"width": 8, "threads": 2,
//!           "plain": {"trials_per_sec": ...},
//!           "journaled": {"trials_per_sec": ..., "write_syscalls": ...},
//!           "journaled_slowdown": ..., "journal_writes_per_trial": ...}
//! }
//! ```
//!
//! Every trial's verdict is cross-checked between the paths; any
//! disagreement is a hard failure (the arena and batch must be
//! optimizations, not reinterpretations). `--min-speedup X` gates the
//! arena-vs-baseline speedup and `--min-batch-speedup X` gates the
//! batch-vs-arena speedup for CI.
//!
//! The `e2e` section times two real [`run_campaign`] calls over the same
//! trials at the bench's batch width on two threads: one without a
//! checkpoint, one with checkpoint + write-ahead journal in a fresh
//! directory, and requires their records to agree. It counts the write
//! syscalls of the journaled run from `/proc/self/io` (`syscw`, Linux
//! only) beyond those of the plain run: `journal_writes_per_trial`. Journal
//! group commit makes that about one write per lockstep group, and
//! `--max-journal-writes-per-trial X` gates it. A syscall count does not
//! depend on the machine's speed or load, so the gate cannot flake.
//!
//! ```text
//! campaign_bench [--workload NAME] [--trials N] [--out FILE]
//!                [--batch-width W] [--min-speedup X] [--min-batch-speedup X]
//!                [--max-journal-writes-per-trial X]
//! ```

use mbavf_inject::campaign::{run_one, CampaignConfig, OutcomeKind, SiteSampler};
use mbavf_inject::{run_campaign, CampaignSummary, RunnerConfig};
use mbavf_sim::interp::{run_golden, InterpError, Termination};
use mbavf_sim::{TrialArena, TrialBatch, TrialResult};
use mbavf_workloads::by_name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// System allocator wrapped with an allocation counter, so the benchmark
/// can report *allocations per trial* — the quantity the arena exists to
/// eliminate — not just wall-clock.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage: campaign_bench [--workload NAME] [--trials N] [--out FILE]\n\
                       [--batch-width W] [--min-speedup X] [--min-batch-speedup X]\n\
                       [--max-journal-writes-per-trial X]";

/// Worker threads of the end-to-end campaigns.
const E2E_THREADS: usize = 2;

struct PathStats {
    trials_per_sec: f64,
    allocs_per_trial: f64,
}

/// One verdict classification shared by every measured path, so a
/// cross-check failure always means the execution diverged, never the
/// bookkeeping.
fn classify(result: Result<TrialResult, InterpError>) -> (OutcomeKind, bool) {
    match result {
        Ok(run) => {
            let kind = if run.termination == Termination::Hang {
                OutcomeKind::Hang
            } else if run.output_matches {
                OutcomeKind::Masked
            } else {
                OutcomeKind::Sdc
            };
            (kind, run.injected_value_read)
        }
        Err(InterpError::Crash { .. }) => (OutcomeKind::Crash, false),
        Err(e) => panic!("trial path refused a sampled site: {e}"),
    }
}

fn measure(trials: usize, mut trial: impl FnMut(usize)) -> PathStats {
    trial(0); // warm-up: fault the lazy setup out of the measured region
    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for t in 0..trials {
        trial(t);
    }
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc0;
    PathStats {
        trials_per_sec: trials as f64 / secs,
        allocs_per_trial: allocs as f64 / trials as f64,
    }
}

/// This process's write syscalls so far (`syscw` in `/proc/self/io`, all
/// threads); `None` where procfs does not report it.
fn write_syscalls() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines().find_map(|line| line.strip_prefix("syscw:")).and_then(|v| v.trim().parse().ok())
}

/// One timed end-to-end campaign: its summary, trials per second, and the
/// write syscalls it made (when procfs reports them).
fn e2e_run(
    workload: &mbavf_workloads::Workload,
    cfg: &CampaignConfig,
    runner: &RunnerConfig,
) -> Result<(CampaignSummary, f64, Option<u64>), String> {
    let writes0 = write_syscalls();
    let t0 = Instant::now();
    let report = run_campaign(workload, cfg, runner).map_err(|e| e.to_string())?;
    let secs = t0.elapsed().as_secs_f64().max(1e-9);
    let writes = write_syscalls().zip(writes0).map(|(after, before)| after - before);
    Ok((report.summary, cfg.injections as f64 / secs, writes))
}

fn main() -> ExitCode {
    let mut workload = "fast_walsh".to_string();
    let mut trials = 300usize;
    let mut out = "BENCH_campaign.json".to_string();
    let mut batch_width = 8usize;
    let mut min_speedup: Option<f64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut max_journal_writes: Option<f64> = None;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].clone();
        let mut value = || {
            i += 1;
            argv.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed = match flag.as_str() {
            "--workload" => value().map(|v| workload = v),
            "--trials" => value()
                .and_then(|v| v.parse().map(|n| trials = n).map_err(|e| format!("--trials: {e}"))),
            "--out" => value().map(|v| out = v),
            "--batch-width" => value().and_then(|v| {
                v.parse().map_err(|e| format!("--batch-width: {e}")).and_then(|n: usize| match n {
                    0 => Err("--batch-width must be at least 1".to_string()),
                    n => {
                        batch_width = n;
                        Ok(())
                    }
                })
            }),
            "--min-speedup" => value().and_then(|v| {
                v.parse().map(|x| min_speedup = Some(x)).map_err(|e| format!("--min-speedup: {e}"))
            }),
            "--min-batch-speedup" => value().and_then(|v| {
                v.parse()
                    .map(|x| min_batch_speedup = Some(x))
                    .map_err(|e| format!("--min-batch-speedup: {e}"))
            }),
            "--max-journal-writes-per-trial" => value().and_then(|v| {
                v.parse()
                    .map(|x| max_journal_writes = Some(x))
                    .map_err(|e| format!("--max-journal-writes-per-trial: {e}"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other}\n{USAGE}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        i += 1;
    }
    if trials == 0 {
        eprintln!("--trials must be positive");
        return ExitCode::FAILURE;
    }

    let Some(w) = by_name(&workload) else {
        eprintln!("unknown workload {workload}");
        return ExitCode::FAILURE;
    };
    let cfg = CampaignConfig { seed: 0xBE9C, injections: trials, ..CampaignConfig::default() };

    // Golden reference + sampler, set up exactly as a campaign would.
    let mut inst = w.build(cfg.scale);
    let program = inst.program.clone();
    let wgs = inst.workgroups;
    let golden = run_golden(&program, &mut inst.mem, wgs);
    let max_steps = golden.per_wg_retired.iter().copied().max().unwrap_or(1) * cfg.hang_factor;
    let sampler = match SiteSampler::new(&golden.per_wg_retired, program.num_vregs()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sites: Vec<_> = (0..trials as u64).map(|t| sampler.sample(cfg.seed, t)).collect();

    // Both paths classify the identical site list; verdicts must agree.
    let mut base_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials + 1);
    let base = measure(trials, |t| {
        let (outcome, read) = run_one(&w, &cfg, &golden.output, max_steps, sites[t], 1);
        base_verdicts.push((outcome.kind(), read));
    });

    let fresh = w.build(cfg.scale);
    let mut arena = TrialArena::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob);
    let mut arena_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials + 1);
    let arena_stats = measure(trials, |t| {
        arena_verdicts.push(classify(arena.run_trial(
            sites[t].injection(1),
            max_steps,
            &golden.output,
        )));
    });

    // Batched lockstep path: the identical site list in groups of
    // `batch_width`, one decoded golden stream per group.
    let fresh = w.build(cfg.scale);
    let mut batch =
        TrialBatch::new(fresh.program, fresh.mem, fresh.workgroups, cfg.wrap_oob, batch_width);
    let mut injections = Vec::with_capacity(batch_width);
    let mut batch_verdicts: Vec<(OutcomeKind, bool)> = Vec::with_capacity(trials);

    // Warm-up group, mirroring measure()'s warm-up trial: fault the lazy
    // setup (lane forks, dirty-page growth) out of the measured region.
    injections.extend(sites[..trials.min(batch_width)].iter().map(|s| s.injection(1)));
    batch.run_batch(&injections, max_steps, &golden.output);

    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for group in sites.chunks(batch_width) {
        injections.clear();
        injections.extend(group.iter().map(|s| s.injection(1)));
        for result in batch.run_batch(&injections, max_steps, &golden.output) {
            batch_verdicts.push(classify(result));
        }
    }
    let batch_secs = t0.elapsed().as_secs_f64().max(1e-9);
    let batch_stats = PathStats {
        trials_per_sec: trials as f64 / batch_secs,
        allocs_per_trial: (ALLOCS.load(Ordering::Relaxed) - alloc0) as f64 / trials as f64,
    };

    // Drop the warm-up entries, then insist on bit-identical verdicts.
    for (t, (b, a)) in base_verdicts[1..].iter().zip(&arena_verdicts[1..]).enumerate() {
        if b != a {
            eprintln!("trial {t}: baseline {b:?} but arena {a:?} — the paths diverged");
            return ExitCode::FAILURE;
        }
    }
    for (t, (a, b)) in arena_verdicts[1..].iter().zip(&batch_verdicts).enumerate() {
        if a != b {
            eprintln!("trial {t}: arena {a:?} but batch {b:?} — the paths diverged");
            return ExitCode::FAILURE;
        }
    }

    // End to end: the same campaign without and with checkpoint + journal.
    let e2e_runner = RunnerConfig { threads: E2E_THREADS, batch_width, ..RunnerConfig::default() };
    let (plain_summary, plain_rate, plain_writes) = match e2e_run(&w, &cfg, &e2e_runner) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("e2e campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let dir = std::env::temp_dir().join(format!("campaign_bench-{}", std::process::id()));
    let journaled_runner =
        RunnerConfig { checkpoint: Some(dir.join("bench.ckpt.json")), ..e2e_runner.clone() };
    let journaled = std::fs::create_dir_all(&dir)
        .map_err(|e| format!("cannot create {}: {e}", dir.display()))
        .and_then(|()| e2e_run(&w, &cfg, &journaled_runner));
    let _ = std::fs::remove_dir_all(&dir);
    let (journaled_summary, journaled_rate, journaled_writes) = match journaled {
        Ok(run) => run,
        Err(e) => {
            eprintln!("journaled e2e campaign failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if journaled_summary != plain_summary {
        eprintln!("e2e: the journaled campaign's records differ from the plain campaign's");
        return ExitCode::FAILURE;
    }
    let journal_writes = journaled_writes
        .zip(plain_writes)
        .map(|(journaled, plain)| journaled.saturating_sub(plain) as f64 / trials as f64);

    let speedup = arena_stats.trials_per_sec / base.trials_per_sec.max(1e-9);
    let batch_speedup = batch_stats.trials_per_sec / arena_stats.trials_per_sec.max(1e-9);
    let doc = format!(
        "{{\n  \"workload\": \"{workload}\",\n  \"trials\": {trials},\n  \
         \"baseline\": {{\"trials_per_sec\": {:.1}, \"allocs_per_trial\": {:.2}}},\n  \
         \"arena\": {{\"trials_per_sec\": {:.1}, \"allocs_per_trial\": {:.2}}},\n  \
         \"speedup\": {speedup:.2},\n  \
         \"batch\": {{\"width\": {batch_width}, \"trials_per_sec\": {:.1}, \
         \"allocs_per_trial\": {:.2}, \"lockstep_completed\": {}, \
         \"retired_to_sequential\": {}}},\n  \
         \"batch_speedup\": {batch_speedup:.2},\n  \
         \"e2e\": {{\"width\": {batch_width}, \"threads\": {E2E_THREADS}, \
         \"plain\": {{\"trials_per_sec\": {plain_rate:.1}}}, \
         \"journaled\": {{\"trials_per_sec\": {journaled_rate:.1}, \"write_syscalls\": {}}}, \
         \"journaled_slowdown\": {:.2}, \"journal_writes_per_trial\": {}}}\n}}\n",
        base.trials_per_sec,
        base.allocs_per_trial,
        arena_stats.trials_per_sec,
        arena_stats.allocs_per_trial,
        batch_stats.trials_per_sec,
        batch_stats.allocs_per_trial,
        batch.lockstep_completed(),
        batch.retired_to_sequential(),
        journaled_writes.map_or("null".to_string(), |n| n.to_string()),
        plain_rate / journaled_rate.max(1e-9),
        journal_writes.map_or("null".to_string(), |x| format!("{x:.3}")),
    );
    print!("{doc}");
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");

    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("speedup {speedup:.2}x below required {min:.2}x");
            return ExitCode::from(2);
        }
    }
    if let Some(min) = min_batch_speedup {
        if batch_speedup < min {
            eprintln!(
                "batch speedup {batch_speedup:.2}x (width {batch_width}) below required {min:.2}x"
            );
            return ExitCode::from(2);
        }
    }
    if let Some(max) = max_journal_writes {
        match journal_writes {
            None => {
                eprintln!("--max-journal-writes-per-trial: /proc/self/io reports no syscw here");
                return ExitCode::FAILURE;
            }
            Some(per_trial) if per_trial > max => {
                eprintln!(
                    "journal writes per trial {per_trial:.3} (width {batch_width}) above the \
                     allowed {max:.3}"
                );
                return ExitCode::from(2);
            }
            Some(_) => {}
        }
    }
    ExitCode::SUCCESS
}
