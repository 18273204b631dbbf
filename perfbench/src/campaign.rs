//! The `campaign-journaled` and `campaign-isolated` workloads: whole
//! `fast_walsh` campaigns through the runner with a checkpoint and
//! write-ahead journal, and through the process-isolation supervisor.
//!
//! Every repetition is checked against a reference run of the same seed
//! and budget in another execution mode (threads, sequential trials, no
//! checkpoint): the journaled run's final checkpoint must be byte-equal to
//! the reference records rendered as a checkpoint, and the supervised
//! run's summary must equal the reference summary.

use crate::gate::{same_summary, Digest, Expected};
use crate::trace::Tracer;
use crate::Tally;
use mbavf_core::rng::fnv1a;
use mbavf_inject::checkpoint::{self, wal};
use mbavf_inject::{
    run_campaign, run_supervised, CampaignConfig, CampaignReport, CampaignSummary, RunnerConfig,
    SupervisorConfig, TransportKind,
};
use mbavf_sim::run_golden;
use mbavf_workloads::{by_name, Scale, Workload};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The injected workload.
pub const WORKLOAD: &str = "fast_walsh";
/// Runner threads and supervisor workers: one per core of a 2-core box.
pub const THREADS: usize = 2;
/// Trials per worker thread executed in lockstep on the journaled path.
pub const BATCH_WIDTH: usize = 8;
/// Trials per campaign. Journaled cost per trial grows with campaign length
/// (each snapshot rewrites every record so far), so the figures hold for
/// this length only.
pub const TRIALS: usize = 4096;
/// Seeds whose journaled checkpoint digest `--print-expected` records.
pub const KEPT_SEEDS: std::ops::Range<u64> = 0..16;

/// Which campaign path a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `run_campaign`, 2 threads, batch width 8, checkpoint + WAL.
    Journaled,
    /// `run_supervised`, pipe transport, 2 workers, no checkpoint.
    Isolated,
}

/// A campaign workload ready to measure.
pub struct Campaign {
    mode: Mode,
    workload: Workload,
    cfg: CampaignConfig,
    reference: CampaignSummary,
    reference_checkpoint: Vec<u8>,
    kept_digest: Option<u64>,
    dir: PathBuf,
}

fn config(seed: u64, trials: usize) -> CampaignConfig {
    CampaignConfig { seed, injections: trials, scale: Scale::Test, ..CampaignConfig::default() }
}

fn workload() -> Workload {
    by_name(WORKLOAD).expect("fast_walsh is in the suite")
}

/// Build the workload and run its golden reference twice, as a campaign
/// does before its first trial; the two runs must agree. Returns the
/// instructions one golden run retires.
pub fn set_up(t: &mut Tracer, tally: &mut Tally) -> u64 {
    let w = workload();
    let mut golden = || {
        let mut inst = t.span("workloads.build", |_| w.build(Scale::Test));
        let program = inst.program.clone();
        t.span("sim.golden", |_| run_golden(&program, &mut inst.mem, inst.workgroups))
    };
    let (a, b) = (golden(), golden());
    let same = fnv1a(&a.output) == fnv1a(&b.output) && a.per_wg_retired == b.per_wg_retired;
    tally.check(if same { Ok(()) } else { Err("golden runs disagree".to_string()) });
    a.per_wg_retired.iter().sum()
}

fn thread_reference(w: &Workload, cfg: &CampaignConfig) -> Result<CampaignSummary, String> {
    let runner = RunnerConfig { threads: THREADS, ..RunnerConfig::default() };
    let report = run_campaign(w, cfg, &runner).map_err(|e| format!("reference campaign: {e}"))?;
    Ok(report.summary)
}

fn render_checkpoint(cfg: &CampaignConfig, records: &CampaignSummary) -> Vec<u8> {
    let hash = checkpoint::config_fingerprint(WORKLOAD, cfg);
    checkpoint::render(WORKLOAD, hash, cfg.mode_bits, &records.records).into_bytes()
}

fn checkpoint_key(seed: u64, trials: usize) -> String {
    format!("journal/{WORKLOAD}/{seed}/{trials}/checkpoint")
}

impl Campaign {
    /// Compute the reference run for `seed`; journaled repetitions write
    /// under `dir`, which is removed when the campaign is dropped.
    pub fn new(mode: Mode, seed: u64, dir: &Path, expected: &Expected) -> Result<Campaign, String> {
        let workload = workload();
        let cfg = config(seed, TRIALS);
        let reference = thread_reference(&workload, &cfg)?;
        let reference_checkpoint = render_checkpoint(&cfg, &reference);
        Ok(Campaign {
            mode,
            workload,
            cfg,
            reference,
            reference_checkpoint,
            kept_digest: expected.get(&checkpoint_key(seed, TRIALS)),
            dir: dir.to_path_buf(),
        })
    }

    fn run(&self, t: &mut Tracer, rep: u32) -> (Result<CampaignReport, String>, Option<PathBuf>) {
        match self.mode {
            Mode::Journaled => {
                // A fresh directory per repetition, so nothing is resumed.
                let rep_dir = self.dir.join(format!("rep-{rep}"));
                if let Err(e) = std::fs::create_dir_all(&rep_dir) {
                    return (Err(format!("{}: {e}", rep_dir.display())), None);
                }
                let path = rep_dir.join("campaign.json");
                let runner = RunnerConfig {
                    threads: THREADS,
                    batch_width: BATCH_WIDTH,
                    checkpoint: Some(path.clone()),
                    ..RunnerConfig::default()
                };
                let report = t.span("runner.run_campaign", |_| {
                    run_campaign(&self.workload, &self.cfg, &runner)
                });
                (report.map_err(|e| e.to_string()), Some(path))
            }
            Mode::Isolated => {
                let runner = RunnerConfig { threads: THREADS, ..RunnerConfig::default() };
                let sup = SupervisorConfig {
                    workers: THREADS,
                    transport: TransportKind::Pipe,
                    ..SupervisorConfig::default()
                };
                let report = t.span("supervisor.run_supervised", |_| {
                    run_supervised(&self.workload, &self.cfg, &runner, &sup)
                });
                (report.map_err(|e| e.to_string()), None)
            }
        }
    }

    /// Run one whole campaign, check it, and return the trials it committed
    /// and its layer counters.
    pub fn rep(
        &self,
        t: &mut Tracer,
        rep: u32,
        tally: &mut Tally,
    ) -> (u64, BTreeMap<&'static str, f64>) {
        let n = self.cfg.injections as u64;
        let (report, path) = self.run(t, rep);
        let mut layer = BTreeMap::new();
        let verdict = report.and_then(|r| {
            layer.insert("runner.trials", r.summary.records.len() as f64);
            if let Some(l) = r.trial_latency {
                layer.insert("runner.trial_p50_us", l.p50_us as f64);
                layer.insert("runner.trial_p99_us", l.p99_us as f64);
                layer.insert("runner.trial_latency_n", l.n as f64);
            }
            if self.mode == Mode::Isolated {
                layer.insert(
                    "supervisor.shards",
                    n.div_ceil(SupervisorConfig::default().shard_size as u64) as f64,
                );
            }
            if !r.complete || !r.poisoned.is_empty() {
                return Err(format!(
                    "incomplete campaign: complete={}, {} poisoned",
                    r.complete,
                    r.poisoned.len()
                ));
            }
            same_summary(&r.summary, &self.reference)?;
            if let Some(path) = &path {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                layer.insert("checkpoint.bytes", bytes.len() as f64);
                if bytes != self.reference_checkpoint {
                    return Err("final checkpoint differs from the reference records".to_string());
                }
                if let Some(want) = self.kept_digest {
                    let mut d = Digest::default();
                    d.bytes(&bytes);
                    if d.value() != want {
                        return Err(format!(
                            "checkpoint digest {:#018x}, kept {want:#018x}",
                            d.value()
                        ));
                    }
                }
                if wal::wal_path(path).exists() {
                    return Err("write-ahead journal left behind".to_string());
                }
            }
            Ok(r.summary.records.len() as u64)
        });
        if let Some(rep_dir) = path.as_ref().and_then(|p| p.parent()) {
            let _ = std::fs::remove_dir_all(rep_dir);
        }
        match verdict {
            Ok(done) => {
                tally.ops(n, n - done, None);
                (done, layer)
            }
            Err(e) => {
                tally.ops(n, n, Some(format!("rep {rep}: {e}")));
                (0, layer)
            }
        }
    }
}

impl Drop for Campaign {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Print the journaled checkpoint digests of the kept seeds.
pub fn print_expected() {
    let w = workload();
    for seed in KEPT_SEEDS {
        let cfg = config(seed, TRIALS);
        let reference = thread_reference(&w, &cfg).expect("reference campaign runs");
        let mut d = Digest::default();
        d.bytes(&render_checkpoint(&cfg, &reference));
        println!("{} {:#018x}", checkpoint_key(seed, TRIALS), d.value());
    }
}
