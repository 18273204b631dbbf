//! End-to-end benchmark of the MB-AVF reproduction and campaign paths.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <analysis-cache|analysis-vgpr|campaign-journaled|campaign-isolated> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process sets the workload up several times (the median is
//! `setup_s`), then repeats a fixed unit of work — one exhibit grid, or one
//! whole campaign — until `--seconds` have passed, checking every
//! repetition's outputs exactly. With `--trace 0` it reports the end-to-end
//! metrics; with `--trace 1` it alternates traced and untraced
//! repetitions and reports the per-layer metrics, the tracing overhead
//! among them, and writes the spans to `.bench_out/`. The last line of
//! standard output is the JSON result. See `perfbench/README.md`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads Linux /proc counters and the 64-bit Linux rusage layout");

mod analysis;
mod campaign;
mod gate;
mod procfs;
mod stats;
mod trace;

use analysis::{Fig, Store, Unit};
use campaign::{Campaign, Mode};
use gate::Expected;
use stats::median;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <analysis-cache|analysis-vgpr|\
campaign-journaled|campaign-isolated> --seed <n> --seconds <s> --trace <0|1>\n       \
perfbench --print-expected";

/// Expected simulated statistics and digests, kept with the benchmark.
const EXPECTED: &str = include_str!("../expected.txt");

/// Where runs leave their traces and campaign scratch files, relative to
/// the working directory.
const OUT_DIR: &str = ".bench_out";

/// Set-up repetitions per run; `setup_s` is their median. The first few
/// analysis set-ups run slow while the allocator warms up, and a campaign's
/// set-up takes about a millisecond, so both repeat enough to steady it.
const SETUP_REPS_ANALYSIS: usize = 11;
const SETUP_REPS_CAMPAIGN: usize = 31;

/// L1 stores of the `analysis-cache` grid: the sparsest of the suite (1.6%
/// of bytes have a non-empty timeline), a dense one (100%) and one in
/// between (25%).
const CACHE_STORES: [&str; 3] = ["fast_walsh", "matmul", "dct"];
/// VGPR stores of the `analysis-vgpr` grid: the densest register file of
/// the suite (84% non-empty bytes) and one of the sparsest (17%).
const VGPR_STORES: [&str; 2] = ["matmul", "dct"];

/// Attempted and failed operations, and why each failure happened.
#[derive(Default)]
pub struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    /// Count one checked operation.
    pub fn check(&mut self, r: Result<(), String>) {
        self.ops(1, u64::from(r.is_err()), r.err());
    }

    /// Count one failed operation.
    pub fn fail(&mut self, why: String) {
        self.ops(1, 1, Some(why));
    }

    /// Count `attempted` operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, why: Option<String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(why);
    }
}

/// Deterministic Fisher–Yates shuffle driven by SplitMix64.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?.parse().map_err(|_| "bad --seconds".to_string())?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|_| "bad --seed".to_string())?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

/// A workload after set-up: repeats its unit of work on demand.
enum Bench {
    Analysis { stores: Vec<Store>, grid: Vec<Unit> },
    Campaign(Campaign),
}

/// What one measured repetition did.
struct Rep {
    traced: bool,
    ops: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Layer counters from the workload plus the process counters.
    layer: BTreeMap<&'static str, f64>,
}

impl Bench {
    fn threads(&self) -> f64 {
        match self {
            Bench::Analysis { .. } => 1.0,
            Bench::Campaign(_) => campaign::THREADS as f64,
        }
    }

    fn rep(&self, t: &mut Tracer, k: u32, expected: &Expected, tally: &mut Tally) -> Rep {
        let (io0, cpu0, cs0) = (procfs::io(), procfs::cpu(), procfs::voluntary_ctxsw());
        let t0 = Instant::now();
        let (ops, mut layer) = match self {
            Bench::Analysis { stores, grid } => {
                let (mut calls, mut groups) = (0, 0);
                for &u in grid {
                    let r = analysis::run_unit(t, stores, u, expected, tally);
                    calls += r.calls;
                    groups += r.groups;
                }
                let counts = [("analysis.calls", calls as f64), ("analysis.groups", groups as f64)];
                (groups, counts.into_iter().collect())
            }
            Bench::Campaign(c) => c.rep(t, k, tally),
        };
        let wall_s = t0.elapsed().as_secs_f64();
        let (io1, cpu1, cs1) = (procfs::io(), procfs::cpu(), procfs::voluntary_ctxsw());
        let cpu_s = cpu1.total_s() - cpu0.total_s();
        let trials = layer.get("runner.trials").copied().unwrap_or(0.0);
        let writes = (io1.syscw - io0.syscw) as f64;
        layer.insert("proc.write_syscalls", writes);
        layer.insert("proc.write_bytes", (io1.wchar - io0.wchar) as f64);
        layer.insert(
            "proc.write_syscalls_per_trial",
            if trials > 0.0 { writes / trials } else { 0.0 },
        );
        layer.insert("proc.sys_s", cpu1.sys_s - cpu0.sys_s);
        layer.insert("proc.vol_ctxsw", cs1.saturating_sub(cs0) as f64);
        layer.insert("proc.offcpu_s", self.threads() * wall_s - cpu_s);
        if let Bench::Campaign(_) = self {
            if layer.contains_key("supervisor.shards") {
                layer.insert("supervisor.parent_cpu_s", cpu1.self_s - cpu0.self_s);
                layer.insert("supervisor.child_cpu_s", cpu1.children_s - cpu0.children_s);
                layer.insert("supervisor.read_bytes", (io1.rchar - io0.rchar) as f64);
            }
        }
        Rep { traced: t.enabled(), ops, wall_s, cpu_s, layer }
    }
}

/// Every end-to-end metric, in report order, with its unit.
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB")];

/// Every per-layer metric, in report order, with its unit.
const PER_LAYER: [(&str, &str); 41] = [
    ("wall.ops_per_s", "1/s"),
    ("analysis.calls", "count"),
    ("analysis.groups", "count"),
    ("analysis.s", "s"),
    ("analysis.ns_per_group", "ns"),
    ("analysis.l1_dense_s", "s"),
    ("analysis.l1_sparse_s", "s"),
    ("analysis.vgpr_s", "s"),
    ("sim.l1_nonempty_bytes", "bytes"),
    ("sim.vgpr_nonempty_bytes", "bytes"),
    ("experiments.fig4_s", "s"),
    ("experiments.fig6_s", "s"),
    ("experiments.fig9_s", "s"),
    ("experiments.fig10_s", "s"),
    ("experiments.fig11_s", "s"),
    ("sim.timed_s", "s"),
    ("sim.timed_cycles", "count"),
    ("sim.liveness_s", "s"),
    ("sim.extract_s", "s"),
    ("workloads.build_s", "s"),
    ("sim.golden_s", "s"),
    ("sim.golden_instr", "count"),
    ("runner.trials", "count"),
    ("runner.trial_p50_us", "us"),
    ("runner.trial_p99_us", "us"),
    ("runner.trial_latency_n", "count"),
    ("proc.write_syscalls", "count"),
    ("proc.write_bytes", "bytes"),
    ("proc.write_syscalls_per_trial", "count"),
    ("proc.sys_s", "s"),
    ("proc.vol_ctxsw", "count"),
    ("proc.offcpu_s", "s"),
    ("checkpoint.bytes", "bytes"),
    ("supervisor.parent_cpu_s", "s"),
    ("supervisor.child_cpu_s", "s"),
    ("supervisor.read_bytes", "bytes"),
    ("supervisor.shards", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("trace.traced_reps", "count"),
    ("trace.untraced_reps", "count"),
];

/// Fewest measured repetitions per run: a median of three.
const MIN_REPS: usize = 3;

/// Run ids: set-up repetition `i` is `i + 1`; measured repetition `k` is
/// `MEASURED_RUN0 + k`.
const MEASURED_RUN0: u32 = 1000;

fn per_layer(
    t: &Tracer,
    setup_reps: usize,
    reps: &[Rep],
    setup_counts: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = PER_LAYER.iter().map(|&(k, _)| (k, 0.0)).collect();
    let setup_runs: Vec<u32> = (1..=setup_reps as u32).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let traced_runs: Vec<u32> = reps
        .iter()
        .enumerate()
        .filter(|(_, r)| r.traced)
        .map(|(k, _)| MEASURED_RUN0 + k as u32)
        .collect();
    let per = |v: f64, n: usize| if n == 0 { 0.0 } else { v / n as f64 };

    // Span-timed metrics are named `<span>_s`: set-up spans per set-up,
    // exhibit spans (analysis included) and analysis self time per
    // traced repetition.
    let span =
        |metric: &str| metric.strip_suffix("_s").expect("span metrics end in _s").to_string();
    let setup_total = t.total_s(&setup_runs);
    let total = t.total_s(&traced_runs);
    let own = t.self_s(&traced_runs);
    let of = |times: &BTreeMap<&str, f64>, metric: &str, n: usize| {
        per(times.get(span(metric).as_str()).copied().unwrap_or(0.0), n)
    };
    for metric in
        ["sim.timed_s", "sim.liveness_s", "sim.extract_s", "workloads.build_s", "sim.golden_s"]
    {
        m.insert(metric, of(&setup_total, metric, setup_reps));
    }
    for metric in PER_LAYER.iter().map(|&(k, _)| k).filter(|k| k.starts_with("experiments.")) {
        m.insert(metric, of(&total, metric, traced.len()));
    }
    let mut analysis_s = 0.0;
    for metric in ["analysis.l1_dense_s", "analysis.l1_sparse_s", "analysis.vgpr_s"] {
        let v = of(&own, metric, traced.len());
        analysis_s += v;
        m.insert(metric, v);
    }
    m.insert("analysis.s", analysis_s);
    m.extend(setup_counts.iter().map(|(&k, &v)| (k, v)));

    // Layer and process counters: the median over traced repetitions.
    let keys: Vec<&'static str> = traced.iter().flat_map(|r| r.layer.keys().copied()).collect();
    for k in keys {
        let v: Vec<f64> = traced.iter().map(|r| r.layer.get(k).copied().unwrap_or(0.0)).collect();
        m.insert(k, median(&v));
    }
    if m["analysis.groups"] > 0.0 {
        m.insert("analysis.ns_per_group", analysis_s * 1e9 / m["analysis.groups"]);
    }

    let rate = |traced_flag: bool| {
        let v: Vec<f64> = reps
            .iter()
            .filter(|r| r.traced == traced_flag)
            .map(|r| r.ops as f64 / r.wall_s)
            .collect();
        median(&v)
    };
    let (on, off) = (rate(true), rate(false));
    m.insert("wall.ops_per_s", off);
    if on > 0.0 && off > 0.0 {
        m.insert("trace.overhead_pct", (off / on - 1.0) * 100.0);
    }
    m.insert("trace.spans", t.spans().len() as f64);
    m.insert("trace.traced_reps", traced.len() as f64);
    m.insert("trace.untraced_reps", (reps.len() - traced.len()) as f64);
    m
}

fn json_metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    // Non-finite values are not JSON; report them as 0 and let the gate's
    // failures speak.
    let value = if value.is_finite() { value } else { 0.0 };
    out.push_str(&format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
}

fn run(args: &Args) -> Result<(Tally, String), String> {
    let expected = Expected::parse(EXPECTED).map_err(|e| format!("expected.txt: {e}"))?;
    let mut tally = Tally::default();
    let mut t = Tracer::new(args.trace);
    let out_dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    // Set-up, several times; the median is `setup_s`.
    let mut setup_times = Vec::new();
    let mut setup_counts = BTreeMap::new();
    let bench = match args.workload.as_str() {
        "analysis-cache" | "analysis-vgpr" => {
            let mut stores = Vec::new();
            for i in 0..SETUP_REPS_ANALYSIS {
                t.set_run(i as u32 + 1);
                drop(std::mem::take(&mut stores));
                let t0 = Instant::now();
                stores = analysis::set_up(&mut t, &expected, &mut tally);
                setup_times.push(t0.elapsed().as_secs_f64());
            }
            let (figs, names): (&[Fig], &[&str]) = if args.workload == "analysis-cache" {
                (&Fig::CACHE, &CACHE_STORES)
            } else {
                (&[Fig::Fig11], &VGPR_STORES)
            };
            let grid = analysis::grid(&stores, figs, names, args.seed);
            let in_grid = |s: &&Store| names.contains(&s.name);
            setup_counts
                .insert("sim.timed_cycles", stores.iter().map(Store::cycles).sum::<u64>() as f64);
            setup_counts.insert(
                "sim.l1_nonempty_bytes",
                stores.iter().filter(in_grid).map(Store::l1_nonempty).sum::<u64>() as f64,
            );
            setup_counts.insert(
                "sim.vgpr_nonempty_bytes",
                stores.iter().filter(in_grid).map(Store::vgpr_nonempty).sum::<u64>() as f64,
            );
            Bench::Analysis { stores, grid }
        }
        "campaign-journaled" | "campaign-isolated" => {
            for i in 0..SETUP_REPS_CAMPAIGN {
                t.set_run(i as u32 + 1);
                let t0 = Instant::now();
                let instr = campaign::set_up(&mut t, &mut tally);
                setup_times.push(t0.elapsed().as_secs_f64());
                setup_counts.insert("sim.golden_instr", instr as f64);
            }
            let mode = if args.workload == "campaign-journaled" {
                Mode::Journaled
            } else {
                Mode::Isolated
            };
            let dir = out_dir.join(format!("run-{}", std::process::id()));
            Bench::Campaign(Campaign::new(mode, args.seed, &dir, &expected)?)
        }
        other => return Err(format!("unknown workload {other:?}\n{USAGE}")),
    };

    // The measured window: whole repetitions for as long as the next one
    // (assumed as long as the last) still ends within `--seconds`, and at
    // least MIN_REPS of them. A traced run alternates traced and untraced
    // repetitions, so the overhead is measured in one process under the
    // same conditions.
    let mut reps: Vec<Rep> = Vec::new();
    let start = Instant::now();
    let fits = |reps: &[Rep]| {
        let last = reps.last().map_or(0.0, |r| r.wall_s);
        start.elapsed().as_secs_f64() + last <= args.seconds
    };
    while reps.len() < MIN_REPS || fits(&reps) {
        let k = reps.len() as u32;
        t.set_enabled(args.trace && k.is_multiple_of(2));
        t.set_run(MEASURED_RUN0 + k);
        reps.push(bench.rep(&mut t, k, &expected, &mut tally));
    }
    t.set_enabled(args.trace);
    drop(bench);

    let mut out = String::from("{");
    if args.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        t.write_jsonl(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: {} spans written to {}", t.spans().len(), path.display());
        let m = per_layer(&t, setup_times.len(), &reps, &setup_counts);
        for (name, unit) in PER_LAYER {
            json_metric(&mut out, name, m[name], unit);
        }
    } else {
        // CPU time is read in 10 ms ticks, so average it over the whole
        // window rather than taking a median of coarse per-repetition reads.
        let cpu_per_rep = reps.iter().map(|r| r.cpu_s).sum::<f64>() / reps.len() as f64;
        let values = [median(&setup_times), cpu_per_rep, procfs::peak_rss_mb()];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            json_metric(&mut out, name, value, unit);
        }
    }
    out.push('}');
    let rates: Vec<String> =
        reps.iter().map(|r| format!("{:.4}", r.ops as f64 / r.wall_s)).collect();
    eprintln!(
        "perfbench: {} repetitions, {} ops each, {:.2}s measured; ops/s per repetition: {}",
        reps.len(),
        reps.first().map_or(0, |r| r.ops),
        start.elapsed().as_secs_f64(),
        rates.join(" ")
    );
    Ok((tally, out))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // The supervisor re-executes this binary as `<exe> __worker <flags>`
    // for each shard of the isolated campaign.
    if argv.first().map(String::as_str) == Some("__worker") {
        std::process::exit(mbavf_inject::worker_main(&argv[1..]));
    }
    mbavf_inject::reset_sigpipe();
    if argv.first().map(String::as_str) == Some("--print-expected") {
        // Nothing is expected yet: the set-up's checks against an empty
        // table fail by design and are ignored.
        let mut tally = Tally::default();
        let stores = analysis::set_up(&mut Tracer::new(false), &Expected::default(), &mut tally);
        analysis::print_expected(&stores);
        campaign::print_expected();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((tally, metrics)) => {
            for e in &tally.errors {
                eprintln!("perfbench: FAILED: {e}");
            }
            let correct = tally.failed == 0 && tally.attempted > 0;
            println!(
                "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
                tally.attempted.max(1),
                tally.failed
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_are_well_formed() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in PER_LAYER.into_iter().chain(END_TO_END) {
            assert!(name_ok(name), "bad metric name {name:?}");
            assert!(unit_ok(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (name, unit) in PER_LAYER.into_iter().chain(END_TO_END) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), PER_LAYER.len() + END_TO_END.len());
    }

    #[test]
    fn expected_values_parse() {
        Expected::parse(EXPECTED).expect("expected.txt is well-formed");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..20).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload analysis-cache --seed 3 --seconds 10 --trace 1"))
            .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("analysis-cache", 3, 10.0, true)
        );
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 10")).is_err());
        assert!(parse_args(&argv("--workload x --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload x --seed -1 --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&argv("--workload x --seed 1 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("--bogus 1 --workload x --seed 1 --seconds 1 --trace 0")).is_err());
    }
}
