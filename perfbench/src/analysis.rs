//! The `analysis-cache` and `analysis-vgpr` workloads: the reproduction
//! path's exhibit grids, evaluated call by call from one driver thread.
//!
//! Set-up simulates the suite (build → timed run → liveness → extraction).
//! A repetition then evaluates every unit of the workload's grid — one
//! exhibit on one store — by calling `mb_avf` for each of the exhibit's
//! grid points, in the exhibit's own order, and assembling the exhibit's
//! row from the results. Each unit's results and row are checked against
//! the digests kept in `expected.txt`, whose row digests come from the
//! library's own `experiments::figN` (see [`print_expected`]).

use crate::gate::{Digest, Expected};
use crate::trace::Tracer;
use crate::Tally;
use mbavf_bench::experiments::{self, approx_defeated, fig11_designs, FIG4_SCHEMES, MODES_2_TO_8};
use mbavf_bench::pipeline::{run_workload, WorkloadData};
use mbavf_core::analysis::{mb_avf, AnalysisConfig, MbAvfResult};
use mbavf_core::avf::{normalized, raw_avf};
use mbavf_core::error::CoreError;
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{
    CacheGeometry, CacheInterleave, CacheLayout, VgprGeometry, VgprInterleave, VgprLayout,
};
use mbavf_core::protection::ProtectionKind;
use mbavf_core::ser::{paper_table3, SerBreakdown};
use mbavf_core::timeline::TimelineStore;
use mbavf_sim::extract::{l1_timelines, l2_timelines, vgpr_timelines};
use mbavf_sim::liveness::analyze;
use mbavf_sim::{run_timed, GpuConfig};
use mbavf_workloads::{suite, Scale};

/// One exhibit of the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig {
    /// 2x1 DUE vs interleaving style, parity L1.
    Fig4,
    /// 2x1–8x1 DUE, parity and SEC-DED, x4 way-physical L1.
    Fig6,
    /// 5x1–8x1 SDC, SEC-DED, x2 way-physical L1.
    Fig9,
    /// 1x1–4x1 true/false DUE, parity, x4 way-physical L1.
    Fig10,
    /// The VGPR case study: 8 designs × the Table III modes.
    Fig11,
}

impl Fig {
    /// The exhibits over the L1 stores.
    pub const CACHE: [Fig; 4] = [Fig::Fig4, Fig::Fig6, Fig::Fig9, Fig::Fig10];

    /// Short name used in keys and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Fig::Fig4 => "fig4",
            Fig::Fig6 => "fig6",
            Fig::Fig9 => "fig9",
            Fig::Fig10 => "fig10",
            Fig::Fig11 => "fig11",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Fig::Fig4 => "experiments.fig4",
            Fig::Fig6 => "experiments.fig6",
            Fig::Fig9 => "experiments.fig9",
            Fig::Fig10 => "experiments.fig10",
            Fig::Fig11 => "experiments.fig11",
        }
    }
}

/// One simulated workload's analysis inputs.
pub struct Store {
    /// Workload name.
    pub name: &'static str,
    l1: TimelineStore,
    l1_geom: CacheGeometry,
    vgpr: TimelineStore,
    vgpr_geom: VgprGeometry,
    cycles: u64,
    retired: u64,
}

fn nonempty_bytes(s: &TimelineStore) -> u64 {
    s.iter().filter(|b| !b.intervals().is_empty()).count() as u64
}

impl Store {
    /// Simulated cycles of the timed run.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// L1 bytes with a non-empty timeline.
    pub fn l1_nonempty(&self) -> u64 {
        nonempty_bytes(&self.l1)
    }

    /// VGPR bytes with a non-empty timeline.
    pub fn vgpr_nonempty(&self) -> u64 {
        nonempty_bytes(&self.vgpr)
    }

    /// Whether every L1 byte has a non-empty timeline.
    pub fn l1_dense(&self) -> bool {
        self.l1_nonempty() == self.l1.num_bytes() as u64
    }
}

/// Simulate the whole suite at test scale, one workload after another, and
/// check each run's output and simulated statistics.
pub fn set_up(t: &mut Tracer, expected: &Expected, tally: &mut Tally) -> Vec<Store> {
    let cfg = GpuConfig::default();
    let geom = |c: &mbavf_sim::cache::CacheConfig| CacheGeometry {
        sets: c.sets,
        ways: c.ways,
        line_bytes: c.line_bytes,
    };
    let mut stores = Vec::new();
    for w in suite() {
        let mut inst = t.span("workloads.build", |_| w.build(Scale::Test));
        let program = inst.program.clone();
        let res =
            t.span("sim.timed", |_| run_timed(&program, &mut inst.mem, inst.workgroups, &cfg));
        tally.check(inst.check(&inst.mem).map_err(|e| format!("{}: output check: {e}", w.name)));
        let lv = t.span("sim.liveness", |_| analyze(&res.trace, &inst.mem));
        let (l1, vgpr) = t.span("sim.extract", |_| {
            let l1 = l1_timelines(&res, &lv, &inst.mem, 0);
            // The pipeline extracts the L2 too; no exhibit here reads it.
            drop(l2_timelines(&res, &lv, &inst.mem));
            (l1, vgpr_timelines(&res, &lv, 0))
        });
        tally.check(expected.check(&format!("sim/{}/cycles", w.name), res.cycles));
        tally.check(expected.check(&format!("sim/{}/retired", w.name), res.retired));
        stores.push(Store {
            name: w.name,
            l1,
            l1_geom: geom(&cfg.l1),
            vgpr: vgpr.0,
            vgpr_geom: vgpr.1,
            cycles: res.cycles,
            retired: res.retired,
        });
    }
    stores
}

enum Layout {
    Cache(CacheLayout),
    Vgpr(VgprLayout),
}

/// One `mb_avf` call of an exhibit.
struct Point {
    layout: Layout,
    mode: u32,
    cfg: AnalysisConfig,
}

fn cache_point(s: &Store, il: CacheInterleave, scheme: ProtectionKind, mode: u32) -> Point {
    let layout = CacheLayout::new(s.l1_geom, il).expect("paper geometry accepts x2/x4 factors");
    Point { layout: Layout::Cache(layout), mode, cfg: AnalysisConfig::new(scheme) }
}

/// The single-bit baseline every normalized L1 exhibit recomputes.
fn sb_point(s: &Store) -> Point {
    cache_point(s, CacheInterleave::Logical(1), ProtectionKind::Parity, 1)
}

/// The exhibit's `mb_avf` calls, in the order the exhibit makes them.
fn points(fig: Fig, s: &Store) -> Vec<Point> {
    use ProtectionKind::{Parity, SecDed};
    let mut v = Vec::new();
    match fig {
        Fig::Fig4 => {
            v.push(sb_point(s));
            v.extend(FIG4_SCHEMES.iter().map(|&il| cache_point(s, il, Parity, 2)));
        }
        Fig::Fig6 => {
            v.push(sb_point(s));
            for m in MODES_2_TO_8 {
                v.push(cache_point(s, CacheInterleave::WayPhysical(4), Parity, m));
                v.push(cache_point(s, CacheInterleave::WayPhysical(4), SecDed, m));
            }
        }
        Fig::Fig9 => {
            v.push(sb_point(s));
            v.extend((5..=8).map(|m| cache_point(s, CacheInterleave::WayPhysical(2), SecDed, m)));
        }
        Fig::Fig10 => {
            v.extend((1..=4).map(|m| cache_point(s, CacheInterleave::WayPhysical(4), Parity, m)));
        }
        Fig::Fig11 => {
            for (scheme, il) in fig11_designs() {
                let layout = VgprLayout::new(s.vgpr_geom, il).expect("paper geometry");
                let lock_step = matches!(il, VgprInterleave::InterThread(_));
                let cfg = AnalysisConfig::new(scheme).with_due_preempts_sdc(lock_step);
                for rate in paper_table3() {
                    v.push(Point { layout: Layout::Vgpr(layout), mode: rate.mode_bits, cfg });
                }
            }
        }
    }
    v
}

fn run_point(s: &Store, p: &Point) -> Result<MbAvfResult, CoreError> {
    let mode = FaultMode::mx1(p.mode);
    match &p.layout {
        Layout::Cache(l) => mb_avf(&s.l1, l, &mode, &p.cfg),
        Layout::Vgpr(l) => mb_avf(&s.vgpr, l, &mode, &p.cfg),
    }
}

/// The exhibit's row, assembled from its results exactly as
/// `experiments::figN` assembles it, flattened in field order.
fn row(fig: Fig, s: &Store, r: &[MbAvfResult]) -> Vec<f64> {
    match fig {
        Fig::Fig4 => {
            let sb = r[0].due_avf();
            let mut v = vec![sb];
            v.extend(r[1..].iter().map(|x| normalized(x.due_avf(), sb)));
            v
        }
        Fig::Fig6 => {
            let sb = r[0].due_avf();
            let pairs = &r[1..];
            let parity = pairs.iter().step_by(2).map(|x| normalized(x.due_avf(), sb));
            let secded = pairs.iter().skip(1).step_by(2).map(|x| normalized(x.due_avf(), sb));
            parity.chain(secded).collect()
        }
        Fig::Fig9 => {
            let sb = r[0].due_avf();
            r[1..].iter().map(|x| normalized(x.sdc_avf(), sb)).collect()
        }
        Fig::Fig10 => r.iter().flat_map(|x| [x.true_due_avf(), x.false_due_avf()]).collect(),
        Fig::Fig11 => {
            let rates = paper_table3();
            let sb_ace = raw_avf(&s.vgpr);
            let mut v = Vec::new();
            for ((scheme, il), rs) in fig11_designs().into_iter().zip(r.chunks(rates.len())) {
                let fit = |f: &dyn Fn(&MbAvfResult) -> f64| {
                    SerBreakdown::new(rates.iter().cloned().zip(rs.iter().map(f))).total_fit()
                };
                let approx = rates.iter().map(|rate| {
                    let a = approx_defeated(scheme, rate.mode_bits, il.factor());
                    (rate.clone(), if a { sb_ace } else { 0.0 })
                });
                v.push(fit(&MbAvfResult::sdc_avf));
                v.push(SerBreakdown::new(approx).total_fit());
                v.push(fit(&MbAvfResult::due_avf));
                v.push(scheme.overhead(32));
            }
            v
        }
    }
}

/// The same row from the library's `experiments::figN`.
fn library_row(fig: Fig, d: &WorkloadData) -> Vec<f64> {
    match fig {
        Fig::Fig4 => {
            let r = experiments::fig4(d);
            std::iter::once(r.sb_due).chain(r.normalized).collect()
        }
        Fig::Fig6 => {
            let r = experiments::fig6(d);
            r.parity.into_iter().chain(r.secded).collect()
        }
        Fig::Fig9 => experiments::fig9(d).sdc.to_vec(),
        Fig::Fig10 => experiments::fig10(d).due.into_iter().flat_map(|(t, f)| [t, f]).collect(),
        Fig::Fig11 => experiments::fig11(d)
            .into_iter()
            .flat_map(|r| [r.sdc_mb, r.sdc_approx, r.due_mb, r.overhead])
            .collect(),
    }
}

/// The kind of store a unit analyzes: an L1 whose every byte has a
/// non-empty timeline, any other L1, or a register file. The traced run
/// splits analysis time on it.
#[derive(Clone, Copy)]
enum StoreClass {
    L1Dense,
    L1Sparse,
    Vgpr,
}

impl StoreClass {
    fn span(self) -> &'static str {
        match self {
            StoreClass::L1Dense => "analysis.l1_dense",
            StoreClass::L1Sparse => "analysis.l1_sparse",
            StoreClass::Vgpr => "analysis.vgpr",
        }
    }
}

/// One unit of a grid: an exhibit on a store.
#[derive(Clone, Copy)]
pub struct Unit {
    /// The exhibit.
    pub fig: Fig,
    /// Index into the set-up stores.
    pub store: usize,
    class: StoreClass,
}

impl Unit {
    fn key(self, stores: &[Store], what: &str) -> String {
        format!("unit/{}/{}/{what}", self.fig.name(), stores[self.store].name)
    }
}

/// The grid of a workload: the L1 exhibits over `l1_stores`, or the VGPR
/// case study over `vgpr_stores`, in a seed-permuted order.
pub fn grid(stores: &[Store], figs: &[Fig], names: &[&str], seed: u64) -> Vec<Unit> {
    let mut units = Vec::new();
    for (i, s) in stores.iter().enumerate().filter(|(_, s)| names.contains(&s.name)) {
        for &fig in figs {
            let class = match fig {
                Fig::Fig11 => StoreClass::Vgpr,
                _ if s.l1_dense() => StoreClass::L1Dense,
                _ => StoreClass::L1Sparse,
            };
            units.push(Unit { fig, store: i, class });
        }
    }
    crate::shuffle(&mut units, seed);
    units
}

/// What one unit did.
pub struct UnitRun {
    /// `mb_avf` calls made.
    pub calls: u64,
    /// Fault groups classified.
    pub groups: u64,
}

/// Evaluate one unit and check it against the kept digests.
pub fn run_unit(
    t: &mut Tracer,
    stores: &[Store],
    u: Unit,
    expected: &Expected,
    tally: &mut Tally,
) -> UnitRun {
    let s = &stores[u.store];
    let pts = points(u.fig, s);
    let (results, digest, row_digest) = t.span(u.fig.span(), |t| {
        let mut results = Vec::with_capacity(pts.len());
        let mut digest = Digest::default();
        for p in &pts {
            match t.span(u.class.span(), |_| run_point(s, p)) {
                Ok(r) => {
                    digest.result(&r);
                    results.push(r);
                }
                Err(e) => {
                    tally.fail(format!("{}: mb_avf failed: {e}", u.key(stores, "results")));
                    return (results, digest, None);
                }
            }
        }
        let mut row_digest = Digest::default();
        row_digest.f64s(&row(u.fig, s, &results));
        (results, digest, Some(row_digest))
    });
    let groups = results.iter().map(MbAvfResult::groups).sum();
    if let Some(row_digest) = row_digest {
        let ok = expected
            .check(&u.key(stores, "results"), digest.value())
            .and_then(|()| expected.check(&u.key(stores, "rows"), row_digest.value()));
        tally.check(ok);
    }
    UnitRun { calls: results.len() as u64, groups }
}

/// Print the expected-values file for every unit of every exhibit: result
/// digests from the driver's calls and row digests from the library's own
/// `experiments::figN` over the library's own pipeline.
pub fn print_expected(stores: &[Store]) {
    println!("# Expected values for perfbench: simulated statistics at Scale::Test,");
    println!("# per-unit MbAvfResult digests, and experiments::figN row digests.");
    println!("# Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --print-expected");
    for s in stores {
        let pct = |n: u64, all: usize| 100.0 * n as f64 / all as f64;
        println!(
            "# {}: {:.1}% of L1 bytes and {:.1}% of VGPR bytes have a non-empty timeline",
            s.name,
            pct(s.l1_nonempty(), s.l1.num_bytes()),
            pct(s.vgpr_nonempty(), s.vgpr.num_bytes())
        );
        println!("sim/{}/cycles {}", s.name, s.cycles);
        println!("sim/{}/retired {}", s.name, s.retired);
    }
    for (i, s) in stores.iter().enumerate() {
        let data =
            run_workload(&mbavf_workloads::by_name(s.name).expect("suite workload"), Scale::Test);
        for fig in Fig::CACHE.into_iter().chain([Fig::Fig11]) {
            let unit = Unit { fig, store: i, class: StoreClass::L1Sparse };
            let t0 = std::time::Instant::now();
            let results: Vec<MbAvfResult> = points(fig, s)
                .iter()
                .map(|p| run_point(s, p).expect("exhibit grid point fits"))
                .collect();
            let mine = row(fig, s, &results);
            let t1 = std::time::Instant::now();
            let lib = library_row(fig, &data);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&mine),
                bits(&lib),
                "{}: driver row differs from the library",
                unit.key(stores, "rows")
            );
            let mut d = Digest::default();
            results.iter().for_each(|r| d.result(r));
            let mut rd = Digest::default();
            rd.f64s(&lib);
            println!("{} {:#018x}", unit.key(stores, "results"), d.value());
            println!("{} {:#018x}", unit.key(stores, "rows"), rd.value());
            eprintln!(
                "{:<6} {:<20} driver {:>7.3}s  library {:>7.3}s  groups {}",
                fig.name(),
                s.name,
                (t1 - t0).as_secs_f64(),
                t1.elapsed().as_secs_f64(),
                results.iter().map(MbAvfResult::groups).sum::<u64>()
            );
        }
    }
}
