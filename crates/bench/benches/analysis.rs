//! Micro-benchmarks for the MB-AVF analysis engine: group-sweep throughput
//! as a function of fault-mode size, protection scheme, and windowing, on a
//! dense store (every group memoized or swept) and a sparse one (most groups
//! skipped because all their bytes have empty timelines).

use mbavf_bench::microbench::{group, run};
use mbavf_core::analysis::{mb_avf, windowed_mb_avf, AnalysisConfig};
use mbavf_core::geometry::FaultMode;
use mbavf_core::layout::{CacheGeometry, CacheInterleave, CacheLayout};
use mbavf_core::protection::ProtectionKind;
use mbavf_core::timeline::{Interval, TimelineStore};

/// A deterministic synthetic store resembling a busy small cache: 4KB, with
/// a few labelled intervals per byte.
fn synthetic_store() -> (TimelineStore, CacheGeometry) {
    sparse_store(1)
}

/// As [`synthetic_store`], but only every `stride`-th 64-byte line is ever
/// touched; the other bytes keep empty timelines, as in a mostly idle cache.
fn sparse_store(stride: usize) -> (TimelineStore, CacheGeometry) {
    let geom = CacheGeometry { sets: 16, ways: 4, line_bytes: 64 };
    let total = 100_000u64;
    let mut store = TimelineStore::new(geom.bytes() as usize, total);
    let mut state = 0x1234_5678u64;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let line = geom.line_bytes as usize;
    for b in (0..geom.bytes() as usize).filter(|b| (b / line).is_multiple_of(stride)) {
        let mut t = rng() % 500;
        let tl = store.byte_mut(b);
        while t < total - 600 {
            let len = 50 + rng() % 400;
            let mask = (rng() & 0xFF) as u8;
            let checked = rng() % 4 != 0;
            tl.push(Interval { start: t, end: t + len, ace_mask: mask, checked }).expect("ordered");
            t += len + rng() % 300;
        }
    }
    (store, geom)
}

fn main() {
    let (store, geom) = synthetic_store();

    group("mb_avf by fault-mode size (parity, x2 way-physical)");
    let layout = CacheLayout::new(geom, CacheInterleave::WayPhysical(2)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    for m in [1u32, 2, 4, 8] {
        let mode = FaultMode::mx1(m);
        run(&format!("mb_avf_{m}x1"), || mb_avf(&store, &layout, &mode, &cfg).unwrap());
    }

    group("mb_avf by protection scheme (4x1, x4 way-physical)");
    let layout = CacheLayout::new(geom, CacheInterleave::WayPhysical(4)).unwrap();
    let mode = FaultMode::mx1(4);
    for (name, scheme) in [
        ("parity", ProtectionKind::Parity),
        ("secded", ProtectionKind::SecDed),
        ("dected", ProtectionKind::DecTed),
    ] {
        let cfg = AnalysisConfig::new(scheme);
        run(&format!("mb_avf_{name}"), || mb_avf(&store, &layout, &mode, &cfg).unwrap());
    }

    group("windowed mb_avf (2x1 logical, parity)");
    let layout = CacheLayout::new(geom, CacheInterleave::Logical(2)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    let mode = FaultMode::mx1(2);
    run("windowed_40", || windowed_mb_avf(&store, &layout, &mode, &cfg, 2500).unwrap());

    // One line in 32 touched: 97% of the bytes are empty, so nearly every
    // fault group is skipped before it is gathered.
    let (sparse, _) = sparse_store(32);
    group("sparse store, 3% of bytes non-empty (parity, x2 way-physical)");
    let layout = CacheLayout::new(geom, CacheInterleave::WayPhysical(2)).unwrap();
    let cfg = AnalysisConfig::new(ProtectionKind::Parity);
    for m in [1u32, 4, 8] {
        let mode = FaultMode::mx1(m);
        run(&format!("sparse_mb_avf_{m}x1"), || mb_avf(&sparse, &layout, &mode, &cfg).unwrap());
    }
    let mode = FaultMode::rect(2, 2);
    run("sparse_mb_avf_2x2", || mb_avf(&sparse, &layout, &mode, &cfg).unwrap());
    let mode = FaultMode::mx1(2);
    run("sparse_windowed_40", || windowed_mb_avf(&sparse, &layout, &mode, &cfg, 2500).unwrap());
}
