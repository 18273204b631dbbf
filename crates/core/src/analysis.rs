//! The MB-AVF engine: multi-bit ACE analysis over fault groups, overlapped
//! regions, and protection domains (paper Sections IV, V, VII).
//!
//! For a structure `H` with `G_{H,M}` fault groups of mode `M` observed for
//! `N` cycles, the multi-bit AVF is (equation 2):
//!
//! ```text
//! MB-AVF(H, M) = Σ_n |ACE groups at cycle n| / (G_{H,M} · N)
//! ```
//!
//! A group's classification at a cycle is derived from its *overlapped
//! regions* — the subsets of the group's bits falling in each protection
//! domain:
//!
//! * the region's ACEness is the union of its member bits' ACEness
//!   (equation 5),
//! * the domain's [`Action`](crate::protection::Action) for the region's
//!   flipped-bit count decides corrected / detected / undetected,
//! * a region is DUE ACE iff it is ACE *and* detected (equation 6); group
//!   DUE ACEness is the union over regions (equation 7),
//! * with program-level masking, regions (and groups) are further classified
//!   as unACE, **false DUE**, **true DUE**, or **SDC**, with SDC taking
//!   precedence unless [`AnalysisConfig::due_preempts_sdc`] is set (the
//!   lock-step inter-thread-read rule of Section VIII).

use crate::error::CoreError;
use crate::geometry::FaultMode;
use crate::layout::{BitRef, PhysicalLayout};
use crate::protection::{Action, ProtectionKind};
use crate::timeline::{BitState, Cycle, Interval, TimelineStore};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// Classification of one fault group during one cycle, in increasing order of
/// severity (the precedence order of Section VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroupClass {
    /// The fault vanishes: corrected, overwritten, or never observed.
    UnAce,
    /// Detected, but the affected data never mattered: raises the DUE rate
    /// without preventing any corruption.
    FalseDue,
    /// Detected, and the affected data was architecturally required.
    TrueDue,
    /// Undetected corruption of architecturally required data.
    Sdc,
}

/// Configuration of a single MB-AVF analysis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisConfig {
    /// Protection scheme applied to every domain of the structure.
    pub scheme: ProtectionKind,
    /// Section VIII rule: when a group contains both an SDC region and a DUE
    /// region in the same cycle and the structure is read in lock-step (e.g.
    /// a 16-thread SIMD register read with inter-thread interleaving), the
    /// detection fires before the corruption can propagate, so the group is
    /// classified as a (true) DUE instead of an SDC.
    ///
    /// Leave `false` for cache structures, where detection of one line is not
    /// guaranteed to precede consumption of another (Section VII-B).
    pub due_preempts_sdc: bool,
}

impl AnalysisConfig {
    /// Analysis under `scheme` with the default cache-style SDC precedence.
    pub fn new(scheme: ProtectionKind) -> Self {
        Self { scheme, due_preempts_sdc: false }
    }

    /// Enable the lock-step read rule (see
    /// [`due_preempts_sdc`](Self::due_preempts_sdc)).
    pub fn with_due_preempts_sdc(mut self, on: bool) -> Self {
        self.due_preempts_sdc = on;
        self
    }
}

/// The outcome of an MB-AVF analysis of one fault mode over one structure
/// (or one time window of it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MbAvfResult {
    mode: String,
    groups: u64,
    cycles: Cycle,
    window: Option<u32>,
    sdc_gc: u128,
    true_due_gc: u128,
    false_due_gc: u128,
}

impl MbAvfResult {
    fn new(mode: &FaultMode, groups: u64, cycles: Cycle, window: Option<u32>) -> Self {
        Self {
            mode: mode.name().to_owned(),
            groups,
            cycles,
            window,
            sdc_gc: 0,
            true_due_gc: 0,
            false_due_gc: 0,
        }
    }

    /// Name of the analyzed fault mode, e.g. `"3x1"`.
    pub fn mode(&self) -> &str {
        &self.mode
    }

    /// Number of fault groups `G_{H,M}` of the mode on the structure.
    pub fn groups(&self) -> u64 {
        self.groups
    }

    /// Observation length in cycles (window length for windowed results).
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// Index of the time window, for results from [`windowed_mb_avf`].
    pub fn window(&self) -> Option<u32> {
        self.window
    }

    /// Accumulated SDC group-cycles.
    pub fn sdc_group_cycles(&self) -> u128 {
        self.sdc_gc
    }

    /// Accumulated true-DUE group-cycles.
    pub fn true_due_group_cycles(&self) -> u128 {
        self.true_due_gc
    }

    /// Accumulated false-DUE group-cycles.
    pub fn false_due_group_cycles(&self) -> u128 {
        self.false_due_gc
    }

    fn denom(&self) -> u128 {
        u128::from(self.groups) * u128::from(self.cycles)
    }

    fn frac(&self, num: u128) -> f64 {
        if self.denom() == 0 {
            0.0
        } else {
            num as f64 / self.denom() as f64
        }
    }

    /// SDC MB-AVF: the probability that a fault of this mode, uniformly
    /// placed in group and time, causes silent data corruption.
    pub fn sdc_avf(&self) -> f64 {
        self.frac(self.sdc_gc)
    }

    /// True-DUE MB-AVF (detected errors that would have corrupted output).
    pub fn true_due_avf(&self) -> f64 {
        self.frac(self.true_due_gc)
    }

    /// False-DUE MB-AVF (detected errors that were harmless).
    pub fn false_due_avf(&self) -> f64 {
        self.frac(self.false_due_gc)
    }

    /// Total DUE MB-AVF — true plus false DUE, the quantity measured in
    /// Section V.
    pub fn due_avf(&self) -> f64 {
        self.frac(self.true_due_gc + self.false_due_gc)
    }

    /// Total error AVF: SDC plus DUE.
    pub fn total_avf(&self) -> f64 {
        self.frac(self.sdc_gc + self.true_due_gc + self.false_due_gc)
    }

    fn add(&mut self, class: GroupClass, dur: u128) {
        match class {
            GroupClass::UnAce => {}
            GroupClass::FalseDue => self.false_due_gc += dur,
            GroupClass::TrueDue => self.true_due_gc += dur,
            GroupClass::Sdc => self.sdc_gc += dur,
        }
    }
}

/// Scratch buffers reused across fault groups to keep the per-group sweep
/// allocation-free.
#[derive(Default)]
struct Scratch {
    bits: Vec<BitRef>,
    /// Region index of each bit (parallel to `bits`).
    region_of: Vec<u8>,
    /// Per-region protection action.
    actions: Vec<Action>,
    /// Merged, deduplicated interval boundaries of the group's bits.
    bounds: Vec<Cycle>,
    /// Per-bit monotone cursor into its timeline.
    cursors: Vec<usize>,
    /// Per-region max bit state within the current segment.
    region_state: Vec<BitState>,
}

/// Compute the MB-AVF of `mode` on the structure described by `store`,
/// physically arranged by `layout`, protected per `cfg` — equation (2).
///
/// The returned [`MbAvfResult`] carries SDC, true-DUE, and false-DUE
/// components; single-bit AVFs are simply the `1x1` mode.
///
/// # Errors
///
/// * [`CoreError::ModeLargerThanLayout`] if the mode has no placement.
/// * [`CoreError::ByteOutOfRange`] / [`CoreError::BitOutOfRange`] if the
///   layout references bits outside the store.
pub fn mb_avf<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
) -> Result<MbAvfResult, CoreError> {
    let groups = mode.group_count(layout.rows(), layout.cols());
    let mut result = MbAvfResult::new(mode, groups, store.total_cycles(), None);
    if mode.len() <= MEMO_MAX_BITS {
        // Whole-run totals admit memoization: two fault groups whose member
        // bits have identical timeline *content*, bit positions, and domain
        // partition classify identically in every cycle. This collapses the
        // 64 replicated SIMT lanes of a register file into one computation.
        let content_ids = content_ids(store);
        let mut memo: HashMap<MemoKey, [u128; 3], FxBuildHasher> = HashMap::default();
        for_each_live_group(store, layout, mode, cfg, |s| {
            let mut key = MemoKey::default();
            for (b, &region) in s.bits.iter().zip(&s.region_of) {
                key.push(content_ids[b.byte as usize], b.bit, region);
            }
            let totals = *memo.entry(key).or_insert_with(|| {
                let mut t = [0u128; 3];
                sweep_one_group(store, cfg, s, &mut |class, start, end| {
                    let d = u128::from(end - start);
                    match class {
                        GroupClass::FalseDue => t[0] += d,
                        GroupClass::TrueDue => t[1] += d,
                        GroupClass::Sdc => t[2] += d,
                        GroupClass::UnAce => {}
                    }
                });
                t
            });
            result.false_due_gc += totals[0];
            result.true_due_gc += totals[1];
            result.sdc_gc += totals[2];
        })?;
    } else {
        for_each_live_group(store, layout, mode, cfg, |s| {
            sweep_one_group(store, cfg, s, &mut |class, start, end| {
                result.add(class, u128::from(end - start));
            });
        })?;
    }
    Ok(result)
}

/// Sweep the contiguous wordline fault modes `1x1 ..= max_bits x1` in one
/// call — the per-mode loop every soft-error-rate composition needs.
///
/// ```
/// use mbavf_core::analysis::{mb_avf_modes, AnalysisConfig};
/// use mbavf_core::layout::LinearLayout;
/// use mbavf_core::protection::ProtectionKind;
/// use mbavf_core::timeline::{Interval, TimelineStore};
///
/// let mut store = TimelineStore::new(1, 100);
/// store.byte_mut(0).push(Interval { start: 0, end: 40, ace_mask: 0xff, checked: true }).unwrap();
/// let layout = LinearLayout::new(1, 8, 4);
/// let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
/// let sweep = mb_avf_modes(&store, &layout, 4, &cfg)?;
/// assert_eq!(sweep.len(), 4);
/// assert_eq!(sweep[0].total_avf(), 0.0); // SEC-DED corrects single bits
/// assert!(sweep[1].due_avf() > 0.0);     // ...and detects pairs
/// # Ok::<(), mbavf_core::CoreError>(())
/// ```
///
/// # Errors
///
/// As [`mb_avf`], for the first failing mode.
pub fn mb_avf_modes<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    max_bits: u32,
    cfg: &AnalysisConfig,
) -> Result<Vec<MbAvfResult>, CoreError> {
    (1..=max_bits).map(|m| mb_avf(store, layout, &FaultMode::mx1(m), cfg)).collect()
}

/// Memoization cutoff: modes larger than this fall back to the direct sweep.
const MEMO_MAX_BITS: usize = 16;

/// A fault group's classification fingerprint: per member bit, the canonical
/// content id of its timeline, its bit index, and its overlapped-region id,
/// packed as `content << 16 | bit << 8 | region`. Two groups with equal keys
/// (under one scheme) have identical outcomes. Equality compares every
/// entry, so a hash collision can cost time but never change a result.
#[derive(Default, PartialEq, Eq)]
struct MemoKey {
    entries: [u64; MEMO_MAX_BITS],
    len: u8,
}

impl MemoKey {
    fn push(&mut self, content: u32, bit: u8, region: u8) {
        self.entries[self.len as usize] =
            u64::from(content) << 16 | u64::from(bit) << 8 | u64::from(region);
        self.len += 1;
    }
}

impl Hash for MemoKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for &e in &self.entries[..self.len as usize] {
            state.write_u64(e);
        }
    }
}

/// A multiply-rotate word hasher in the style of rustc's FxHash, for the
/// engine's exact-comparison tables. Much cheaper than SipHash on short
/// integer keys; there is no adversary to defend against here.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

type FxBuildHasher = BuildHasherDefault<FxHasher>;

impl FxHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;

    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(Self::K);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        // The multiply leaves its best-mixed bits at the top; rotate some of
        // them down into the bucket-index bits.
        self.hash.rotate_left(26)
    }
}

/// Canonical content id per byte: bytes with byte-for-byte identical
/// timelines share an id (exact comparison, no hashing shortcuts). Every
/// empty timeline gets id 0 without being hashed.
fn content_ids(store: &TimelineStore) -> Vec<u32> {
    let mut canon: HashMap<&[Interval], u32, FxBuildHasher> = HashMap::default();
    (0..store.num_bytes())
        .map(|b| {
            let intervals = store.byte(b).intervals();
            if intervals.is_empty() {
                return 0;
            }
            let next = canon.len() as u32 + 1;
            *canon.entry(intervals).or_insert(next)
        })
        .collect()
}

/// Compute MB-AVF per time window of `window` cycles (Figure 5's
/// time-varying AVF). The final window may be shorter than `window`.
///
/// # Errors
///
/// As [`mb_avf`], plus [`CoreError::ZeroWindow`] if `window == 0`.
pub fn windowed_mb_avf<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
    window: Cycle,
) -> Result<Vec<MbAvfResult>, CoreError> {
    let mut results = empty_windows(store, layout, mode, window)?;
    for_each_live_group(store, layout, mode, cfg, |s| {
        sweep_one_group(store, cfg, s, &mut |class, start, end| {
            add_windowed(&mut results, window, class, start, end);
        });
    })?;
    Ok(results)
}

/// One zeroed result per time window of `window` cycles.
fn empty_windows<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    window: Cycle,
) -> Result<Vec<MbAvfResult>, CoreError> {
    if window == 0 {
        return Err(CoreError::ZeroWindow);
    }
    let total = store.total_cycles();
    let groups = mode.group_count(layout.rows(), layout.cols());
    let num_windows = total.div_ceil(window) as u32;
    Ok((0..num_windows)
        .map(|w| {
            let start = Cycle::from(w) * window;
            let len = window.min(total - start);
            MbAvfResult::new(mode, groups, len, Some(w))
        })
        .collect())
}

/// Split the segment `[start, end)` of `class` across window bins.
fn add_windowed(
    results: &mut [MbAvfResult],
    window: Cycle,
    class: GroupClass,
    start: Cycle,
    end: Cycle,
) {
    let mut t = start;
    while t < end {
        let w = (t / window) as usize;
        let wend = (t / window + 1) * window;
        let seg_end = end.min(wend);
        results[w].add(class, u128::from(seg_end - t));
        t = seg_end;
    }
}

/// Measure the structure's *ACE locality* under `layout`: the tendency of
/// physically adjacent bits to be ACE in the same cycles (Section VI-B).
///
/// Computed from the unprotected 1x1 and 2x1 SDC AVFs: for an adjacent pair,
/// `|a ∪ b|` is the 2x1 group-ACE time and `|a| + |b|` is twice the
/// single-bit ACE time, so the mean Jaccard overlap is
/// `(2·SB − MB₂) / MB₂`, clamped to `[0, 1]`. A value of 1 means adjacent
/// bits are always ACE together (logical interleaving of a hot line); 0
/// means their ACE times never coincide. Structures with high ACE locality
/// have lower MB-AVFs.
///
/// Returns 1.0 for a structure with no ACE state at all (vacuously local).
///
/// # Errors
///
/// As [`mb_avf`].
pub fn ace_locality<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
) -> Result<f64, CoreError> {
    let cfg = AnalysisConfig::new(ProtectionKind::None);
    let sb = mb_avf(store, layout, &FaultMode::mx1(1), &cfg)?.sdc_avf();
    let mb2 = mb_avf(store, layout, &FaultMode::mx1(2), &cfg)?.sdc_avf();
    if mb2 <= 0.0 {
        return Ok(1.0);
    }
    Ok(((2.0 * sb - mb2) / mb2).clamp(0.0, 1.0))
}

/// The physical rows under one anchor row's fault groups, resolved once.
#[derive(Default)]
struct RowBuf {
    /// `bit_at` of every bit of rows `anchor .. anchor + mode.rows()`,
    /// row-major.
    bits: Vec<BitRef>,
    /// `live[i]` counts the bits before `i` that are in range and whose
    /// byte has a non-empty timeline.
    live: Vec<u32>,
    /// Whether some resolved bit lies outside the store.
    invalid: bool,
}

impl RowBuf {
    /// Resolve rows `anchor .. anchor + rows`; out-of-range bits are kept
    /// but not counted live.
    fn resolve<L: PhysicalLayout>(
        &mut self,
        store: &TimelineStore,
        layout: &L,
        anchor: u32,
        rows: u32,
    ) {
        self.bits.clear();
        self.live.clear();
        self.live.push(0);
        self.invalid = false;
        let mut count = 0;
        for row in anchor..anchor + rows {
            for col in 0..layout.cols() {
                let b = layout.bit_at(row, col);
                if check_bit(b, store).is_ok() {
                    count += u32::from(!store.byte(b.byte as usize).intervals().is_empty());
                } else {
                    self.invalid = true;
                }
                self.bits.push(b);
                self.live.push(count);
            }
        }
    }

    /// Whether bits `from .. to` include a live one.
    fn any_live(&self, from: usize, to: usize) -> bool {
        self.live[to] != self.live[from]
    }
}

/// Reject a bit outside the store, as [`PhysicalLayout::validate`] does.
fn check_bit(b: BitRef, store: &TimelineStore) -> Result<(), CoreError> {
    if b.byte as usize >= store.num_bytes() {
        return Err(CoreError::ByteOutOfRange { byte: b.byte, len: store.num_bytes() as u32 });
    }
    if b.bit >= 8 {
        return Err(CoreError::BitOutOfRange { bit: b.bit });
    }
    Ok(())
}

/// Enumerate the fault groups of `mode` in row-major anchor order and pass
/// every group that can err to `visit`, with its bits, region ids and
/// region actions in the [`Scratch`].
///
/// Each anchor row's physical rows are resolved once. A group whose bits all
/// have empty timelines is unACE in every cycle and a group whose regions
/// are all corrected can never err, so neither is visited. Skipping never
/// skips validation: an out-of-range bit inside any group fails the call
/// with the error the group-by-group sweep meets first, while one that no
/// group covers is ignored.
fn for_each_live_group<L: PhysicalLayout>(
    store: &TimelineStore,
    layout: &L,
    mode: &FaultMode,
    cfg: &AnalysisConfig,
    mut visit: impl FnMut(&mut Scratch),
) -> Result<(), CoreError> {
    // Fails with `ModeLargerThanLayout` when no placement fits.
    mode.groups(layout.rows(), layout.cols())?;
    let cols = layout.cols() as usize;
    let anchor_cols = cols - mode.cols() as usize + 1;
    let offsets: Vec<usize> =
        mode.offsets().iter().map(|&(dr, dc)| dr as usize * cols + dc as usize).collect();
    // An `Mx1` mode covers one contiguous run of the row buffer.
    let contiguous = mode.rows() == 1 && mode.len() == mode.cols() as usize;
    let mut row = RowBuf::default();
    let mut s = Scratch::default();
    for anchor in 0..=layout.rows() - mode.rows() {
        row.resolve(store, layout, anchor, mode.rows());
        if row.invalid {
            for ac in 0..anchor_cols {
                for &o in &offsets {
                    check_bit(row.bits[ac + o], store)?;
                }
            }
        }
        for ac in 0..anchor_cols {
            let live = if contiguous {
                row.any_live(ac, ac + mode.len())
            } else {
                offsets.iter().any(|&o| row.any_live(ac + o, ac + o + 1))
            };
            if !live {
                continue;
            }
            s.bits.clear();
            s.bits.extend(offsets.iter().map(|&o| row.bits[ac + o]));
            partition_regions(cfg, &mut s);
            if s.actions.iter().all(|a| *a == Action::Correct) {
                continue;
            }
            visit(&mut s);
        }
    }
    Ok(())
}

/// Partition the group's bits into overlapped regions by protection domain
/// (region ids in order of first appearance) and compute each region's
/// action.
fn partition_regions(cfg: &AnalysisConfig, s: &mut Scratch) {
    s.region_of.clear();
    s.actions.clear();
    // Fault modes are small (2–16 bits), so a simple O(M^2) scan beats
    // sorting.
    s.region_of.resize(s.bits.len(), u8::MAX);
    for i in 0..s.bits.len() {
        if s.region_of[i] != u8::MAX {
            continue;
        }
        let region = s.actions.len() as u8;
        let mut k = 0u32;
        for j in i..s.bits.len() {
            if s.region_of[j] == u8::MAX && s.bits[j].domain == s.bits[i].domain {
                s.region_of[j] = region;
                k += 1;
            }
        }
        s.actions.push(cfg.scheme.action(k));
    }
}

/// Per-bit state lookup with a monotone cursor over the bit's timeline.
fn bit_state_at(intervals: &[Interval], cursor: &mut usize, bit: u8, t: Cycle) -> BitState {
    while *cursor < intervals.len() && intervals[*cursor].end <= t {
        *cursor += 1;
    }
    match intervals.get(*cursor) {
        Some(iv) if iv.start <= t => iv.bit_state(bit),
        _ => BitState::UnAce,
    }
}

fn sweep_one_group(
    store: &TimelineStore,
    cfg: &AnalysisConfig,
    s: &mut Scratch,
    sink: &mut impl FnMut(GroupClass, Cycle, Cycle),
) {
    s.bounds.clear();
    for b in &s.bits {
        for iv in store.byte(b.byte as usize).intervals() {
            s.bounds.push(iv.start);
            s.bounds.push(iv.end);
        }
    }
    s.bounds.sort_unstable();
    s.bounds.dedup();
    if s.bounds.len() < 2 {
        return;
    }
    s.cursors.clear();
    s.cursors.resize(s.bits.len(), 0);
    s.region_state.clear();
    s.region_state.resize(s.actions.len(), BitState::UnAce);
    for w in s.bounds.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        s.region_state.fill(BitState::UnAce);
        for (i, b) in s.bits.iter().enumerate() {
            let st =
                bit_state_at(store.byte(b.byte as usize).intervals(), &mut s.cursors[i], b.bit, t0);
            let r = s.region_of[i] as usize;
            if st > s.region_state[r] {
                s.region_state[r] = st;
            }
        }
        let class = classify(cfg, &s.actions, &s.region_state);
        if class != GroupClass::UnAce {
            sink(class, t0, t1);
        }
    }
}

/// Combine per-region actions and states into the group classification
/// (equations 6–7 plus the Section VII-B precedence).
fn classify(cfg: &AnalysisConfig, actions: &[Action], states: &[BitState]) -> GroupClass {
    let mut best = GroupClass::UnAce;
    let mut has_due = false;
    let mut has_sdc = false;
    for (action, state) in actions.iter().zip(states) {
        let class = match (action, state) {
            (Action::Correct, _) => GroupClass::UnAce,
            (Action::Detect, BitState::Ace) => GroupClass::TrueDue,
            (Action::Detect, BitState::FalseDetect) => GroupClass::FalseDue,
            (Action::NoDetect, BitState::Ace) => GroupClass::Sdc,
            _ => GroupClass::UnAce,
        };
        has_due |= matches!(class, GroupClass::TrueDue | GroupClass::FalseDue);
        has_sdc |= class == GroupClass::Sdc;
        if class > best {
            best = class;
        }
    }
    if cfg.due_preempts_sdc && has_sdc && has_due {
        // Lock-step read: the DUE is raised before the SDC data propagates.
        GroupClass::TrueDue
    } else {
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::FaultGroup;
    use crate::layout::{
        CacheGeometry, CacheInterleave, CacheLayout, LinearLayout, VgprGeometry, VgprInterleave,
        VgprLayout,
    };
    use crate::rng::SplitMix64;
    use crate::timeline::ByteTimeline;

    /// The reference oracle: every group of [`FaultMode::groups`] gathered
    /// bit by bit through `bit_at` and swept, with no row resolution, no
    /// empty-group skip and no memo. Reports every non-unACE
    /// `(class, start, end)` segment to `sink`.
    fn sweep_groups<L: PhysicalLayout>(
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfg: &AnalysisConfig,
        mut sink: impl FnMut(GroupClass, Cycle, Cycle),
    ) -> Result<(), CoreError> {
        let mut scratch = Scratch::default();
        for group in mode.groups(layout.rows(), layout.cols())? {
            gather_group(store, layout, mode, &group, cfg, &mut scratch)?;
            if scratch.actions.iter().all(|a| *a == Action::Correct) {
                continue; // every region corrected: the group can never err
            }
            sweep_one_group(store, cfg, &mut scratch, &mut sink);
        }
        Ok(())
    }

    /// Resolve a group's bits one `bit_at` at a time, then partition them.
    fn gather_group<L: PhysicalLayout>(
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        group: &FaultGroup,
        cfg: &AnalysisConfig,
        s: &mut Scratch,
    ) -> Result<(), CoreError> {
        s.bits.clear();
        for (r, c) in group.bits(mode) {
            let b = layout.bit_at(r, c);
            check_bit(b, store)?;
            s.bits.push(b);
        }
        partition_regions(cfg, s);
        Ok(())
    }

    fn oracle_mb_avf<L: PhysicalLayout>(
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfg: &AnalysisConfig,
    ) -> Result<MbAvfResult, CoreError> {
        let groups = mode.group_count(layout.rows(), layout.cols());
        let mut result = MbAvfResult::new(mode, groups, store.total_cycles(), None);
        sweep_groups(store, layout, mode, cfg, |class, start, end| {
            result.add(class, u128::from(end - start));
        })?;
        Ok(result)
    }

    fn oracle_windowed<L: PhysicalLayout>(
        store: &TimelineStore,
        layout: &L,
        mode: &FaultMode,
        cfg: &AnalysisConfig,
        window: Cycle,
    ) -> Result<Vec<MbAvfResult>, CoreError> {
        let mut results = empty_windows(store, layout, mode, window)?;
        sweep_groups(store, layout, mode, cfg, |class, start, end| {
            add_windowed(&mut results, window, class, start, end);
        })?;
        Ok(results)
    }

    const ORACLE_CYCLES: Cycle = 300;

    /// A random timeline of a few labelled intervals, none of them dropped.
    fn random_timeline(rng: &mut SplitMix64) -> ByteTimeline {
        let mut tl = ByteTimeline::new();
        let mut t = rng.below(60);
        while t < ORACLE_CYCLES - 10 {
            let end = (t + rng.range_u64(1, 80)).min(ORACLE_CYCLES);
            let ace_mask = rng.next_u32() as u8;
            let checked = ace_mask == 0 || rng.bool();
            tl.push(Interval { start: t, end, ace_mask, checked }).unwrap();
            t = end + rng.below(100);
        }
        tl
    }

    /// A seeded store whose bytes are non-empty with probability `density`.
    /// Half of the non-empty timelines come from a small shared palette, so
    /// the content memo sees repeats across bytes.
    fn random_store(seed: u64, bytes: usize, density: f64) -> TimelineStore {
        let mut rng = SplitMix64::new(seed);
        let palette: Vec<ByteTimeline> = (0..4).map(|_| random_timeline(&mut rng)).collect();
        let mut store = TimelineStore::new(bytes, ORACLE_CYCLES);
        for b in 0..bytes {
            if !rng.chance(density) {
                continue;
            }
            *store.byte_mut(b) = if rng.bool() {
                palette[rng.below(palette.len() as u64) as usize].clone()
            } else {
                random_timeline(&mut rng)
            };
        }
        store
    }

    /// Every fault-mode shape the memoized path distinguishes: contiguous
    /// `Mx1` runs, a full rectangle, and a bounding box with holes.
    fn oracle_modes() -> Vec<FaultMode> {
        let mut modes: Vec<FaultMode> = (1..=8).map(FaultMode::mx1).collect();
        modes.push(FaultMode::rect(2, 2));
        modes.push(FaultMode::from_offsets("holes", [(0, 0), (0, 2), (1, 1)]).unwrap());
        modes
    }

    /// Assert that `mb_avf` and `windowed_mb_avf` equal the oracle, every
    /// field included, for every mode, scheme and precedence rule.
    fn assert_matches_oracle<L: PhysicalLayout>(what: &str, store: &TimelineStore, layout: &L) {
        let schemes = [
            ProtectionKind::None,
            ProtectionKind::Parity,
            ProtectionKind::SecDed,
            ProtectionKind::DecTed,
            ProtectionKind::Crc { burst_detect: 4 },
        ];
        for mode in oracle_modes() {
            for scheme in schemes {
                for due_preempts_sdc in [false, true] {
                    let cfg = AnalysisConfig::new(scheme).with_due_preempts_sdc(due_preempts_sdc);
                    let ctx = format!("{what}, {mode}, {scheme:?}, preempt {due_preempts_sdc}");
                    let got = mb_avf(store, layout, &mode, &cfg);
                    assert_eq!(got, oracle_mb_avf(store, layout, &mode, &cfg), "{ctx}");
                }
            }
            // Windowing splits the same segments, whatever the scheme.
            for scheme in [ProtectionKind::Parity, ProtectionKind::SecDed] {
                let cfg = AnalysisConfig::new(scheme);
                let windows = windowed_mb_avf(store, layout, &mode, &cfg, 70);
                let want = oracle_windowed(store, layout, &mode, &cfg, 70);
                assert_eq!(windows, want, "{what}, {mode}, {scheme:?}, windowed");
            }
        }
        // Past the memo cutoff, groups are swept one by one.
        let big = FaultMode::rect(2, 9);
        assert!(big.len() > MEMO_MAX_BITS);
        for cfg in [
            AnalysisConfig::new(ProtectionKind::Parity),
            AnalysisConfig::new(ProtectionKind::DecTed).with_due_preempts_sdc(true),
        ] {
            let got = mb_avf(store, layout, &big, &cfg);
            assert_eq!(got, oracle_mb_avf(store, layout, &big, &cfg), "{what}, {big}, {cfg:?}");
        }
    }

    /// Check every layout kind over one 64-byte store of the given density.
    fn assert_layouts_match_oracle(seed: u64, density: f64) {
        let cache = CacheGeometry { sets: 2, ways: 4, line_bytes: 8 };
        let vgpr = VgprGeometry { threads: 4, regs: 4 };
        assert_eq!(cache.bytes(), 64);
        assert_eq!(vgpr.bytes(), 64);
        let store = random_store(seed, 64, density);
        let nonempty = (0..64).filter(|&b| !store.byte(b).intervals().is_empty()).count();
        assert!(nonempty > 0);
        let what = format!("{nonempty}/64 non-empty");
        assert_matches_oracle(&format!("linear, {what}"), &store, &LinearLayout::new(4, 128, 16));
        for il in [
            CacheInterleave::Logical(2),
            CacheInterleave::WayPhysical(2),
            CacheInterleave::IndexPhysical(2),
        ] {
            let layout = CacheLayout::new(cache, il).unwrap();
            assert_matches_oracle(&format!("{}, {what}", il.label()), &store, &layout);
        }
        for il in [VgprInterleave::IntraThread(2), VgprInterleave::InterThread(2)] {
            let layout = VgprLayout::new(vgpr, il).unwrap();
            assert_matches_oracle(&format!("{}, {what}", il.label()), &store, &layout);
        }
    }

    #[test]
    fn engine_matches_oracle_on_sparse_store() {
        assert_layouts_match_oracle(11, 0.02);
    }

    #[test]
    fn engine_matches_oracle_on_mid_store() {
        assert_layouts_match_oracle(12, 0.25);
    }

    #[test]
    fn engine_matches_oracle_on_dense_store() {
        assert_layouts_match_oracle(13, 1.0);
    }

    /// A [`LinearLayout`] with some coordinates remapped to arbitrary bits.
    struct Patched {
        inner: LinearLayout,
        patches: Vec<((u32, u32), BitRef)>,
    }

    impl PhysicalLayout for Patched {
        fn rows(&self) -> u32 {
            self.inner.rows()
        }

        fn cols(&self) -> u32 {
            self.inner.cols()
        }

        fn bit_at(&self, row: u32, col: u32) -> BitRef {
            match self.patches.iter().find(|(at, _)| *at == (row, col)) {
                Some(&(_, b)) => b,
                None => self.inner.bit_at(row, col),
            }
        }
    }

    fn bad(byte: u32, bit: u8) -> BitRef {
        BitRef { domain: 0, byte, bit }
    }

    #[test]
    fn errors_match_the_oracle() {
        let empty = TimelineStore::new(4, 100);
        let busy = random_store(5, 4, 1.0);
        let holes = FaultMode::from_offsets("diag", [(0, 0), (1, 1)]).unwrap();
        let larger = |mode_cols, layout_cols, mode_rows, layout_rows| {
            Err(CoreError::ModeLargerThanLayout { mode_cols, layout_cols, mode_rows, layout_rows })
        };
        let cases: Vec<(&TimelineStore, Patched, FaultMode, Result<(), CoreError>)> = vec![
            // Bytes 4..8 do not exist, and the groups over them would be
            // all-empty: the skip must not hide them.
            (
                &empty,
                Patched { inner: LinearLayout::new(4, 16, 8), patches: vec![] },
                FaultMode::mx1(3),
                Err(CoreError::ByteOutOfRange { byte: 4, len: 4 }),
            ),
            (
                &busy,
                Patched { inner: LinearLayout::new(4, 16, 8), patches: vec![] },
                FaultMode::rect(2, 9),
                Err(CoreError::ByteOutOfRange { byte: 4, len: 4 }),
            ),
            // The byte check comes before the bit check.
            (
                &busy,
                Patched { inner: LinearLayout::new(2, 16, 8), patches: vec![((1, 5), bad(9, 9))] },
                FaultMode::mx1(4),
                Err(CoreError::ByteOutOfRange { byte: 9, len: 4 }),
            ),
            (
                &empty,
                Patched { inner: LinearLayout::new(2, 16, 8), patches: vec![((1, 5), bad(1, 9))] },
                FaultMode::mx1(1),
                Err(CoreError::BitOutOfRange { bit: 9 }),
            ),
            // Groups are met in row-major anchor order and bits in offset
            // order: a 2x2 group anchored on row 0 reaches row 1 first.
            (
                &busy,
                Patched {
                    inner: LinearLayout::new(2, 16, 8),
                    patches: vec![((1, 0), bad(50, 0)), ((0, 12), bad(0, 9))],
                },
                FaultMode::rect(2, 2),
                Err(CoreError::ByteOutOfRange { byte: 50, len: 4 }),
            ),
            (
                &busy,
                Patched {
                    inner: LinearLayout::new(2, 16, 8),
                    patches: vec![((1, 0), bad(50, 0)), ((0, 12), bad(0, 9))],
                },
                FaultMode::mx1(2),
                Err(CoreError::BitOutOfRange { bit: 9 }),
            ),
            // A bit no group covers never fails the call.
            (
                &busy,
                Patched { inner: LinearLayout::new(2, 2, 2), patches: vec![((0, 1), bad(99, 9))] },
                holes.clone(),
                Ok(()),
            ),
            (
                &empty,
                Patched { inner: LinearLayout::new(2, 2, 2), patches: vec![((1, 0), bad(99, 0))] },
                holes,
                Ok(()),
            ),
            // No placement fits: reported before any bit is looked at.
            (
                &busy,
                Patched { inner: LinearLayout::new(1, 8, 8), patches: vec![((0, 0), bad(99, 9))] },
                FaultMode::mx1(9),
                larger(9, 8, 1, 1),
            ),
            (
                &busy,
                Patched { inner: LinearLayout::new(2, 16, 8), patches: vec![] },
                FaultMode::rect(3, 2),
                larger(2, 16, 3, 2),
            ),
            (
                &busy,
                Patched { inner: LinearLayout::new(2, 16, 8), patches: vec![] },
                FaultMode::rect(2, 17),
                larger(17, 16, 2, 2),
            ),
        ];
        for (i, (store, layout, mode, want)) in cases.iter().enumerate() {
            for scheme in [ProtectionKind::None, ProtectionKind::SecDed] {
                let cfg = AnalysisConfig::new(scheme);
                let got = mb_avf(store, layout, mode, &cfg);
                assert_eq!(got, oracle_mb_avf(store, layout, mode, &cfg), "case {i}");
                assert_eq!(got.as_ref().map(|_| ()), want.as_ref().map(|_| ()), "case {i}");
                if let Err(e) = want {
                    assert_eq!(got.as_ref().unwrap_err(), e, "case {i}");
                }
                let windows = windowed_mb_avf(store, layout, mode, &cfg, 30);
                assert_eq!(windows, oracle_windowed(store, layout, mode, &cfg, 30), "case {i}");
            }
        }
    }

    #[test]
    fn memo_keys_differ_in_every_packed_field() {
        let key = |content, bit, region| {
            let mut k = MemoKey::default();
            k.push(content, bit, region);
            k
        };
        let hash = |k: &MemoKey| {
            let mut h = FxHasher::default();
            k.hash(&mut h);
            h.finish()
        };
        let base = key(1, 7, 0);
        assert!(base == key(1, 7, 0));
        assert_eq!(hash(&base), hash(&key(1, 7, 0)));
        for other in [key(2, 7, 0), key(1, 6, 0), key(1, 7, 1), key(u32::MAX, 7, 0)] {
            assert!(base != other);
        }
    }

    #[test]
    fn empty_timelines_share_content_id_zero() {
        let mut store = TimelineStore::new(4, 10);
        store.byte_mut(1).push(Interval::ace(0, 5, 1)).unwrap();
        store.byte_mut(3).push(Interval::ace(0, 5, 1)).unwrap();
        assert_eq!(content_ids(&store), vec![0, 1, 0, 1]);
    }

    /// One byte, one row of 8 bits, `bits_per_domain` per parity/ECC word.
    fn store_1byte(total: Cycle) -> TimelineStore {
        TimelineStore::new(1, total)
    }

    #[test]
    fn all_ace_group_has_mb_avf_equal_to_sb_avf() {
        // Section IV-D: if all bits of a group are ACE in the same cycles,
        // MB-AVF == SB-AVF.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 50, ace_mask: 0xff, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        let mb = mb_avf(&store, &layout, &FaultMode::mx1(8), &cfg).unwrap();
        assert_eq!(sb.sdc_avf(), 0.5);
        assert_eq!(mb.sdc_avf(), 0.5);
    }

    #[test]
    fn disjoint_ace_gives_m_times_sb_avf() {
        // Section IV-D: if only one bit is ACE per cycle, MB-AVF = M x SB-AVF.
        let mut store = store_1byte(80);
        // Bit i ACE during [i*10, (i+1)*10).
        for i in 0u64..8 {
            store
                .byte_mut(0)
                .push(Interval {
                    start: i * 10,
                    end: (i + 1) * 10,
                    ace_mask: 1 << i,
                    checked: false,
                })
                .unwrap();
        }
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        let mb = mb_avf(&store, &layout, &FaultMode::mx1(8), &cfg).unwrap();
        assert!((sb.sdc_avf() - 0.125).abs() < 1e-12);
        assert_eq!(mb.sdc_avf(), 1.0);
        assert!((mb.sdc_avf() / sb.sdc_avf() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn figure3_secded_due_example() {
        // Figure 3: a 3x1 fault over two SEC-DED domains. Two bits fall in
        // PD0 (detected), one in PD1 (corrected). Group is DUE ACE whenever
        // the PD0 region is ACE.
        let mut store = store_1byte(30);
        // Bits 0..2 used; PD boundaries: bits 0-1 in domain 0, bits 2-3 in
        // domain 1 (bits_per_domain = 2).
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b011, checked: true })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 20, end: 30, ace_mask: 0b100, checked: true })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
        let mode = FaultMode::mx1(3);
        let res = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        // Groups on 8 columns: 6. Group at col 0 (bits 0,1,2): region PD0
        // {b0,b1} k=2 -> Detect; region PD1 {b2} k=1 -> Correct.
        // DUE whenever bits 0/1 ACE: [0,10) - but also unACE bits of a
        // checked interval are FalseDetect: during [20,30) bits 0,1 are
        // FalseDetect -> false DUE.
        // Other groups contribute too; just check totals are consistent.
        assert!(res.true_due_group_cycles() > 0);
        assert!(res.false_due_group_cycles() > 0);
        assert_eq!(res.sdc_group_cycles(), 0); // SEC-DED never misses k<=2 here
        assert_eq!(res.groups(), 6);
    }

    #[test]
    fn figure7_parity_sdc_example() {
        // Figure 7: a 3x1 fault over two parity domains: 2 bits in PD0
        // (undetected, SDC if ACE), 1 bit in PD1 (detected, DUE if ACE).
        // SDC takes precedence over DUE in the same cycle.
        let mut store = store_1byte(30);
        // Bits 0,1 in domain 0; bit 2 in domain 1. All ACE during [0,10).
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b111, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let mode = FaultMode::mx1(3);
        // Only look at the group anchored at column 0.
        let res = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        // Group 0: SDC during [0,10). Group 1 (bits 1,2,3): regions {b1} k=1
        // detect, {b2,b3} k=2 no-detect; bit1 ACE -> DUE, bit3 unACE,
        // bit2 ACE in no-detect region -> SDC; precedence -> SDC.
        // Group 2 (bits 2,3,4): {b2,b3} k=2 nodetect (b2 ACE -> SDC).
        // Groups 3..5: all unACE.
        assert_eq!(res.sdc_group_cycles(), 30); // 3 groups x 10 cycles
        assert_eq!(res.true_due_group_cycles(), 0);
    }

    #[test]
    fn due_preempts_sdc_rule() {
        // Same shape as figure7 test, but with the Section VIII lock-step
        // rule: the group with both SDC and DUE regions becomes DUE.
        let mut store = store_1byte(30);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0b111, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 2);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity).with_due_preempts_sdc(true);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(3), &cfg).unwrap();
        // Groups 0 and 1 have both SDC and DUE regions -> now TrueDue;
        // group 2's only detect region is unACE, so it stays SDC.
        assert_eq!(res.sdc_group_cycles(), 10);
        assert_eq!(res.true_due_group_cycles(), 20);
    }

    #[test]
    fn corrected_regions_contribute_nothing() {
        let mut store = store_1byte(10);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 10, ace_mask: 0xff, checked: true })
            .unwrap();
        // 1 bit per domain: SEC-DED corrects every single-bit region.
        let layout = LinearLayout::new(1, 8, 1);
        let cfg = AnalysisConfig::new(ProtectionKind::SecDed);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(4), &cfg).unwrap();
        assert_eq!(res.total_avf(), 0.0);
    }

    #[test]
    fn parity_due_for_single_bit_mode() {
        let mut store = store_1byte(10);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 5, ace_mask: 0x0f, checked: true })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::Parity);
        let res = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap();
        // 4 ACE bits -> true DUE; 4 unACE-but-checked bits -> false DUE.
        assert_eq!(res.true_due_group_cycles(), 4 * 5);
        assert_eq!(res.false_due_group_cycles(), 4 * 5);
        assert_eq!(res.due_avf(), (40.0) / (8.0 * 10.0));
    }

    #[test]
    fn windowed_matches_total() {
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 5, end: 42, ace_mask: 0b1, checked: false })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 60, end: 77, ace_mask: 0b10, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let mode = FaultMode::mx1(2);
        let total = mb_avf(&store, &layout, &mode, &cfg).unwrap();
        let windows = windowed_mb_avf(&store, &layout, &mode, &cfg, 13).unwrap();
        let sum: u128 = windows.iter().map(|w| w.sdc_group_cycles()).sum();
        assert_eq!(sum, total.sdc_group_cycles());
        let cyc: Cycle = windows.iter().map(|w| w.cycles()).sum();
        assert_eq!(cyc, 100);
        assert_eq!(windows.len(), 8);
        assert_eq!(windows.last().unwrap().cycles(), 100 - 7 * 13);
    }

    #[test]
    fn zero_window_rejected() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        assert_eq!(
            windowed_mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg, 0),
            Err(CoreError::ZeroWindow)
        );
    }

    #[test]
    fn layout_past_store_is_error() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 16, 8); // 2 bytes worth of bits
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        let err = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap_err();
        assert!(matches!(err, CoreError::ByteOutOfRange { .. }));
    }

    #[test]
    fn mode_too_large_is_error() {
        let store = store_1byte(10);
        let layout = LinearLayout::new(1, 8, 8);
        let cfg = AnalysisConfig::new(ProtectionKind::None);
        assert!(mb_avf(&store, &layout, &FaultMode::mx1(9), &cfg).is_err());
    }

    #[test]
    fn group_class_precedence() {
        assert!(GroupClass::Sdc > GroupClass::TrueDue);
        assert!(GroupClass::TrueDue > GroupClass::FalseDue);
        assert!(GroupClass::FalseDue > GroupClass::UnAce);
    }

    #[test]
    fn ace_locality_extremes() {
        // Perfect locality: whole byte ACE together.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 60, ace_mask: 0xff, checked: false })
            .unwrap();
        let layout = LinearLayout::new(1, 8, 8);
        assert!((ace_locality(&store, &layout).unwrap() - 1.0).abs() < 1e-9);

        // Zero locality: alternating bits ACE in disjoint windows.
        let mut store = store_1byte(100);
        store
            .byte_mut(0)
            .push(Interval { start: 0, end: 50, ace_mask: 0b0101_0101, checked: false })
            .unwrap();
        store
            .byte_mut(0)
            .push(Interval { start: 50, end: 100, ace_mask: 0b1010_1010, checked: false })
            .unwrap();
        let loc = ace_locality(&store, &layout).unwrap();
        assert!(loc < 0.01, "disjoint neighbours must have ~0 locality, got {loc}");

        // No ACE state at all: vacuously local.
        let store = store_1byte(10);
        assert_eq!(ace_locality(&store, &layout).unwrap(), 1.0);
    }

    #[test]
    fn mb_avf_bounded_by_m_times_sb() {
        // Randomized check of the Section IV-D bound: SB <= MB <= M * SB for
        // total error AVF without protection.
        use crate::rng::SplitMix64;
        let mut rng = SplitMix64::new(7);
        for _ in 0..10 {
            let mut store = TimelineStore::new(4, 200);
            for b in 0..4 {
                let mut t = 0u64;
                let tl = store.byte_mut(b);
                while t < 190 {
                    let len = rng.range_u64(1, 20);
                    let mask = rng.next_u32() as u8;
                    let end = (t + len).min(200);
                    tl.push(Interval { start: t, end, ace_mask: mask, checked: false }).unwrap();
                    t = end + rng.below(10);
                }
            }
            let layout = LinearLayout::new(1, 32, 32);
            let cfg = AnalysisConfig::new(ProtectionKind::None);
            let sb = mb_avf(&store, &layout, &FaultMode::mx1(1), &cfg).unwrap().sdc_avf();
            for m in [2u32, 4, 8] {
                let mb = mb_avf(&store, &layout, &FaultMode::mx1(m), &cfg).unwrap().sdc_avf();
                // Denominators differ (G = B - M + 1 groups vs. B bits), so
                // allow the B/G edge-effect slack on the upper bound.
                let slack = 32.0 / (32.0 - f64::from(m) + 1.0);
                assert!(mb >= sb * 0.999, "m={m} mb={mb} sb={sb}");
                assert!(mb <= sb * f64::from(m) * slack + 1e-9, "m={m} mb={mb} sb={sb}");
            }
        }
    }
}
