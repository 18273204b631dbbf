//! Automatic fault-site shrinking: find the smallest fault that still
//! produces a bundle's recorded outcome kind.
//!
//! Multi-bit fault modes flip a window of contiguous bits, but the visible
//! outcome is usually driven by one or two of them — the sign bit of an
//! accumulated value, the high bit of an address. The shrinker searches
//! narrower windows (subsets of the flipped bits, plus the immediately
//! neighboring start positions) in a fixed deterministic order, smallest
//! width first, and confirms each candidate with a full single-trial
//! re-execution against the same golden reference replay uses. The result
//! is written back into the bundle as a `minimized` section, so the next
//! researcher starts from a one-bit repro instead of a 16-bit one.
//!
//! Determinism: the candidate order is a pure function of the original
//! fault, and every trial is deterministic, so the same bundle always
//! shrinks to the same minimized fault.

use crate::bundle::{self, Minimized, ReproBundle};
use crate::campaign::FaultSite;
use crate::replay::{prepare, replay_prepared};
use mbavf_core::error::InjectError;
use std::path::Path;

/// Result of shrinking one bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkOutcome {
    /// The smallest fault found that still reproduces the recorded outcome
    /// kind (the original fault when nothing smaller does).
    pub site: FaultSite,
    /// Width of the minimized fault window.
    pub mode_bits: u8,
    /// Whether any strictly smaller fault reproduced.
    pub improved: bool,
    /// Candidate faults re-executed during the search.
    pub candidates_tested: u32,
}

/// Candidate (start bit, width) pairs in deterministic search order:
/// widths ascending (smallest repro wins), and for each width every start
/// position inside the original window plus one neighbor on each side.
fn candidates(site: FaultSite, mode_bits: u8) -> Vec<(u8, u8)> {
    let m = mode_bits.clamp(1, 32);
    let lo = site.bit.min(32 - m);
    let mut out = Vec::new();
    for width in 1..m {
        let first = lo.saturating_sub(1);
        let last = (lo + m - width + 1).min(32 - width);
        for start in first..=last {
            out.push((start, width));
        }
    }
    out
}

/// Search for the smallest fault still producing `bundle`'s recorded
/// outcome kind.
///
/// Runs one full trial per candidate; the search space is at most
/// `O(mode_bits²)` candidates, and it stops at the first (and therefore
/// smallest, by search order) reproducing fault.
///
/// # Errors
///
/// The same typed refusals as replay: unknown workload, fingerprint or
/// golden-digest mismatch, out-of-range site.
pub fn shrink_bundle(bundle: &ReproBundle) -> Result<ShrinkOutcome, InjectError> {
    // Validate the bundle (and fail typed) even when there is nothing to
    // shrink, so callers get consistent behavior for width-1 bundles. The
    // gates run once; candidates differ from the bundle's site only in
    // their bit window, so its site bounds check covers them all.
    let prepared = prepare(bundle)?;
    let baseline = replay_prepared(&prepared, bundle, bundle.site, bundle.mode_bits);
    let mut tested = 1u32;
    if baseline.reproduced {
        for (start, width) in candidates(bundle.site, bundle.mode_bits) {
            let site = FaultSite { bit: start, ..bundle.site };
            tested += 1;
            if replay_prepared(&prepared, bundle, site, width).reproduced {
                return Ok(ShrinkOutcome {
                    site,
                    mode_bits: width,
                    improved: true,
                    candidates_tested: tested,
                });
            }
        }
    }
    Ok(ShrinkOutcome {
        site: bundle.site,
        mode_bits: bundle.mode_bits.clamp(1, 32),
        improved: false,
        candidates_tested: tested,
    })
}

/// Shrink the bundle at `path` and write the result back into its
/// `minimized` section (atomically). Returns the shrink result.
pub fn shrink_and_update(path: &Path) -> Result<ShrinkOutcome, InjectError> {
    let mut b = bundle::load(path)?;
    let result = shrink_bundle(&b)?;
    b.minimized = Some(Minimized { site: result.site, mode_bits: result.mode_bits });
    bundle::save(path, &b)?;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_order_is_deterministic_and_smallest_first() {
        let site = FaultSite { wg: 0, after_retired: 0, reg: 1, lane: 2, bit: 10 };
        let a = candidates(site, 4);
        assert_eq!(a, candidates(site, 4));
        // Widths ascend; every candidate window fits in the register.
        let mut last_width = 1;
        for &(start, width) in &a {
            assert!(width >= last_width);
            assert!(width < 4);
            assert!(start + width <= 32);
            last_width = width;
        }
        // Width 1 candidates cover the original window [10, 14) and one
        // neighbor each side.
        let w1: Vec<u8> = a.iter().filter(|c| c.1 == 1).map(|c| c.0).collect();
        assert_eq!(w1, vec![9, 10, 11, 12, 13, 14]);
    }

    #[test]
    fn width_one_faults_have_no_candidates() {
        let site = FaultSite { wg: 0, after_retired: 0, reg: 1, lane: 2, bit: 31 };
        assert!(candidates(site, 1).is_empty());
        // Clipped windows near the register edge stay in range.
        for (start, width) in candidates(site, 8) {
            assert!(start + width <= 32);
        }
    }
}
