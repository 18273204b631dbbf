//! The ACE-interference study (paper Table II, Section VII-A).
//!
//! The MB-AVF model describes multi-bit masking behaviour using single-bit
//! ACE results, which is wrong exactly when flipping several bits together
//! changes each bit's individual ACEness — e.g. two flipped inputs of an
//! XOR cancelling, or a corrupted branch re-converging. This module
//! measures how often that happens: for each SDC ACE bit found by a
//! single-bit campaign, build 2x1/3x1/4x1 fault groups containing it, inject
//! each constituent bit alone and all together, and count groups where the
//! multi-bit outcome contradicts the union of the single-bit outcomes.

use crate::campaign::{golden_shape, run_one, CampaignConfig, FaultSite};
use crate::runner::{run_campaign_with, RunnerConfig};
use mbavf_core::error::InjectError;
use mbavf_workloads::Workload;

/// The fault modes of Table II.
pub const MODES: [u8; 3] = [2, 3, 4];

/// One workload's row of Table II.
#[derive(Debug, Clone)]
pub struct InterferenceRow {
    /// Workload name.
    pub workload: &'static str,
    /// SDC ACE bits identified by the single-bit campaign.
    pub sdc_ace_bits: usize,
    /// Fault groups tested per mode (2x1, 3x1, 4x1).
    pub groups_tested: [usize; 3],
    /// Groups exhibiting ACE interference per mode.
    pub interference: [usize; 3],
}

impl InterferenceRow {
    /// Total interference fraction over all tested groups.
    pub fn interference_fraction(&self) -> f64 {
        let tested: usize = self.groups_tested.iter().sum();
        if tested == 0 {
            0.0
        } else {
            self.interference.iter().sum::<usize>() as f64 / tested as f64
        }
    }
}

/// Run the Table II experiment for one workload.
///
/// `max_groups_per_mode` bounds the number of multi-bit groups tested per
/// mode (each group costs `M + 1` full program runs).
///
/// # Panics
///
/// Panics if the workload's golden run fails; use
/// [`try_interference_study`] for a typed error instead.
pub fn interference_study(
    workload: &Workload,
    cfg: &CampaignConfig,
    max_groups_per_mode: usize,
) -> InterferenceRow {
    try_interference_study(workload, cfg, max_groups_per_mode)
        .unwrap_or_else(|e| panic!("interference study over {} failed: {e}", workload.name))
}

/// [`interference_study`], reporting campaign failures as typed errors
/// instead of panicking (so the experiment harness can skip the workload).
///
/// # Errors
///
/// [`InjectError::GoldenRunFailed`] if the fault-free reference run fails.
pub fn try_interference_study(
    workload: &Workload,
    cfg: &CampaignConfig,
    max_groups_per_mode: usize,
) -> Result<InterferenceRow, InjectError> {
    // One golden shape serves the campaign and every group re-execution.
    let golden = golden_shape(workload, cfg)?;
    let max_steps = golden.max_steps;
    let report = run_campaign_with(workload, cfg, &RunnerConfig::serial(), &golden)?;
    let sdc_sites = report.summary.sdc_sites();

    let mut groups_tested = [0usize; 3];
    let mut interference = [0usize; 3];
    for (mi, &m) in MODES.iter().enumerate() {
        for site in sdc_sites.iter().take(max_groups_per_mode) {
            // The group: m contiguous bits anchored so the SDC bit is
            // included (FaultSite::injection clips at the register edge).
            let anchor = FaultSite { bit: site.bit.min(32 - m), ..*site };
            // Union prediction from the constituent single-bit outcomes.
            let mut any_single_error = false;
            for k in 0..m {
                let single = FaultSite { bit: anchor.bit + k, ..anchor };
                let (o, _) = run_one(workload, cfg, &golden.output, max_steps, single, 1);
                any_single_error |= o.is_error();
            }
            let (multi, _) = run_one(workload, cfg, &golden.output, max_steps, anchor, m);
            groups_tested[mi] += 1;
            if any_single_error != multi.is_error() {
                interference[mi] += 1;
            }
        }
    }
    Ok(InterferenceRow {
        workload: workload.name,
        sdc_ace_bits: sdc_sites.len(),
        groups_tested,
        interference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_workloads::{by_name, Scale};

    #[test]
    fn interference_is_rare() {
        // The paper's central claim for the SDC model: interference occurs
        // in ~0.1% of groups. With a small budget we check it stays rare.
        let w = by_name("transpose").expect("registered");
        let cfg = CampaignConfig {
            seed: 3,
            injections: 40,
            scale: Scale::Test,
            ..CampaignConfig::default()
        };
        let row = interference_study(&w, &cfg, 6);
        assert!(row.sdc_ace_bits > 0, "transpose must have SDC ACE bits");
        assert!(
            row.interference_fraction() < 0.25,
            "interference should be rare, got {}",
            row.interference_fraction()
        );
    }

    #[test]
    fn groups_are_bounded_by_budget() {
        let w = by_name("dct").expect("registered");
        let cfg = CampaignConfig {
            seed: 5,
            injections: 30,
            scale: Scale::Test,
            ..CampaignConfig::default()
        };
        let row = interference_study(&w, &cfg, 3);
        for &g in &row.groups_tested {
            assert!(g <= 3);
        }
    }
}
