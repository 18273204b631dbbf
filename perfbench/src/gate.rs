//! The exactness gate: digests of simulated results, the expected values
//! kept with the benchmark, and the cross-mode campaign identity.

use mbavf_core::analysis::MbAvfResult;
use mbavf_inject::CampaignSummary;
use std::collections::BTreeMap;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold every exact field of an analysis result in.
    pub fn result(&mut self, r: &MbAvfResult) {
        self.bytes(r.mode().as_bytes());
        self.bytes(&r.groups().to_le_bytes());
        self.bytes(&r.cycles().to_le_bytes());
        self.bytes(&r.sdc_group_cycles().to_le_bytes());
        self.bytes(&r.true_due_group_cycles().to_le_bytes());
        self.bytes(&r.false_due_group_cycles().to_le_bytes());
    }

    /// Fold the bit patterns of exhibit values in.
    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Expected values kept with the benchmark, one `key value` pair a line;
/// `#` starts a comment. Values are decimal or `0x` hexadecimal.
#[derive(Debug, Default)]
pub struct Expected(BTreeMap<String, u64>);

impl Expected {
    /// Parse the expected-values text.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let (Some(key), Some(val), None) = (it.next(), it.next(), it.next()) else {
                return Err(format!("line {}: expected `key value`", n + 1));
            };
            let parsed = match val.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => val.parse(),
            }
            .map_err(|e| format!("line {}: {e}", n + 1))?;
            if map.insert(key.to_string(), parsed).is_some() {
                return Err(format!("line {}: duplicate key {key}", n + 1));
            }
        }
        Ok(Expected(map))
    }

    /// The expected value of `key`, if one is kept.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Compare `actual` with the expected value of `key`; a missing key is
    /// a failure too.
    pub fn check(&self, key: &str, actual: u64) -> Result<(), String> {
        match self.get(key) {
            Some(want) if want == actual => Ok(()),
            Some(want) => Err(format!("{key}: expected {want:#018x}, got {actual:#018x}")),
            None => Err(format!("{key}: no expected value kept (got {actual:#018x})")),
        }
    }
}

/// The cross-mode identity: two executions of one campaign (same seed and
/// budget) must produce the same summary.
pub fn same_summary(got: &CampaignSummary, want: &CampaignSummary) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    if got.records.len() != want.records.len() {
        return Err(format!("{} records, reference has {}", got.records.len(), want.records.len()));
    }
    match got.records.iter().zip(&want.records).find(|(a, b)| a != b) {
        Some((a, b)) => Err(format!("trial {} differs: {a:?} vs reference {b:?}", a.trial)),
        None => Err("summary counters differ from the reference".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_core::analysis::{mb_avf, AnalysisConfig};
    use mbavf_core::geometry::FaultMode;
    use mbavf_core::layout::LinearLayout;
    use mbavf_core::protection::ProtectionKind;
    use mbavf_core::timeline::{Interval, TimelineStore};
    use mbavf_inject::{FaultSite, Outcome, SingleBitRecord};

    fn store(second_end: u64) -> TimelineStore {
        let mut s = TimelineStore::new(4, 100);
        s.byte_mut(0).push(Interval::ace(0, 40, 0xff)).expect("ordered");
        s.byte_mut(1).push(Interval::ace(10, second_end, 0x0f)).expect("ordered");
        s.byte_mut(3).push(Interval::false_detect(5, 90)).expect("ordered");
        s
    }

    fn digest(s: &TimelineStore) -> u64 {
        let layout = LinearLayout::new(1, 32, 8);
        let mut d = Digest::default();
        for (m, scheme) in [(1, ProtectionKind::Parity), (2, ProtectionKind::SecDed)] {
            let cfg = AnalysisConfig::new(scheme);
            d.result(&mb_avf(s, &layout, &FaultMode::mx1(m), &cfg).expect("fits"));
        }
        d.value()
    }

    #[test]
    fn one_altered_interval_is_a_digest_mismatch() {
        let kept = Expected::parse(&format!("unit/test {:#018x}\n", digest(&store(60)))).unwrap();
        assert_eq!(kept.check("unit/test", digest(&store(60))), Ok(()));
        let err = kept.check("unit/test", digest(&store(61))).unwrap_err();
        assert!(err.contains("unit/test"), "{err}");
        assert!(kept.check("unit/other", 0).is_err(), "a missing key must fail");
    }

    #[test]
    fn exhibit_bits_distinguish_values_equal_as_numbers() {
        let bits = |v: &[f64]| {
            let mut d = Digest::default();
            d.f64s(v);
            d.value()
        };
        assert_eq!(bits(&[0.25, 1.0]), bits(&[0.25, 1.0]));
        assert_ne!(bits(&[0.0]), bits(&[-0.0]));
        assert_ne!(bits(&[0.1 + 0.2]), bits(&[0.3]));
    }

    #[test]
    fn expected_text_parses_and_rejects_garbage() {
        let e = Expected::parse("# comment\na 12\nb 0x1f  # trailing\n\n").unwrap();
        assert_eq!((e.get("a"), e.get("b"), e.get("c")), (Some(12), Some(31), None));
        assert!(Expected::parse("a\n").is_err());
        assert!(Expected::parse("a 1 2\n").is_err());
        assert!(Expected::parse("a zz\n").is_err());
        assert!(Expected::parse("a 1\na 2\n").is_err());
    }

    fn summary(outcomes: &[Outcome]) -> CampaignSummary {
        let records = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| SingleBitRecord {
                trial: i as u64,
                site: FaultSite { wg: 0, after_retired: i as u64, reg: 1, lane: 2, bit: 3 },
                outcome: o.clone(),
                read_before_overwrite: true,
            })
            .collect();
        CampaignSummary {
            workload: "fast_walsh",
            records,
            snapshot_failures: 0,
            audited: 0,
            audit_divergences: 0,
            merge_conflicts: 0,
            quarantined_endpoints: Vec::new(),
        }
    }

    #[test]
    fn one_flipped_outcome_fails_the_cross_mode_check() {
        let want = summary(&[Outcome::Masked, Outcome::Sdc, Outcome::Masked]);
        assert_eq!(same_summary(&want.clone(), &want), Ok(()));
        let flipped = summary(&[Outcome::Masked, Outcome::Masked, Outcome::Masked]);
        let err = same_summary(&flipped, &want).unwrap_err();
        assert!(err.contains("trial 1"), "{err}");
        let short = summary(&[Outcome::Masked, Outcome::Sdc]);
        assert!(same_summary(&short, &want).is_err());
    }
}
