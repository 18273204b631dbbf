//! Order statistics over a run's repetitions.

/// Median of the samples: the mean of the two middle ones for an even count.
/// Zero for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbavf_inject::LatencyStats;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    /// The `runner.trial_p50_us` / `runner.trial_p99_us` metrics come from
    /// the runner's nearest-rank percentiles; pin them at the smallest
    /// sample sizes, where an off-by-one in the rank shows.
    #[test]
    fn trial_latency_percentiles_are_nearest_rank_at_one_two_and_three() {
        assert_eq!(LatencyStats::from_micros(Vec::new()), None);
        let p = |us: &[u64]| {
            let s = LatencyStats::from_micros(us.to_vec()).expect("nonempty");
            (s.n, s.p50_us, s.p99_us, s.max_us)
        };
        assert_eq!(p(&[7]), (1, 7, 7, 7));
        // ceil(0.5 * 2) = 1st of two; ceil(0.99 * 2) = 2nd.
        assert_eq!(p(&[20, 10]), (2, 10, 20, 20));
        // ceil(0.5 * 3) = 2nd of three; ceil(0.99 * 3) = 3rd.
        assert_eq!(p(&[30, 10, 20]), (3, 20, 30, 30));
    }
}
