//! Summary statistics shared by every workload.

/// A latency summary: the median and the highest percentile that still
/// has at least [`TAIL_BEYOND`] samples beyond it, with the sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples summarized.
    pub samples: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The tail percentile actually reported (0.99 when the sample
    /// supports it, lower otherwise).
    pub tail_percentile: f64,
    /// The value at `tail_percentile`.
    pub tail: f64,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest tail percentile ever reported, in percent.
pub const TAIL_CAP_PERCENT: usize = 99;

/// Summarizes `values` (any order). The tail rule: the nearest-rank
/// percentile `r / n` with `r = min(⌈0.99 n⌉, n − 10)`, never below the
/// median rank, so a small sample reports a lower percentile instead of
/// a p99 that rests on fewer than ten samples.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median_rank = n.div_ceil(2);
    let cap_rank = (TAIL_CAP_PERCENT * n).div_ceil(100);
    let rank = cap_rank.min(n.saturating_sub(TAIL_BEYOND)).max(median_rank);
    Some(Summary {
        samples: n,
        p50: sorted[median_rank - 1],
        tail_percentile: rank as f64 / n as f64,
        tail: sorted[rank - 1],
    })
}

/// The median of `values` (mean of the two middle values for an even
/// count) — for per-iteration figures, where there are few samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed, so summarize must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let s = summarize(&ramp(1000)).unwrap();
        assert_eq!(s.samples, 1000);
        assert_eq!(s.tail_percentile, 0.99);
        assert_eq!(s.tail, 990.0);
        assert_eq!(s.p50, 500.0);
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&v| v > s.tail).count(), 10);
    }

    #[test]
    fn smaller_samples_report_a_lower_percentile() {
        let s = summarize(&ramp(200)).unwrap();
        assert_eq!(s.tail_percentile, 0.95);
        assert_eq!(s.tail, 190.0);
        assert_eq!(ramp(200).iter().filter(|&&v| v > s.tail).count(), 10);
        // Beyond 1000 samples the cap holds at p99.
        let s = summarize(&ramp(5000)).unwrap();
        assert_eq!(s.tail_percentile, 0.99);
        assert_eq!(s.tail, 4950.0);
    }

    #[test]
    fn tiny_samples_fall_back_to_the_median() {
        let s = summarize(&ramp(7)).unwrap();
        assert_eq!((s.p50, s.tail), (4.0, 4.0));
        assert_eq!(s.samples, 7);
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
