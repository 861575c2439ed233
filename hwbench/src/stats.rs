//! Order statistics for latencies.
//!
//! Percentiles are nearest-rank: the `q` percentile of `n` samples is
//! the `⌈q·n⌉`-th smallest, so it is always a value that was measured.
//! A tail percentile is only *resolved* when at least
//! [`MIN_BEYOND`] samples lie above it; with fewer, one slow outlier
//! decides it.

/// Samples that must lie beyond a percentile for it to be resolved.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q` percentile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let r = (q * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n.max(1))
}

/// Nearest-rank `q` percentile (`0 < q ≤ 1`) of `samples`; NaN when empty.
#[must_use]
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), q) - 1]
}

/// The median (mean of the two middle samples for an even count).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

/// How many of `n` samples lie strictly beyond the `q` percentile's rank.
#[must_use]
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Whether the `q` percentile of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn resolved(n: usize, q: f64) -> bool {
    beyond(n, q) >= MIN_BEYOND
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 0.9), 9.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        // 100 samples: rank 90, ten beyond → resolved.
        assert_eq!(beyond(100, 0.9), 10);
        assert!(resolved(100, 0.9));
        // 99 samples: rank 90, nine beyond → not resolved.
        assert!(!resolved(99, 0.9));
        // A CLI run (a few dozen processes) never resolves its p90 …
        assert!(!resolved(40, 0.9));
        // … but resolves its median from 20 samples on.
        assert!(resolved(20, 0.5));
        assert!(!resolved(19, 0.5));
        // p99 needs a thousand.
        assert!(resolved(1000, 0.99));
        assert!(!resolved(999, 0.99));
    }
}
