//! Order statistics for benchmark timings.
//!
//! A timing is reported as its median, the highest percentile of a fixed
//! ladder that still has at least [`TAIL_MIN_BEYOND`] samples above it,
//! and the sample count.  Means and standard deviations are not used:
//! one slow episode on a shared host moves a mean but not a median.

/// Samples that must lie strictly beyond a percentile before it is
/// reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The median of `samples` (the mean of the two middle values for an even
/// count), or `None` when empty.
#[must_use]
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile (`0 < p ≤ 100`) of `samples`, or
/// `None` when empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let rank = nearest_rank(sorted.len(), p)?;
    Some(sorted[rank - 1])
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    nearest_rank(n, p).map_or(0, |rank| n - rank)
}

/// The `p`-th percentile only if at least [`TAIL_MIN_BEYOND`] samples lie
/// beyond it.
#[must_use]
pub fn percentile_with_tail(samples: &[f64], p: f64) -> Option<f64> {
    if beyond(samples.len(), p) < TAIL_MIN_BEYOND {
        return None;
    }
    percentile(samples, p)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, as `(p, value)`.
#[must_use]
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER
        .iter()
        .find_map(|&p| percentile_with_tail(samples, p).map(|v| (p, v)))
}

/// Median, tail and count of one timing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median sample.
    pub median: f64,
    /// The highest percentile with enough samples beyond it, as
    /// `(p, value)`; `None` for short runs.
    pub tail: Option<(f64, f64)>,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes `samples`, or `None` when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Self> {
        Some(Self {
            median: median(samples)?,
            tail: tail(samples),
            n: samples.len(),
        })
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.6}", self.median)?;
        if let Some((p, v)) = self.tail {
            write!(f, ", p{p} {v:.6}")?;
        }
        write!(f, " (n={})", self.n)
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// 1-based nearest rank: the smallest rank whose share of `n` is at
/// least `p` percent.
fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Integer arithmetic on basis points keeps ranks exact (0.9 * 100 is
    // not exactly 90 in floating point).
    let bp = (p * 100.0).round() as usize;
    let rank = (bp * n).div_ceil(10_000).clamp(1, n);
    Some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled so the helpers must sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = ramp(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&ramp(10), 90.0), Some(9.0));
        assert_eq!(percentile(&ramp(7), 90.0), Some(7.0));
        assert_eq!(percentile(&[], 90.0), None);
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(99, 90.0), 9);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        assert_eq!(percentile_with_tail(&ramp(99), 90.0), None);
        assert_eq!(percentile_with_tail(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn tail_is_the_highest_supported_percentile() {
        assert_eq!(tail(&ramp(30)), None);
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
        assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn summary_reports_count() {
        let s = Summary::of(&[2.0, 1.0, 3.0]).expect("non-empty");
        assert_eq!(s.median, 2.0);
        assert_eq!(s.tail, None);
        assert_eq!(s.n, 3);
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(s.to_string(), "median 2.000000 (n=3)");
    }
}
