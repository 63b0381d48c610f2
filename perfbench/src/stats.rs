//! Sample statistics: nearest-rank percentiles, the tail-percentile
//! rule, quartiles and summaries of span durations.

/// Percentiles the tail rule may report, highest first.
pub const TAIL_LADDER: [f64; 4] = [99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` samples, in integer
/// arithmetic on tenths of a percent (`0.999 * 10_000` is not exactly
/// 9990 in floating point).
fn rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
#[must_use]
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(p, n)
    }
}

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// lacks that support.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice (`None` if empty).
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(p, sorted.len()) - 1])
}

/// Sorts `xs` ascending; infinities (failed requests) sort last.
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Arithmetic mean (`None` if empty).
#[must_use]
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Median of unsorted values, averaging the middle pair.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Mean, median, p99 and count of one sample set — the shape every
/// per-layer timing is reported in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarises `xs`; all-zero for an empty set (with `n == 0`).
    #[must_use]
    pub fn of(xs: &[f64]) -> Summary {
        let mut v = xs.to_vec();
        sort(&mut v);
        Summary {
            n: v.len(),
            mean: mean(&v).unwrap_or(0.0),
            p50: percentile(&v, 50.0).unwrap_or(0.0),
            p99: percentile(&v, 99.0).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_beyond() {
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 0..3_000 {
            if let Some(p) = tail_percentile(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "n={n} p={p}");
                // nothing higher on the ladder qualifies
                for &q in TAIL_LADDER.iter().filter(|&&q| q > p) {
                    assert!(beyond(q, n) < MIN_BEYOND, "n={n} q={q}");
                }
            }
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), Some(2.5));
    }

    #[test]
    fn failures_sort_last_and_miss_the_limit() {
        let mut xs = vec![f64::INFINITY, 5.0, 1.0];
        sort(&mut xs);
        assert_eq!(xs[0], 1.0);
        assert!(percentile(&xs, 99.0).unwrap().is_infinite());
    }
}
