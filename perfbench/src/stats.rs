//! Order statistics for the reported metrics.

/// Percentiles tried for the tail figure, highest first. The ladder
/// stops at p95. In `service`, 1–3 % of round trips wait several ms for
/// a CPU that two solver workers hold, so p99 sits on the edge of that
/// second mode and moved by a third between runs; p95 stays in the first.
const TAIL_LADDER: [f64; 4] = [95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile for it to count as the tail.
const TAIL_MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `0.0`
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; `0.0` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it, and its value. Falls back to the maximum (`p = 100`) when
/// there are too few samples for any rung.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    for p in TAIL_LADDER {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if n >= rank + TAIL_MIN_BEYOND {
            return (p, percentile(values, p));
        }
    }
    (100.0, values.iter().copied().fold(0.0, f64::max))
}

/// Spread of repeated measurements of one quantity: `(max − min) / median`.
pub fn relative_spread(values: &[f64]) -> f64 {
    let mid = median(values);
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    (hi - lo) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90.0), 90.0);
        assert_eq!(tail(&values), (90.0, 90.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (95.0, 1900.0));
    }

    #[test]
    fn spread_of_repeats() {
        assert_eq!(relative_spread(&[10.0, 10.0]), 0.0);
        assert!((relative_spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
    }
}
