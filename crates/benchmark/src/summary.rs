//! Order statistics over a handful of timed repetitions.

/// The `p`-th percentile (0–100) of `xs` by linear interpolation
/// between closest ranks. Returns 0 for an empty slice.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The fastest repetition. Every rep of a workload executes the same
/// instructions, and the noise of a shared host only ever adds time, so
/// the minimum estimates the program where the median estimates the
/// neighbours (README, "Why the fastest rep").
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Set-ups per group in [`grouped_fastest`].
pub const SETUP_GROUP: usize = 5;

/// The set-up estimate: the median, over consecutive groups of
/// [`SETUP_GROUP`] set-ups, of each group's fastest. A plain median of
/// set-ups carries the host's noise level of the minute (it moved by
/// 44 % between two ten-run sets of the same code); the fastest of a
/// few does not, for the reason [`fastest`] gives.
pub fn grouped_fastest(xs: &[f64]) -> f64 {
    let groups: Vec<f64> = xs.chunks(SETUP_GROUP).map(fastest).collect();
    median(&groups)
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let p50 = median(xs);
    if p50 == 0.0 {
        0.0
    } else {
        (percentile(xs, 75.0) - percentile(xs, 25.0)) / p50
    }
}

/// `num / den`, or 0 when the denominator is 0 — the convention for a
/// per-layer ratio on a workload that never exercises the layer.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
        assert_eq!(percentile(&xs, 75.0), 4.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn fastest_and_spread() {
        let xs = [0.30, 0.21, 0.25, 0.45, 0.22];
        assert_eq!(fastest(&xs), 0.21);
        // p25 = 0.22, p50 = 0.25, p75 = 0.30.
        assert!((spread(&xs) - 0.32).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn set_up_estimate_is_the_median_of_group_minima() {
        // Three groups of five with minima 0.07, 0.09, 0.08.
        let xs = [
            0.10, 0.07, 0.30, 0.08, 0.09, // 0.07
            0.09, 0.12, 0.10, 0.11, 0.15, // 0.09
            0.20, 0.08, 0.09, 0.09, 0.10, // 0.08
        ];
        assert_eq!(grouped_fastest(&xs), 0.08);
        assert_eq!(grouped_fastest(&[0.3, 0.2]), 0.2);
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
