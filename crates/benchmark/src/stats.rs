//! Order statistics used for every reported figure: medians over
//! repetitions, and tail percentiles that are withheld when the sample
//! cannot support them.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); `0.0` for
/// an empty sample so an idle layer reads as zero.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile, or `None` when fewer than [`TAIL_SUPPORT`]
/// samples lie beyond it (a p99 of 600 samples would be decided by six
/// of them).
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= TAIL_SUPPORT).then(|| sorted(values)[rank - 1])
}

/// Geometric mean; `1.0` (the neutral ratio) for an empty sample.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_one_even_and_ties() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[3.0, 1.0]), 2.0);
        assert_eq!(median(&[2.0, 2.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn percentile_is_withheld_without_ten_samples_beyond() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[1.0], 50.0), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 leaves exactly ten beyond; p91 leaves nine.
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 91.0), None);
        assert_eq!(percentile(&v, 99.0), None);
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_with_ties_returns_the_tied_value() {
        let mut v = vec![4.0; 30];
        v.extend([9.0; 10]);
        assert_eq!(percentile(&v, 50.0), Some(4.0));
        assert_eq!(percentile(&v, 75.0), Some(4.0));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }
}
