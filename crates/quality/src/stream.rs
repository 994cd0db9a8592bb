//! Streaming (online) quality estimation for long-running deployments.
//!
//! The offline tuner sees a fixed batch of training qualities; a serving
//! engine instead observes calibration-check qualities one at a time,
//! indefinitely. [`QualityStream`] folds that stream into constant-space
//! estimates: the running mean, the minimum, and an exponentially
//! weighted moving average that tracks drift faster than the global mean.
//! It only describes the stream: judging a sample against the TOQ is the
//! deployment watchdog's job.

/// Constant-space estimator over a stream of measured output qualities.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityStream {
    alpha: f64,
    count: u64,
    mean: f64,
    min: f64,
    ewma: Option<f64>,
}

impl QualityStream {
    /// Create an estimator with EWMA smoothing factor `alpha` in `(0, 1]`
    /// (the weight of the newest sample; clamped into range).
    pub fn new(alpha: f64) -> QualityStream {
        QualityStream {
            alpha: if alpha.is_finite() {
                alpha.clamp(f64::EPSILON, 1.0)
            } else {
                1.0
            },
            count: 0,
            mean: 0.0,
            min: f64::INFINITY,
            ewma: None,
        }
    }

    /// Fold one sample into the stream.
    pub fn observe(&mut self, quality: f64) {
        self.count += 1;
        self.mean += (quality - self.mean) / self.count as f64;
        self.min = self.min.min(quality);
        self.ewma = Some(match self.ewma {
            Some(prev) => self.alpha * quality + (1.0 - self.alpha) * prev,
            None => quality,
        });
    }

    /// Number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Running mean, or `None` before the first sample.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Minimum observed, or `None` before the first sample.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exponentially weighted moving average, or `None` before the first
    /// sample.
    pub fn ewma(&self) -> Option<f64> {
        self.ewma
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stream_reports_nothing() {
        let s = QualityStream::new(0.25);
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.ewma(), None);
    }

    #[test]
    fn running_mean_matches_batch_statistics() {
        let samples = [91.5, 94.0, 88.0, 99.5, 92.25, 90.0, 85.5];
        let mut s = QualityStream::new(0.25);
        for &q in &samples {
            s.observe(q);
        }
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!((s.mean().unwrap() - mean).abs() < 1e-12);
        assert_eq!(s.min(), Some(85.5));
        assert_eq!(s.count(), 7);
    }

    #[test]
    fn ewma_tracks_drift_faster_than_mean() {
        let mut s = QualityStream::new(0.5);
        for _ in 0..50 {
            s.observe(95.0);
        }
        for _ in 0..4 {
            s.observe(70.0);
        }
        // Four bad samples barely move the 54-sample mean but drag the
        // EWMA down to near the new level.
        assert!(s.mean().unwrap() > 90.0);
        assert!(s.ewma().unwrap() < 75.0);
    }

    #[test]
    fn running_mean_stays_stable_over_a_hundred_thousand_updates() {
        // Cancellation stress: 100k samples oscillating by one part in
        // 1e8 around 90. The incremental mean must stay exact to ~1e-9.
        let mut s = QualityStream::new(0.25);
        let (lo, hi) = (90.0f64, 90.0 + 9e-7);
        for i in 0..100_000u64 {
            s.observe(if i % 2 == 0 { lo } else { hi });
        }
        assert_eq!(s.count(), 100_000);
        let mean = s.mean().unwrap();
        assert!(
            (mean - (lo + hi) / 2.0).abs() < 1e-9,
            "mean drifted: {mean}"
        );
        assert_eq!(s.min(), Some(lo));
    }

    #[test]
    fn ewma_lag_on_a_long_monotone_ramp_converges_to_the_analytic_value() {
        // On a linear ramp q_t = t*d the EWMA's steady-state lag behind
        // the signal is d*(1-alpha)/alpha. After thousands of steps the
        // transient is gone; the iterative predictor leans on this lag
        // being bounded (the trend estimate trails, never overshoots).
        let alpha = 0.25;
        let d = 0.001;
        let mut s = QualityStream::new(alpha);
        let mut last_q = 0.0;
        let mut prev_ewma = f64::NEG_INFINITY;
        for t in 0..20_000u64 {
            last_q = t as f64 * d;
            s.observe(last_q);
            let e = s.ewma().unwrap();
            assert!(e >= prev_ewma, "EWMA must be monotone on a monotone ramp");
            assert!(e <= last_q, "EWMA must trail a rising signal");
            prev_ewma = e;
        }
        let lag = last_q - s.ewma().unwrap();
        let analytic = d * (1.0 - alpha) / alpha;
        assert!(
            (lag - analytic).abs() < analytic * 1e-6,
            "lag {lag} vs analytic {analytic}"
        );
    }

    #[test]
    fn ewma_of_contracting_ratios_stays_inside_the_observation_hull() {
        // The residual-trend predictor feeds decay ratios r_t/r_{t-1}
        // into the EWMA and extrapolates with ewma^horizon, so the
        // estimate must never escape [min observed, max observed] — an
        // EWMA below every observed ratio would predict convergence that
        // the data does not support. Drive 10k monotonically decreasing
        // ratios and check the hull and monotonicity at every step.
        let mut s = QualityStream::new(0.4);
        let mut prev = f64::INFINITY;
        for t in 0..10_000u64 {
            // Decreasing from ~0.999 toward 0.5, always in (0, 1).
            let ratio = 0.5 + 0.499 / (1.0 + t as f64 * 0.01);
            s.observe(ratio);
            let e = s.ewma().unwrap();
            assert!(e <= prev, "EWMA must decrease on a decreasing stream");
            assert!(
                e >= ratio,
                "EWMA {e} escaped below the smallest observation {ratio}"
            );
            assert!(e < 1.0, "contracting trend must read as contracting");
            prev = e;
        }
    }

    #[test]
    fn alpha_is_sanitized() {
        let mut s = QualityStream::new(f64::NAN);
        s.observe(50.0);
        s.observe(90.0);
        // alpha fell back to 1.0: EWMA == last sample.
        assert_eq!(s.ewma(), Some(90.0));
        let mut s = QualityStream::new(-3.0);
        s.observe(50.0);
        s.observe(90.0);
        // clamped to ~0: EWMA barely moves but stays finite.
        assert!(s.ewma().unwrap() < 51.0);
    }
}
