//! Per-tenant serving statistics and snapshots.

use paraprox_quality::QualityStream;

/// Nearest-rank percentile of a sample set, in the sample's unit.
/// Returns 0 for an empty set; `p` is clamped into `[0, 100]`.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.max(1) - 1]
}

/// Mutable per-tenant accounting, owned by whichever worker currently
/// holds the tenant (so no atomics are needed). The watchdog's own
/// counters (checks, violations, back-offs, promotions) live in the
/// tenant's [`paraprox_runtime::Deployment`].
#[derive(Debug)]
pub(crate) struct TenantStats {
    /// Streaming estimate over calibration-check qualities.
    pub quality: QualityStream,
    /// Requests served (including failed ones).
    pub served: u64,
    /// Requests that failed with an execution error.
    pub errors: u64,
    /// Total simulated device cycles spent serving.
    pub cycles: u64,
    /// Dispatches: each time a worker claimed this tenant and served a
    /// coalesced run of its requests (a batch of 1 under a unit window).
    pub batches: u64,
    /// Largest batch served in one dispatch.
    pub peak_batch: u64,
    /// Per-request time spent waiting for a worker, nanoseconds.
    pub queue_ns: Vec<u64>,
    /// Per-request execution time, nanoseconds.
    pub service_ns: Vec<u64>,
}

impl TenantStats {
    /// Fresh accounting with the given streaming-quality estimator.
    pub fn new(quality: QualityStream) -> TenantStats {
        TenantStats {
            quality,
            served: 0,
            errors: 0,
            cycles: 0,
            batches: 0,
            peak_batch: 0,
            queue_ns: Vec::new(),
            service_ns: Vec::new(),
        }
    }
}

/// An immutable point-in-time summary of one tenant, as returned by
/// [`crate::Engine::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSnapshot {
    /// Tenant name as registered.
    pub name: String,
    /// Requests served so far.
    pub served: u64,
    /// Requests that failed with an execution error.
    pub errors: u64,
    /// Calibration checks performed (including shadow probes).
    pub checks: u64,
    /// Checks that violated the TOQ.
    pub violations: u64,
    /// Back-offs taken down the ladder.
    pub backoffs: u64,
    /// Re-promotions up the ladder.
    pub promotions: u64,
    /// The rung currently served ("v3" or "exact").
    pub rung: String,
    /// Position in the back-off ladder (0 = most aggressive).
    pub position: usize,
    /// Ladder position the tenant *started* at: 0 unless its tune report
    /// carried a static error-propagation table that disqualified the
    /// leading rungs for the engine's TOQ (see
    /// [`paraprox_runtime::Deployment::seeded_position`]).
    pub seeded_position: usize,
    /// Ladder length including the terminal exact rung.
    pub ladder_len: usize,
    /// Mean calibration quality, if any check has run.
    pub mean_quality: Option<f64>,
    /// Minimum calibration quality, if any check has run.
    pub min_quality: Option<f64>,
    /// Smoothed (EWMA) calibration quality, if any check has run.
    pub ewma_quality: Option<f64>,
    /// Total simulated device cycles spent serving.
    pub cycles: u64,
    /// Dispatches (coalesced batches, including batches of one).
    pub batches: u64,
    /// Largest batch served in one dispatch.
    pub peak_batch: u64,
    /// Deepest the tenant's request FIFO has been.
    pub peak_queue_depth: usize,
    /// Bytecode operations the tenant's executor dispatched (0 for
    /// backends that do not track them).
    pub ops_dispatched: u64,
    /// Fused superinstructions the tenant's executor hit.
    pub fusions_hit: u64,
    /// Median queue wait, nanoseconds.
    pub queue_p50_ns: u64,
    /// 99th-percentile queue wait, nanoseconds.
    pub queue_p99_ns: u64,
    /// Median service time, nanoseconds.
    pub service_p50_ns: u64,
    /// 99th-percentile service time, nanoseconds.
    pub service_p99_ns: u64,
}

impl TenantSnapshot {
    /// Mean batch occupancy: requests served per dispatch (1.0 under a
    /// unit batch window, up to the window under saturation).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.served as f64 / self.batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let ns: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&ns, 50.0), 50);
        assert_eq!(percentile(&ns, 99.0), 99);
        assert_eq!(percentile(&ns, 100.0), 100);
        assert_eq!(percentile(&ns, 0.0), 1);
        // Unsorted input and duplicates.
        assert_eq!(percentile(&[7, 3, 3, 9], 50.0), 3);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[42], 99.0), 42);
    }

    #[test]
    fn percentile_single_sample_is_that_sample_at_every_rank() {
        // n = 1: nearest rank is 1 for every p, including the p = 0 and
        // p = 100 extremes.
        for p in [0.0, 0.1, 50.0, 99.9, 100.0] {
            assert_eq!(percentile(&[42], p), 42, "p = {p}");
        }
    }

    #[test]
    fn percentile_all_ties_collapse_to_the_tied_value() {
        let ties = [7u64; 64];
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&ties, p), 7, "p = {p}");
        }
    }

    #[test]
    fn percentile_extremes_are_min_and_max() {
        let ns: Vec<u64> = (1..=10).rev().collect();
        assert_eq!(percentile(&ns, 0.0), 1, "p0 is the minimum");
        assert_eq!(percentile(&ns, 100.0), 10, "p100 is the maximum");
        // Out-of-range p clamps rather than panicking or extrapolating.
        assert_eq!(percentile(&ns, -5.0), 1);
        assert_eq!(percentile(&ns, 250.0), 10);
    }

    #[test]
    fn percentile_fractional_ranks_round_up() {
        // Nearest-rank uses ceil: with 10 samples, p = 0.1 already selects
        // rank 1 and p = 90.1 selects rank 10.
        let ns: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ns, 0.1), 1);
        assert_eq!(percentile(&ns, 10.0), 1);
        assert_eq!(percentile(&ns, 10.1), 2);
        assert_eq!(percentile(&ns, 90.0), 9);
        assert_eq!(percentile(&ns, 90.1), 10);
        assert_eq!(percentile(&ns, 99.9), 10);
    }

    #[test]
    fn stats_start_empty() {
        let s = TenantStats::new(QualityStream::new(0.25));
        assert_eq!(s.served, 0);
        assert_eq!(s.quality.count(), 0);
        assert!(s.queue_ns.is_empty());
        assert_eq!(s.batches, 0);
        assert_eq!(s.peak_batch, 0);
    }

    #[test]
    fn mean_batch_occupancy() {
        let snap = |served, batches| TenantSnapshot {
            name: "t".into(),
            served,
            errors: 0,
            checks: 0,
            violations: 0,
            backoffs: 0,
            promotions: 0,
            rung: "exact".into(),
            position: 0,
            seeded_position: 0,
            ladder_len: 1,
            mean_quality: None,
            min_quality: None,
            ewma_quality: None,
            cycles: 0,
            batches,
            peak_batch: 0,
            peak_queue_depth: 0,
            ops_dispatched: 0,
            fusions_hit: 0,
            queue_p50_ns: 0,
            queue_p99_ns: 0,
            service_p50_ns: 0,
            service_p99_ns: 0,
        };
        assert_eq!(snap(0, 0).mean_batch(), 0.0, "no dispatches yet");
        assert_eq!(snap(40, 5).mean_batch(), 8.0);
        assert_eq!(snap(20, 20).mean_batch(), 1.0);
    }
}
