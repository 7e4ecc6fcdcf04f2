//! Streaming log-bucketed histograms for duration statistics.
//!
//! The analyzer needs percentiles (Tc p50/p99, per-segment p90, ...) over
//! streams whose length is unknown up front, and the live progress path in
//! the drivers must be able to record into one without allocating. The
//! histogram therefore uses a fixed array of logarithmic buckets — eight per
//! octave, covering 2^-30 s (≈ 1 ns) to 2^34 s (≈ 540 years) — so every
//! `record` is a couple of float ops and an array increment, and any two
//! histograms merge by adding counts.
//!
//! Quantiles are approximate: a value is reported as the geometric midpoint
//! of its bucket, so the relative error is bounded by half the bucket width
//! (2^(1/16) ≈ 4.4%). The property suite in `tests/prop_stats.rs` pins this
//! bound against exact sorted-vector quantiles, including after merges.

/// Sub-buckets per power of two. 8 gives ~9% bucket width (2^(1/8)).
const BUCKETS_PER_OCTAVE: usize = 8;
/// Lowest representable exponent: values below 2^-30 s clamp into bucket 0.
const MIN_EXP: i32 = -30;
/// Octaves covered; values above 2^(MIN_EXP + OCTAVES) clamp into the top.
const OCTAVES: usize = 64;
const N_BUCKETS: usize = OCTAVES * BUCKETS_PER_OCTAVE;

/// A fixed-size streaming histogram over positive durations (seconds).
///
/// Zero and negative values are counted separately (they have no logarithm)
/// and sort below every positive bucket in quantile queries; non-finite
/// values are dropped (and counted in [`LogHistogram::dropped`]).
#[derive(Clone)]
pub struct LogHistogram {
    counts: [u64; N_BUCKETS],
    /// Values ≤ 0.0 (quantile rank treats them as exactly 0).
    zeros: u64,
    dropped: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; N_BUCKETS],
            zeros: 0,
            dropped: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn bucket_index(value: f64) -> usize {
        let idx = ((value.log2() - MIN_EXP as f64) * BUCKETS_PER_OCTAVE as f64).floor();
        if idx < 0.0 {
            0
        } else {
            (idx as usize).min(N_BUCKETS - 1)
        }
    }

    /// Geometric midpoint of a bucket — the representative reported by
    /// quantile queries.
    fn bucket_value(index: usize) -> f64 {
        let lo = MIN_EXP as f64 + index as f64 / BUCKETS_PER_OCTAVE as f64;
        let hi = lo + 1.0 / BUCKETS_PER_OCTAVE as f64;
        ((lo + hi) / 2.0).exp2()
    }

    /// Record one value. No allocation, O(1).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.dropped += 1;
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= 0.0 {
            self.zeros += 1;
        } else {
            self.counts[Self::bucket_index(value)] += 1;
        }
    }

    /// Fold another histogram into this one (exact: bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.dropped += other.dropped;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-finite values rejected by `record`.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean (the sum is tracked outside the buckets). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded value; 0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest recorded value; 0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// The q-quantile (q in [0, 1]) as a bucket-representative value,
    /// clamped to the observed [min, max]. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest-rank: the smallest value with cumulative count ≥ rank.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // The extreme ranks are tracked exactly outside the buckets.
        if rank >= self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        if rank <= self.zeros {
            return 0.0f64.clamp(self.min, self.max);
        }
        let mut seen = self.zeros;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Upper bound on the relative error of a quantile representative for
    /// in-range positive values: half a bucket in log space.
    pub fn relative_error_bound() -> f64 {
        (1.0f64 / (2 * BUCKETS_PER_OCTAVE) as f64).exp2() - 1.0
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl FromIterator<f64> for LogHistogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = LogHistogram::new();
        for v in iter {
            h.record(v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
    }

    #[test]
    fn single_value_quantiles_are_exact() {
        // Clamping to [min, max] makes one-value histograms exact.
        let mut h = LogHistogram::new();
        h.record(13.96);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 13.96, "q={q}");
        }
        assert_eq!(h.mean(), 13.96);
    }

    #[test]
    fn quantiles_within_relative_bound() {
        let values: Vec<f64> = (1..=1000).map(|i| i as f64 * 0.01).collect();
        let h: LogHistogram = values.iter().copied().collect();
        let bound = LogHistogram::relative_error_bound();
        for (q, exact) in [(0.5, 5.0), (0.9, 9.0), (0.99, 9.9)] {
            let got = h.quantile(q);
            assert!(
                (got / exact - 1.0).abs() <= bound + 1e-9,
                "q{q}: got {got}, exact {exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn zeros_sort_below_positives() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(0.0);
        h.record(0.0);
        h.record(5.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn non_finite_values_are_dropped_not_recorded() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(1.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.dropped(), 2);
        assert_eq!(h.quantile(0.5), 1.0);
    }

    #[test]
    fn out_of_range_values_clamp_into_end_buckets() {
        let mut h = LogHistogram::new();
        h.record(1e-30); // below 2^-30
        h.record(1e30); // above 2^34
        assert_eq!(h.count(), 2);
        // Quantiles stay clamped to the observed range.
        assert_eq!(h.quantile(0.0), 1e-30);
        assert_eq!(h.quantile(1.0), 1e30);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut all = LogHistogram::new();
        for i in 0..500 {
            let v = 0.001 * (i as f64 + 1.0) * if i % 2 == 0 { 1.0 } else { 37.5 };
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn mean_is_exact_not_bucketed() {
        let h: LogHistogram = [1.0, 2.0, 4.0].into_iter().collect();
        assert!((h.mean() - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 4.0);
    }
}
