//! Property tests pinning `obs::stats::LogHistogram` quantiles to exact
//! sorted-vector quantiles within the documented bucket resolution, for
//! both the direct-record and the merge path.

use obs::LogHistogram;
use rng::Rng;
use std::ops::Range;

/// Exact nearest-rank quantile over a sorted copy of `values`.
fn exact_quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Histogram quantile must sit within one bucket (relative) of the exact
/// nearest-rank answer, and always inside the observed value range.
fn assert_within_resolution(h: &LogHistogram, values: &[f64], q: f64) {
    let got = h.quantile(q);
    let exact = exact_quantile(values, q);
    let bound = LogHistogram::relative_error_bound();
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(got >= lo - 1e-12 && got <= hi + 1e-12, "q{q}: {got} outside [{lo}, {hi}]");
    // The representative may fall one bucket to either side of the exact
    // value when the exact value sits on a bucket edge, so allow a full
    // bucket width (twice the half-bucket representative error).
    let tol = exact * (2.0 * bound) + 1e-12;
    assert!(
        (got - exact).abs() <= tol,
        "q{q}: got {got}, exact {exact}, tol {tol} over {} values",
        values.len()
    );
}

/// `len` (drawn from its range) values, each from `draw`.
fn draws(r: &mut Rng, len: Range<usize>, mut draw: impl FnMut(&mut Rng) -> f64) -> Vec<f64> {
    (0..r.range(len)).map(|_| draw(r)).collect()
}

#[test]
fn quantiles_track_exact_sorted_quantiles() {
    rng::check(128, |r| {
        let values = draws(r, 1..400, |r| r.range(1e-6..1e6));
        let qs = draws(r, 1..8, |r| r.range(0.0..=1.0));
        let h: LogHistogram = values.iter().copied().collect();
        assert_eq!(h.count(), values.len() as u64);
        for q in qs {
            assert_within_resolution(&h, &values, q);
        }
        // min/max/mean are tracked exactly, not bucketed.
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mean = values.iter().sum::<f64>() / values.len() as f64;
        assert_eq!(h.min(), lo);
        assert_eq!(h.max(), hi);
        assert!((h.mean() - mean).abs() <= mean.abs() * 1e-12 + 1e-12);
    });
}

#[test]
fn merged_histogram_matches_single_histogram() {
    rng::check(128, |r| {
        let a = draws(r, 0..200, |r| r.range(1e-6..1e6));
        let b = draws(r, 0..200, |r| r.range(1e-6..1e6));
        let mut merged: LogHistogram = a.iter().copied().collect();
        let hb: LogHistogram = b.iter().copied().collect();
        merged.merge(&hb);
        let combined: LogHistogram = a.iter().chain(b.iter()).copied().collect();
        assert_eq!(merged.count(), combined.count());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), combined.quantile(q), "q={}", q);
        }
        // The merged quantiles also track the exact pooled quantiles.
        let all: Vec<f64> = a.iter().chain(b.iter()).copied().collect();
        if !all.is_empty() {
            for q in [0.1, 0.5, 0.9, 0.99] {
                assert_within_resolution(&merged, &all, q);
            }
        }
    });
}

#[test]
fn zeros_and_subnormals_never_panic() {
    rng::check(128, |r| {
        let values = draws(r, 1..100, |r| match r.below(3) {
            0 => 0.0,
            1 => r.range(1e-40..1e-20),
            _ => r.range(0.001..1000.0),
        });
        let h: LogHistogram = values.iter().copied().collect();
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let v = h.quantile(q);
            assert!(v.is_finite());
            assert!(v >= 0.0);
        }
    });
}
