//! Time-series statistics for simulation observables: means with
//! block-averaged error bars, integrated autocorrelation times, and
//! round-trip-time summaries — the standard toolkit for judging whether an
//! REMD run is converged and how efficiently the ladder mixes.

/// Arithmetic mean (NaN for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (NaN for < 2 points).
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return f64::NAN;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Block averaging: split the series into `n_blocks` contiguous blocks and
/// return (mean, standard error of the block means). The standard error is
/// honest in the presence of autocorrelation as long as blocks are longer
/// than the correlation time.
pub fn block_average(xs: &[f64], n_blocks: usize) -> (f64, f64) {
    assert!(n_blocks >= 2, "need at least 2 blocks");
    if xs.len() < n_blocks {
        return (mean(xs), f64::NAN);
    }
    let block_len = xs.len() / n_blocks;
    let block_means: Vec<f64> =
        (0..n_blocks).map(|b| mean(&xs[b * block_len..(b + 1) * block_len])).collect();
    let m = mean(&block_means);
    let se = (variance(&block_means) / n_blocks as f64).sqrt();
    (m, se)
}

/// Normalized autocorrelation function at lag `k`.
pub fn autocorrelation(xs: &[f64], k: usize) -> f64 {
    if xs.len() < 2 || k >= xs.len() {
        return f64::NAN;
    }
    let m = mean(xs);
    let denom: f64 = xs.iter().map(|x| (x - m) * (x - m)).sum();
    if denom <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    let num: f64 = (0..xs.len() - k).map(|i| (xs[i] - m) * (xs[i + k] - m)).sum();
    num / denom
}

/// Integrated autocorrelation time `tau = 1 + 2 Σ ρ(k)`, summed until the
/// first non-positive correlation (the standard initial-positive-sequence
/// truncation). `tau ≈ 1` for white noise; larger for sticky series.
pub fn integrated_autocorrelation_time(xs: &[f64]) -> f64 {
    if xs.len() < 4 {
        return f64::NAN;
    }
    let mut tau = 1.0;
    for k in 1..xs.len() / 2 {
        let rho = autocorrelation(xs, k);
        if !rho.is_finite() || rho <= 0.0 {
            break;
        }
        tau += 2.0 * rho;
    }
    tau
}

/// Effective number of independent samples `n / tau`.
pub fn effective_samples(xs: &[f64]) -> f64 {
    let tau = integrated_autocorrelation_time(xs);
    if tau.is_finite() && tau > 0.0 {
        xs.len() as f64 / tau
    } else {
        f64::NAN
    }
}

/// Summary of ladder round-trip times (in cycles): count, mean, min, max.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundTripSummary {
    pub count: usize,
    pub mean_cycles: f64,
    pub min_cycles: u64,
    pub max_cycles: u64,
}

/// Compute round-trip times from a replica's per-cycle rung trajectory on a
/// ladder of `ladder_len` rungs: the number of cycles between successive
/// completions of bottom→top→bottom (or top→bottom→top) excursions.
pub fn round_trip_times(rungs: &[usize], ladder_len: usize) -> Option<RoundTripSummary> {
    assert!(ladder_len >= 2);
    let top = ladder_len - 1;
    let mut last_end: Option<usize> = None; // 0 = bottom, 1 = top
    let mut half_trip_marks: Vec<usize> = Vec::new();
    for (cycle, &r) in rungs.iter().enumerate() {
        let end = if r == 0 {
            Some(0)
        } else if r == top {
            Some(1)
        } else {
            None
        };
        if let Some(e) = end {
            if let Some(prev) = last_end {
                if prev != e {
                    half_trip_marks.push(cycle);
                }
            } else {
                half_trip_marks.push(cycle); // first endpoint visit
            }
            last_end = Some(e);
        }
    }
    // A round trip spans two half-trips: marks[i] -> marks[i+2].
    if half_trip_marks.len() < 3 {
        return None;
    }
    let times: Vec<u64> = half_trip_marks.windows(3).map(|w| (w[2] - w[0]) as u64).collect();
    Some(RoundTripSummary {
        count: times.len(),
        mean_cycles: times.iter().map(|&t| t as f64).sum::<f64>() / times.len() as f64,
        min_cycles: times.iter().copied().min().unwrap_or(0),
        max_cycles: times.iter().copied().max().unwrap_or(0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!(mean(&[]).is_nan());
        assert!(variance(&[1.0]).is_nan());
    }

    #[test]
    fn block_average_recovers_mean_and_sane_error() {
        let mut rng = Rng::seed(1);
        let xs: Vec<f64> = (0..10_000).map(|_| 5.0 + rng.f64() - 0.5).collect();
        let (m, se) = block_average(&xs, 10);
        assert!((m - 5.0).abs() < 0.02);
        // White noise with sd ~0.29 over 10k points: se ~ 0.003.
        assert!(se > 0.0005 && se < 0.01, "se = {se}");
    }

    #[test]
    fn autocorrelation_of_white_noise_is_small() {
        let mut rng = Rng::seed(2);
        let xs: Vec<f64> = (0..5000).map(|_| rng.f64()).collect();
        assert!((autocorrelation(&xs, 0) - 1.0).abs() < 1e-12);
        assert!(autocorrelation(&xs, 1).abs() < 0.05);
        let tau = integrated_autocorrelation_time(&xs);
        assert!(tau < 1.3, "white noise tau ≈ 1: {tau}");
        assert!(effective_samples(&xs) > 3500.0);
    }

    #[test]
    fn ar1_series_has_predictable_tau() {
        // AR(1) with phi = 0.9: rho(k) = 0.9^k, tau = (1+phi)/(1-phi) = 19.
        let mut rng = Rng::seed(3);
        let phi = 0.9f64;
        let mut x = 0.0;
        let xs: Vec<f64> = (0..200_000)
            .map(|_| {
                x = phi * x + rng.f64() - 0.5;
                x
            })
            .collect();
        let tau = integrated_autocorrelation_time(&xs);
        assert!((tau - 19.0).abs() < 4.0, "tau = {tau}");
    }

    #[test]
    fn round_trip_times_on_a_deterministic_walk() {
        // Ballistic walk 0..4..0..4: round trips every 8 cycles.
        let ladder = 5;
        let mut rungs = Vec::new();
        for _ in 0..4 {
            rungs.extend(0..ladder); // up: 0 1 2 3 4
            rungs.extend((1..ladder - 1).rev()); // down: 3 2 1 (next loop re-adds 0)
        }
        let summary = round_trip_times(&rungs, ladder).unwrap();
        assert!(summary.count >= 5);
        assert!((summary.mean_cycles - 8.0).abs() < 1e-9, "{summary:?}");
        assert_eq!(summary.min_cycles, 8);
        assert_eq!(summary.max_cycles, 8);
    }

    #[test]
    fn no_round_trip_when_stuck() {
        assert!(round_trip_times(&[1, 2, 1, 2, 1], 4).is_none());
        assert!(round_trip_times(&[0, 0, 0], 4).is_none());
        // One half trip is not enough either.
        assert!(round_trip_times(&[0, 1, 2, 3], 4).is_none());
    }
}
