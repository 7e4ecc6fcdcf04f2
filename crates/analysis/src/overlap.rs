//! Energy-distribution overlap between neighbouring ladder rungs — the
//! standard a-priori diagnostic for whether a temperature ladder can
//! exchange at all (acceptance tracks the overlap of the potential-energy
//! histograms of adjacent replicas).

/// Histogram-overlap coefficient of two samples over a common binning:
/// `sum_b min(p_b, q_b)` in [0, 1]. 1 = identical distributions,
/// 0 = disjoint.
pub fn histogram_overlap(a: &[f64], b: &[f64], bins: usize) -> f64 {
    assert!(bins >= 2);
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let lo = a.iter().chain(b).copied().fold(f64::INFINITY, f64::min);
    let hi = a.iter().chain(b).copied().fold(f64::NEG_INFINITY, f64::max);
    // `!(hi > lo)`, spelled so that an incomparable pair visibly lands here too.
    if hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
        return 1.0; // all samples identical
    }
    let width = (hi - lo) / bins as f64;
    let bin_of = |x: f64| (((x - lo) / width) as usize).min(bins - 1);
    let mut pa = vec![0.0f64; bins];
    let mut pb = vec![0.0f64; bins];
    for &x in a {
        pa[bin_of(x)] += 1.0 / a.len() as f64;
    }
    for &x in b {
        pb[bin_of(x)] += 1.0 / b.len() as f64;
    }
    pa.iter().zip(&pb).map(|(p, q)| p.min(*q)).sum()
}

/// Per-pair overlap along a ladder of energy sample sets.
pub fn ladder_overlaps(energy_samples: &[Vec<f64>], bins: usize) -> Vec<f64> {
    energy_samples.windows(2).map(|w| histogram_overlap(&w[0], &w[1], bins)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::Rng;

    fn gaussian_sample(mean: f64, sd: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = Rng::seed(seed);
        (0..n).map(|_| mean + sd * rng.normal()).collect()
    }

    #[test]
    fn identical_distributions_overlap_near_one() {
        let a = gaussian_sample(0.0, 1.0, 20_000, 1);
        let b = gaussian_sample(0.0, 1.0, 20_000, 2);
        let o = histogram_overlap(&a, &b, 40);
        assert!(o > 0.93, "overlap {o}");
    }

    #[test]
    fn disjoint_distributions_overlap_near_zero() {
        let a = gaussian_sample(0.0, 0.5, 10_000, 1);
        let b = gaussian_sample(100.0, 0.5, 10_000, 2);
        let o = histogram_overlap(&a, &b, 50);
        assert!(o < 0.01, "overlap {o}");
    }

    #[test]
    fn overlap_decreases_with_separation() {
        let a = gaussian_sample(0.0, 1.0, 20_000, 1);
        let mut prev = 1.0;
        for sep in [0.5, 1.0, 2.0, 4.0] {
            let b = gaussian_sample(sep, 1.0, 20_000, 7);
            let o = histogram_overlap(&a, &b, 40);
            assert!(o < prev + 0.02, "monotone-ish decline at sep {sep}: {o} vs {prev}");
            prev = o;
        }
        assert!(prev < 0.2, "4-sigma separation overlaps little: {prev}");
    }

    #[test]
    fn ladder_overlap_shape() {
        // Three rungs: close pair then far pair.
        let samples = vec![
            gaussian_sample(0.0, 1.0, 5000, 1),
            gaussian_sample(0.8, 1.0, 5000, 2),
            gaussian_sample(6.0, 1.0, 5000, 3),
        ];
        let o = ladder_overlaps(&samples, 30);
        assert_eq!(o.len(), 2);
        assert!(o[0] > 0.4, "close pair overlaps: {o:?}");
        assert!(o[1] < 0.05, "far pair barely overlaps: {o:?}");
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(histogram_overlap(&[], &[1.0], 10), 0.0);
        assert_eq!(histogram_overlap(&[2.0, 2.0], &[2.0], 10), 1.0);
    }
}
