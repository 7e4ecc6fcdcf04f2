//! Adaptive temperature-ladder optimization.
//!
//! The paper argues that decoupling the RE algorithm from the engine "lowers
//! the barrier for development and testing of new REMD algorithms". This
//! module is exactly such an algorithm: iteratively re-space a temperature
//! ladder so every neighbouring pair accepts at (roughly) the same target
//! rate — the textbook recipe for efficient ladder traversal, normally
//! painful to implement inside an MD engine.
//!
//! Method: acceptance between neighbouring rungs falls off with the spacing
//! in `ln T`. Given measured per-pair acceptances `a_i` and a target `a*`,
//! each log-gap is scaled by `sqrt(ln a_i / ln a*)` (the Gaussian-overlap
//! approximation: -ln a grows quadratically with the gap), then the ladder
//! is renormalized to keep its endpoints fixed.

use crate::param::{Dimension, ExchangeParam};
use crate::stats::AcceptanceStats;

/// Per-neighbour-pair acceptance measurement.
#[derive(Debug, Clone, Default)]
pub struct PairAcceptance {
    /// `stats[i]` covers the (i, i+1) pair.
    pub stats: Vec<AcceptanceStats>,
}

impl PairAcceptance {
    pub fn new(n_rungs: usize) -> Self {
        PairAcceptance { stats: vec![AcceptanceStats::default(); n_rungs.saturating_sub(1)] }
    }

    /// Record an attempt between rungs `lo` and `lo + 1`.
    pub fn record(&mut self, lo: usize, accepted: bool) {
        self.stats[lo].record(accepted);
    }
}

/// One optimization step: returns the re-spaced temperature ladder.
///
/// Pairs with no attempts keep their current spacing; acceptances are
/// clamped into `[0.01, 0.99]` so degenerate measurements cannot collapse or
/// explode a gap. Endpoints are preserved exactly.
pub fn respace_temperature_ladder(
    temps: &[f64],
    pairs: &PairAcceptance,
    target_acceptance: f64,
) -> Result<Vec<f64>, String> {
    if temps.len() < 3 {
        return Err("need at least 3 rungs to re-space".into());
    }
    if pairs.stats.len() != temps.len() - 1 {
        return Err(format!("{} pair measurements for {} rungs", pairs.stats.len(), temps.len()));
    }
    if !(0.01..=0.99).contains(&target_acceptance) {
        return Err("target acceptance must be in [0.01, 0.99]".into());
    }
    if temps.windows(2).any(|w| w[1] <= w[0]) || temps[0] <= 0.0 {
        return Err("temperatures must be positive and strictly increasing".into());
    }
    let ln_target = target_acceptance.ln();
    // Scale each log-gap.
    let mut gaps: Vec<f64> = temps.windows(2).map(|w| (w[1] / w[0]).ln()).collect();
    for (gap, stat) in gaps.iter_mut().zip(&pairs.stats) {
        if stat.attempts == 0 {
            continue;
        }
        let a = stat.ratio().clamp(0.01, 0.99);
        // -ln a ∝ gap² ⇒ gap_new = gap * sqrt(ln a* / ln a).
        *gap *= (ln_target / a.ln()).sqrt();
    }
    // Renormalize so the ladder still spans [T_min, T_max].
    let total: f64 = gaps.iter().sum();
    let span = (temps[temps.len() - 1] / temps[0]).ln();
    let scale = span / total;
    let mut out = Vec::with_capacity(temps.len());
    let mut ln_t = temps[0].ln();
    out.push(temps[0]);
    for gap in &gaps[..gaps.len() - 1] {
        ln_t += gap * scale;
        out.push(ln_t.exp());
    }
    out.push(temps[temps.len() - 1]);
    Ok(out)
}

/// Convenience: re-space a [`Dimension`] of temperatures in place.
pub fn respace_dimension(
    dim: &Dimension,
    pairs: &PairAcceptance,
    target_acceptance: f64,
) -> Result<Dimension, String> {
    let temps: Vec<f64> = dim
        .ladder
        .iter()
        .map(|p| match p {
            ExchangeParam::Temperature(t) => Ok(*t),
            other => Err(format!("not a temperature rung: {:?}", other.letter())),
        })
        .collect::<Result<_, _>>()?;
    let new = respace_temperature_ladder(&temps, pairs, target_acceptance)?;
    Ok(Dimension {
        name: dim.name.clone(),
        ladder: new.into_iter().map(ExchangeParam::Temperature).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metropolis::acceptance_probability;

    /// Synthetic acceptance model: a = exp(-(c·gap)²) for gap in ln T — the
    /// same Gaussian-overlap form the optimizer assumes, so a fixed point
    /// must equalize acceptances exactly.
    fn synthetic_acceptance(t_lo: f64, t_hi: f64, c: f64) -> f64 {
        let gap = (t_hi / t_lo).ln();
        (-(c * gap).powi(2)).exp()
    }

    fn measure(temps: &[f64], c: f64, attempts: u64) -> PairAcceptance {
        let mut pa = PairAcceptance::new(temps.len());
        for i in 0..temps.len() - 1 {
            let a = synthetic_acceptance(temps[i], temps[i + 1], c);
            pa.stats[i] =
                AcceptanceStats { attempts, accepted: (a * attempts as f64).round() as u64 };
        }
        pa
    }

    #[test]
    fn endpoints_are_preserved() {
        let temps = vec![273.0, 290.0, 330.0, 373.0];
        let pairs = measure(&temps, 8.0, 10_000);
        let new = respace_temperature_ladder(&temps, &pairs, 0.3).unwrap();
        assert_eq!(new.len(), 4);
        assert!((new[0] - 273.0).abs() < 1e-9);
        assert!((new[3] - 373.0).abs() < 1e-9);
        assert!(new.windows(2).all(|w| w[1] > w[0]), "still increasing: {new:?}");
    }

    #[test]
    fn iteration_equalizes_acceptance() {
        // Deliberately lopsided start: a huge first gap, tiny others.
        let mut temps = vec![273.0, 350.0, 360.0, 366.0, 373.0];
        let c = 10.0;
        for _ in 0..20 {
            let pairs = measure(&temps, c, 1_000_000);
            temps = respace_temperature_ladder(&temps, &pairs, 0.4).unwrap();
        }
        let accs: Vec<f64> =
            temps.windows(2).map(|w| synthetic_acceptance(w[0], w[1], c)).collect();
        let spread = accs.iter().copied().fold(f64::MIN, f64::max)
            - accs.iter().copied().fold(f64::MAX, f64::min);
        assert!(spread < 0.02, "acceptances equalized: {accs:?}");
        // And the converged ladder is geometric (equal log-gaps) for this
        // gap-only acceptance model.
        let gaps: Vec<f64> = temps.windows(2).map(|w| (w[1] / w[0]).ln()).collect();
        let g0 = gaps[0];
        assert!(gaps.iter().all(|g| (g - g0).abs() < 0.01 * g0), "{gaps:?}");
    }

    #[test]
    fn unmeasured_pairs_keep_relative_spacing() {
        let temps = vec![300.0, 320.0, 340.0, 360.0];
        let pairs = PairAcceptance::new(4); // no attempts anywhere
        let new = respace_temperature_ladder(&temps, &pairs, 0.3).unwrap();
        for (a, b) in temps.iter().zip(&new) {
            assert!((a - b).abs() < 1e-9, "no data -> no change");
        }
    }

    #[test]
    fn input_validation() {
        let pa = PairAcceptance::new(3);
        assert!(respace_temperature_ladder(&[300.0, 310.0], &pa, 0.3).is_err());
        assert!(respace_temperature_ladder(&[300.0, 310.0, 305.0], &pa, 0.3).is_err());
        assert!(respace_temperature_ladder(&[300.0, 310.0, 320.0], &pa, 1.5).is_err());
        let wrong_len = PairAcceptance::new(10);
        assert!(respace_temperature_ladder(&[300.0, 310.0, 320.0], &wrong_len, 0.3).is_err());
    }

    #[test]
    fn dimension_wrapper_roundtrip() {
        let dim = Dimension::temperature_geometric(273.0, 373.0, 5);
        let mut pa = PairAcceptance::new(5);
        for s in &mut pa.stats {
            *s = AcceptanceStats { attempts: 100, accepted: 50 };
        }
        let new = respace_dimension(&dim, &pa, 0.5).unwrap();
        assert_eq!(new.ladder.len(), 5);
        assert_eq!(new.kind_letter(), 'T');
        // Non-temperature dims are rejected.
        let udim = Dimension::umbrella_uniform("phi", 4, 0.02);
        assert!(respace_dimension(&udim, &PairAcceptance::new(4), 0.5).is_err());
    }

    #[test]
    fn respacing_preserves_monotonicity_and_endpoints() {
        rng::check(256, |rng| {
            let n = rng.range(3usize..12);
            let target = rng.range(0.05..0.95);
            // Random increasing ladder and random measured acceptances.
            let mut temps = vec![250.0 + rng.f64() * 50.0];
            for _ in 1..n {
                let last = *temps.last().unwrap();
                temps.push(last * (1.0 + 0.02 + rng.f64() * 0.4));
            }
            let mut pa = PairAcceptance::new(n);
            for s in &mut pa.stats {
                let attempts = rng.range(0..50u64);
                let accepted = if attempts == 0 { 0 } else { rng.range(0..=attempts) };
                *s = AcceptanceStats { attempts, accepted };
            }
            let new = respace_temperature_ladder(&temps, &pa, target).unwrap();
            assert_eq!(new.len(), temps.len());
            assert!((new[0] - temps[0]).abs() < 1e-9);
            assert!((new[n - 1] - temps[n - 1]).abs() < 1e-9);
            assert!(new.windows(2).all(|w| w[1] > w[0]), "monotone: {:?}", new);
        });
    }

    #[test]
    fn physical_acceptance_sanity() {
        // The real Metropolis acceptance also falls with gap size; verify
        // the optimizer's clamping handles extreme measured values.
        let p = acceptance_probability(1e6);
        assert!(p < 1e-10);
        let temps = vec![250.0, 600.0, 620.0, 900.0];
        let mut pa = PairAcceptance::new(4);
        pa.stats[0] = AcceptanceStats { attempts: 100, accepted: 0 }; // clamped to 0.01
        pa.stats[1] = AcceptanceStats { attempts: 100, accepted: 100 }; // clamped to 0.99
        pa.stats[2] = AcceptanceStats { attempts: 100, accepted: 30 };
        let new = respace_temperature_ladder(&temps, &pa, 0.3).unwrap();
        assert!(new.windows(2).all(|w| w[1] > w[0]));
        // The dead pair's gap must shrink relative to the saturated pair's.
        let g0 = (new[1] / new[0]).ln() / (temps[1] / temps[0]).ln();
        let g1 = (new[2] / new[1]).ln() / (temps[2] / temps[1]).ln();
        assert!(g0 < g1, "zero-acceptance gap shrinks most: {g0} vs {g1}");
    }
}
