//! L4xx — temperature-ladder acceptance prediction.
//!
//! Exchange acceptance between adjacent temperature rungs tracks the
//! overlap of their potential-energy distributions. In the canonical
//! ensemble those are approximately Gaussian with mean `C_v·T` and width
//! `T·sqrt(k_B·C_v)` (equipartition; `C_v = (ndof/2)·k_B`), so the
//! overlap — and therefore whether a ladder can exchange *at all* — is
//! predictable from the workload's atom count and the rung spacing alone.
//! Width shrinks like `1/sqrt(atoms)` relative to the mean, which is why
//! ladders that work for a vacuum dipeptide starve for a solvated system.

use crate::plan::predict_ladders;
use crate::{PlanCtx, OVERLAP_BINS, SAMPLES_PER_RUNG};
use obs::{Diagnostic, ACCEPTANCE_BAND};
use repex::config::Workload;

/// Boltzmann constant in kcal/(mol·K) (matches `mdsim::units`).
const KB: f64 = 0.0019872;

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9 — far below histogram resolution).
pub fn probit(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    #[allow(clippy::excessive_precision)] // the coefficients as published
    const A: [f64; 6] = [
        -3.969683028665376e1,
        2.209460984245205e2,
        -2.759285104469687e2,
        1.383577518672690e2,
        -3.066479806614716e1,
        2.506628277459239e0,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e1,
        1.615858368580409e2,
        -1.556989798598866e2,
        6.680131188771972e1,
        -1.328068155288572e1,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-3,
        -3.223964580411365e-1,
        -2.400758277161838e0,
        -2.549732539343734e0,
        4.374664141464968e0,
        2.938163982698783e0,
    ];
    const D: [f64; 4] =
        [7.784695709041462e-3, 3.224671290700398e-1, 2.445134137142996e0, 3.754408661907416e0];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Deterministic quantile sample of the predicted potential-energy
/// distribution at temperature `t` for heat capacity `cv` (kcal/mol/K).
pub fn energy_samples(t: f64, cv: f64, n: usize) -> Vec<f64> {
    let mu = cv * t;
    let sd = t * (KB * cv).sqrt();
    (1..=n).map(|i| mu + sd * probit(i as f64 / (n + 1) as f64)).collect()
}

/// Predicted adjacent-pair acceptance proxies (energy-histogram overlaps)
/// for an explicit temperature ladder over a workload of `atoms` atoms:
/// the model behind [`crate::plan::predict_ladders`], which the L401/L402
/// rules and the campaign planner both read.
pub fn predicted_overlaps(temps: &[f64], atoms: usize) -> Vec<f64> {
    let cv = 0.5 * (3 * atoms) as f64 * KB;
    let samples: Vec<Vec<f64>> =
        temps.iter().map(|&t| energy_samples(t, cv, SAMPLES_PER_RUNG)).collect();
    analysis::overlap::ladder_overlaps(&samples, OVERLAP_BINS)
}

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    let (min, max) = (*ACCEPTANCE_BAND.start(), *ACCEPTANCE_BAND.end());
    // Physics atoms, NOT cost-atoms: the cost override only rescales the
    // performance model, while acceptance is set by the system actually
    // integrated.
    let atoms = ctx.cfg.workload.clone().unwrap_or(Workload::DipeptideVacuum).real_atoms();
    // The cycle time only scales the round-trip seconds, unused here.
    for ladder in predict_ladders(ctx.cfg, ctx.grid, 0.0) {
        let overlaps = &ladder.pair_acceptance;
        if overlaps.is_empty() {
            continue;
        }
        let d = ladder.dim;
        let temps: Vec<f64> =
            ctx.grid.dims[d].ladder.iter().map(exchange::param::ExchangeParam::scalar).collect();
        let mut all_dense = true;
        for (i, &o) in overlaps.iter().enumerate() {
            if o < min {
                all_dense = false;
                out.push(
                    Diagnostic::warning(
                        "L401",
                        format!(
                            "predicted acceptance between rungs {i} ({:.1} K) and {} ({:.1} K) \
                             is ≈{o:.3} (< {min}): the {atoms}-atom workload's energy \
                             distributions barely overlap at that spacing",
                            temps[i],
                            i + 1,
                            temps[i + 1],
                        ),
                    )
                    .with_path(format!("/dimensions/{d}"))
                    .with_hint(format!(
                        "add rungs between {:.0} and {:.0} K (or run the ladder optimizer)",
                        temps[i],
                        temps[i + 1],
                    )),
                );
            } else if o <= max {
                all_dense = false;
            }
        }
        if all_dense && temps.len() > 2 {
            out.push(
                Diagnostic::info(
                    "L402",
                    format!(
                        "every adjacent pair of the {}-rung ladder overlaps above {max}: fewer \
                         rungs would reach the same round-trip rate with less compute",
                        temps.len(),
                    ),
                )
                .with_path(format!("/dimensions/{d}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_config;
    use crate::tests::codes;
    use repex::config::{DimensionConfig, SimulationConfig, Workload};

    #[test]
    fn probit_matches_reference_quantiles() {
        assert!((probit(0.975) - 1.959964).abs() < 1e-5);
        assert!((probit(0.5)).abs() < 1e-12);
        assert!((probit(0.025) + 1.959964).abs() < 1e-5);
        assert!((probit(0.001) + 3.090232).abs() < 1e-4);
    }

    #[test]
    fn predicted_width_shrinks_relative_to_mean_with_atoms() {
        let rel = |atoms: usize| {
            let cv = 0.5 * (3 * atoms) as f64 * KB;
            let s = energy_samples(300.0, cv, 99);
            (s[98] - s[0]) / s[49]
        };
        assert!(rel(30_000) < rel(30) / 10.0, "width must shrink like 1/sqrt(atoms)");
    }

    #[test]
    fn sparse_ladder_on_solvated_system_warns_every_pair() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.workload = Some(Workload::DipeptideSolvated { atoms: 30_000 });
        cfg.dimensions =
            vec![DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 }];
        let diags = lint_config(&cfg);
        let n401 = diags.iter().filter(|d| d.code == "L401").count();
        assert_eq!(n401, 3, "all 3 adjacent pairs starve: {diags:?}");
    }

    #[test]
    fn overdense_ladder_is_merely_informational() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 2);
        // 8 rungs across half a kelvin: adjacent distributions are
        // indistinguishable, so every pair exchanges near-certainly.
        cfg.dimensions =
            vec![DimensionConfig::Temperature { min_k: 300.0, max_k: 300.5, count: 8 }];
        let diags = lint_config(&cfg);
        assert!(!codes(&diags).contains(&"L401"), "{diags:?}");
        assert!(codes(&diags).contains(&"L402"), "{diags:?}");
    }

    #[test]
    fn cost_atoms_do_not_change_the_physics_prediction() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 2);
        cfg.cost_atoms = Some(5_000_000); // perf-model override only
        let diags = lint_config(&cfg);
        assert!(!codes(&diags).contains(&"L401"), "{diags:?}");
    }
}
