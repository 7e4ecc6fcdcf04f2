//! L2xx — S/pH exchange core requirements.
//!
//! S-exchange launches one single-point energy task per replica, each
//! built from an Amber group file that needs as many cores as it
//! evaluates states (the 1-D sub-ladder in M-REMD, the candidate pair in
//! 1-D — Section 4.2). A pilot smaller than that requirement can never
//! schedule the task; a pilot merely *small* pays the Fig. 10 Mode II
//! blow-up. Both are pure functions of the config.

use crate::PlanCtx;
use obs::Diagnostic;

/// Cores one single-point task needs: the whole sub-ladder in M-REMD,
/// just the candidate pair on a 1-D ladder. Mirrors
/// `ExchangeCostModel::salt_wall_seconds`.
fn single_point_cores(group_len: usize, n_replicas: usize) -> usize {
    if group_len >= n_replicas {
        2
    } else {
        group_len.max(2)
    }
}

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    for (d, dim) in ctx.grid.dims.iter().enumerate() {
        let letter = dim.kind_letter();
        if letter != 'S' && letter != 'P' {
            continue;
        }
        let required = single_point_cores(dim.len(), ctx.n);
        let path = format!("/dimensions/{d}");
        if letter == 'S' {
            if ctx.pilot_cores < required {
                out.push(
                    Diagnostic::error(
                        "L201",
                        format!(
                            "S-exchange single-point tasks evaluate {required} states and need \
                             {required} cores each, but the pilot has only {}: the exchange \
                             phase can never be scheduled",
                            ctx.pilot_cores,
                        ),
                    )
                    .with_path(path)
                    .with_hint(format!("raise resource.cores to at least {required}")),
                );
                continue;
            }
            let cpr = ctx.cfg.resource.cores_per_replica;
            let full = ctx.perf.exchange.salt_wall_seconds(ctx.n, ctx.n * cpr, dim.len());
            let actual = ctx.perf.exchange.salt_wall_seconds(ctx.n, ctx.pilot_cores, dim.len());
            if full > 0.0 && actual / full >= crate::SALT_BLOWUP_RATIO {
                out.push(
                    Diagnostic::warning(
                        "L202",
                        format!(
                            "Execution Mode II inflates S-exchange ≈{:.1}x: {actual:.0} s per \
                             cycle on {} cores vs {full:.0} s at a full allocation (the Fig. 10 \
                             regime)",
                            actual / full,
                            ctx.pilot_cores,
                        ),
                    )
                    .with_path("/resource/cores")
                    .with_hint(
                        "S-exchange cost is dominated by single-point task waves; \
                         more cores or a T/U dimension ordering reduce it",
                    ),
                );
            }
        } else if ctx.pilot_cores < required {
            // pH single-point evaluation re-weights already-staged energies,
            // so a tiny pilot serializes it rather than deadlocking.
            out.push(
                Diagnostic::warning(
                    "L203",
                    format!(
                        "pH-exchange evaluates {required} protonation states per task but the \
                         pilot has {} cores: evaluation fully serializes",
                        ctx.pilot_cores,
                    ),
                )
                .with_path(path)
                .with_hint(format!("raise resource.cores to at least {required}")),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_config;
    use crate::tests::codes;
    use obs::Severity;
    use repex::config::{DimensionConfig, SimulationConfig};

    fn with_dims(dims: Vec<DimensionConfig>) -> SimulationConfig {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.dimensions = dims;
        cfg
    }

    #[test]
    fn starved_salt_exchange_is_an_error() {
        let mut cfg = with_dims(vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
            DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
        ]);
        cfg.resource.cores = Some(2); // single-point tasks need 4 cores
        let diags = lint_config(&cfg);
        let l201 = diags.iter().find(|d| d.code == "L201").unwrap_or_else(|| {
            panic!("expected L201 in {diags:?}");
        });
        assert_eq!(l201.severity, Severity::Error);
        assert!(l201.message.contains("4 cores"), "{}", l201.message);
    }

    #[test]
    fn mode_ii_salt_blowup_warns() {
        let mut cfg = with_dims(vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 8 },
            DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 8 },
        ]);
        cfg.resource.cores = Some(8); // 64 replicas on 8 cores
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"L202"), "{diags:?}");
    }

    #[test]
    fn tiny_pilot_ph_exchange_warns_not_errors() {
        let mut cfg = with_dims(vec![DimensionConfig::Ph { min_ph: 4.0, max_ph: 9.0, count: 4 }]);
        cfg.resource.cores = Some(1);
        let diags = lint_config(&cfg);
        let l203 = diags.iter().find(|d| d.code == "L203");
        assert!(l203.is_some_and(|d| d.severity == Severity::Warning), "{diags:?}");
        assert!(!codes(&diags).contains(&"L201"));
    }

    #[test]
    fn full_allocation_salt_is_clean() {
        let cfg = with_dims(vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
            DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
        ]);
        let diags = lint_config(&cfg);
        assert!(!diags.iter().any(|d| d.code.starts_with("L2")), "{diags:?}");
    }
}
