//! L6xx — fault-policy sanity against the configured failure injection.
//!
//! When `fault-mtbf-seconds` is set, every running task fails with
//! probability `1 − exp(−duration/mtbf)`. Whether the chosen
//! `fault-policy` can cope is arithmetic on that rate: `continue` skips
//! the failed replica's exchange (fine at 1 % failure, ensemble-fatal at
//! 90 %), and a `relaunch` retry budget either absorbs the rate or
//! exhausts with predictable probability. A failure-storm scenario is
//! judged at its *worst case* — the policy has to survive the storm
//! windows, not the calm between them.

use crate::{PlanCtx, EXHAUST_PROB_WARN, FAIL_PROB_ERROR, FAIL_PROB_WARN};
use hpc::fault::FaultModel;
use obs::Diagnostic;
use repex::config::FaultPolicy;

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    let base = match ctx.cfg.fault_mtbf_seconds {
        // Invalid values are C044's business; nothing sane to reason about.
        Some(mtbf) => match FaultModel::new(mtbf) {
            Ok(model) => model,
            Err(_) => return,
        },
        None => FaultModel::NONE,
    };
    let worst = match &ctx.cfg.scenario {
        Some(sc) => match sc.hazard(base) {
            Ok(hazard) => hazard.worst_case(),
            Err(_) => return, // C050 already flags the scenario
        },
        None => base,
    };
    if worst.rate() <= 0.0 {
        return; // no injection from either source
    }
    let storm = worst.mtbf_seconds() < base.mtbf_seconds();
    let regime = if storm { " during failure storms" } else { "" };
    let mtbf = worst.mtbf_seconds();
    let p = worst.failure_probability(ctx.md_secs);
    let pct = p * 100.0;
    match ctx.cfg.fault_policy {
        FaultPolicy::Continue => {
            if p >= FAIL_PROB_ERROR {
                out.push(
                    Diagnostic::error(
                        "L601",
                        format!(
                            "each MD segment fails with probability {pct:.0}%{regime} (mtbf \
                             {mtbf} s vs {:.0} s segments); under the continue policy most \
                             replicas sit out most exchanges and the ensemble never equilibrates",
                            ctx.md_secs,
                        ),
                    )
                    .with_path("/fault-policy")
                    .with_hint(
                        "switch to the relaunch policy with a retry budget, or shorten segments",
                    ),
                );
            } else if p >= FAIL_PROB_WARN {
                out.push(
                    Diagnostic::warning(
                        "L601",
                        format!(
                            "{pct:.1}% of MD segments fail{regime} (mtbf {mtbf} s vs {:.0} s \
                             segments) and skip their exchange under the continue policy",
                            ctx.md_secs,
                        ),
                    )
                    .with_path("/fault-policy"),
                );
            }
        }
        FaultPolicy::Relaunch { max_retries } => {
            if max_retries == 0 {
                out.push(
                    Diagnostic::warning(
                        "L602",
                        "relaunch policy with max-retries = 0 never actually relaunches \
                         (equivalent to continue)",
                    )
                    .with_path("/fault-policy/max-retries")
                    .with_hint("set max-retries >= 1"),
                );
                return;
            }
            let p_exhaust = p.powi(max_retries as i32 + 1);
            if p_exhaust > EXHAUST_PROB_WARN && p > 0.0 && p < 1.0 {
                // Attempts needed so p^attempts <= threshold.
                let attempts = (EXHAUST_PROB_WARN.ln() / p.ln()).ceil().max(2.0) as u32;
                out.push(
                    Diagnostic::warning(
                        "L602",
                        format!(
                            "a task exhausts its {max_retries}-retry budget with probability \
                             {:.1}%{regime} (every attempt fails with probability {pct:.0}%)",
                            p_exhaust * 100.0,
                        ),
                    )
                    .with_path("/fault-policy/max-retries")
                    .with_hint(format!(
                        "a budget of {} retries drops exhaustion below {:.0}%",
                        attempts - 1,
                        EXHAUST_PROB_WARN * 100.0,
                    )),
                );
            }
            // Expected relaunches over the whole run: n·cycles·dims MD
            // segments, each retried p/(1-p) times on average.
            let segments = (ctx.n as u64 * ctx.cfg.n_cycles) as f64 * ctx.grid.n_dims() as f64;
            let expected = segments * p / (1.0 - p).max(f64::EPSILON);
            if expected >= 1.0 {
                out.push(
                    Diagnostic::info(
                        "L603",
                        format!(
                            "expect ≈{expected:.0} relaunches over the run ({segments:.0} MD \
                             segments, {pct:.1}% failure per attempt)",
                        ),
                    )
                    .with_path("/fault-mtbf-seconds"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_config;
    use crate::tests::codes;
    use obs::Severity;
    use repex::config::{FaultPolicy, SimulationConfig};

    /// 6000-step sander segments model at 139.6 s each.
    fn faulty(mtbf: f64, policy: FaultPolicy) -> SimulationConfig {
        let mut cfg = SimulationConfig::t_remd(8, 6000, 3);
        cfg.fault_mtbf_seconds = Some(mtbf);
        cfg.fault_policy = policy;
        cfg
    }

    #[test]
    fn continue_policy_at_catastrophic_rate_is_an_error() {
        // p = 1 - exp(-139.6/50) ≈ 0.94
        let diags = lint_config(&faulty(50.0, FaultPolicy::Continue));
        let l601 = diags.iter().find(|d| d.code == "L601");
        assert!(l601.is_some_and(|d| d.severity == Severity::Error), "{diags:?}");
    }

    #[test]
    fn continue_policy_at_modest_rate_warns() {
        // p = 1 - exp(-139.6/2000) ≈ 0.067
        let diags = lint_config(&faulty(2000.0, FaultPolicy::Continue));
        let l601 = diags.iter().find(|d| d.code == "L601");
        assert!(l601.is_some_and(|d| d.severity == Severity::Warning), "{diags:?}");
    }

    #[test]
    fn zero_retry_relaunch_budget_warns() {
        let diags = lint_config(&faulty(2000.0, FaultPolicy::Relaunch { max_retries: 0 }));
        assert!(codes(&diags).contains(&"L602"), "{diags:?}");
    }

    #[test]
    fn underprovisioned_retry_budget_warns_with_suggested_budget() {
        // p ≈ 0.94: even 1 retry exhausts with ~88 % probability.
        let diags = lint_config(&faulty(50.0, FaultPolicy::Relaunch { max_retries: 1 }));
        let c = codes(&diags);
        assert!(c.contains(&"L602"), "{diags:?}");
        assert!(c.contains(&"L603"), "{diags:?}");
    }

    #[test]
    fn rare_failures_with_a_sane_budget_stay_quiet() {
        // p ≈ 0.0014: exhaustion at 3 retries ~ p^4 ≈ 4e-12.
        let diags = lint_config(&faulty(100_000.0, FaultPolicy::Relaunch { max_retries: 3 }));
        assert!(!diags.iter().any(|d| d.code.starts_with("L6")), "{diags:?}");
    }

    #[test]
    fn no_injection_no_findings() {
        let cfg = SimulationConfig::t_remd(8, 6000, 3);
        let diags = lint_config(&cfg);
        assert!(!diags.iter().any(|d| d.code.starts_with("L6")), "{diags:?}");
    }

    #[test]
    fn storm_worst_case_drives_the_fault_lints() {
        // The baseline rate is benign (p ≈ 0.1%) but the storm windows drop
        // the MTBF to 50 s (p ≈ 94%): the policy is judged at the worst case.
        let mut cfg = faulty(100_000.0, FaultPolicy::Continue);
        cfg.scenario = Some(hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 2000.0,
            storm_fraction: 0.25,
        });
        let diags = lint_config(&cfg);
        let l601 = diags.iter().find(|d| d.code == "L601");
        assert!(l601.is_some_and(|d| d.severity == Severity::Error), "{diags:?}");
        assert!(
            l601.is_some_and(|d| d.message.contains("storm")),
            "the finding names the storm regime: {diags:?}"
        );
    }

    #[test]
    fn storm_without_baseline_injection_still_lints() {
        // `fault-mtbf-seconds` unset does not silence the rule when a storm
        // scenario injects failures on its own.
        let mut cfg = SimulationConfig::t_remd(8, 6000, 3);
        cfg.scenario = Some(hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 2000.0,
            storm_fraction: 0.25,
        });
        let diags = lint_config(&cfg);
        assert!(diags.iter().any(|d| d.code == "L601"), "{diags:?}");
    }
}
