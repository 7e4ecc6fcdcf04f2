//! Pre-flight static analysis of simulation plans (`repex check`).
//!
//! The linter reasons about a [`SimulationConfig`] *without executing it*:
//! it combines the structural checks of `SimulationConfig::validate_diagnostics`
//! (`C0xx` codes) with plan-level rules (`L1xx`–`L6xx`) that predict
//! schedulability, exchange-core requirements, asynchronous liveness,
//! ladder acceptance, pairing coverage and fault-policy sanity from the
//! same calibrated models (`hpc::perfmodel`, `analysis::overlap`) the
//! virtual cluster charges at run time. A plan that lints clean is not
//! guaranteed to sample well — but a plan that lints dirty is guaranteed
//! to waste its allocation in a predictable way.
//!
//! Rule catalog (see DESIGN.md §9):
//!
//! | family | codes | concern |
//! |--------|-------|---------|
//! | config | C0xx  | structural validity (from `repex::config`) |
//! | L1xx   | L001, L101, L102 | Mode II schedulability / batch imbalance |
//! | L2xx   | L201, L202, L203 | S/pH exchange core requirements |
//! | L3xx   | L301–L304 | asynchronous-pattern liveness |
//! | L4xx   | L401, L402 | temperature-ladder acceptance prediction |
//! | L5xx   | L501–L503 | pairing round-trip coverage |
//! | L6xx   | L601–L603 | fault-policy sanity vs injected MTBF |
//! | P0xx/P1xx | P001, P010, P101–P103 | predictive campaign planning ([`plan`], `repex plan`) |

pub mod plan;
pub mod report;
pub mod rules;

use hpc::perfmodel::PerfModel;
use hpc::ClusterSpec;
use obs::diag::{has_errors, sort_by_severity};
use obs::Diagnostic;
use repex::config::SimulationConfig;

// The plan-level rules' thresholds: the paper's rules of thumb. The
// acceptance band L401 (below) and L402 (above) judge against is
// `obs::ACCEPTANCE_BAND`, the one the live W203 rule uses.

/// Histogram bins of the L4xx energy-overlap estimate.
pub(crate) const OVERLAP_BINS: usize = 40;
/// Deterministic quantile samples drawn per rung for the overlap estimate.
pub(crate) const SAMPLES_PER_RUNG: usize = 512;
/// L101 fires when the last Mode II wave is emptier than this fraction.
pub(crate) const IMBALANCE_THRESHOLD: f64 = 0.5;
/// L202 fires when Mode II inflates S-exchange wall time by this factor
/// over the full-allocation cost (Fig. 10's blow-up).
pub(crate) const SALT_BLOWUP_RATIO: f64 = 3.0;
/// L601 warning and error thresholds on the per-segment failure
/// probability under the `continue` policy.
pub(crate) const FAIL_PROB_WARN: f64 = 0.05;
pub(crate) const FAIL_PROB_ERROR: f64 = 0.5;
/// L602 fires when a task exhausts its retry budget with probability
/// above this.
pub(crate) const EXHAUST_PROB_WARN: f64 = 0.01;

/// Everything the plan-level rules need, derived once from a structurally
/// valid configuration.
pub struct PlanCtx<'a> {
    pub cfg: &'a SimulationConfig,
    pub grid: &'a exchange::multidim::ParamGrid,
    pub cluster: &'a ClusterSpec,
    pub perf: &'a PerfModel,
    /// Total replicas (grid slots).
    pub n: usize,
    /// Resolved pilot core count.
    pub pilot_cores: usize,
    /// Modeled wall seconds of one MD segment.
    pub md_secs: f64,
}

/// Lint a configuration: structural diagnostics first, then — if the plan
/// is structurally sound — the six plan-level rule families. The result is
/// sorted most-severe first.
pub fn lint_config(cfg: &SimulationConfig) -> Vec<Diagnostic> {
    let mut out = cfg.validate_diagnostics();
    if has_errors(&out) {
        // The plan-level context (grid, cluster, cores) may not even build;
        // structural errors must be fixed before prediction makes sense.
        sort_by_severity(&mut out);
        return out;
    }
    let (grid, cluster, pilot_cores) = match (cfg.build_grid(), cfg.cluster(), cfg.pilot_cores()) {
        (Ok(g), Ok(c), Ok(p)) => (g, c, p),
        // Unreachable after a clean validate, but never panic in a linter.
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            out.push(Diagnostic::error("C002", e));
            return out;
        }
    };
    let perf = PerfModel::default();
    let md_secs = cfg.md_segment_seconds(&perf, &cluster);
    let ctx = PlanCtx {
        cfg,
        grid: &grid,
        cluster: &cluster,
        perf: &perf,
        n: grid.n_slots(),
        pilot_cores,
        md_secs,
    };
    rules::schedulability::check(&ctx, &mut out);
    rules::exchange_cores::check(&ctx, &mut out);
    rules::liveness::check(&ctx, &mut out);
    if cfg.no_exchange {
        out.push(
            Diagnostic::info(
                "L503",
                "exchange disabled (no-exchange): ladder-quality rules skipped",
            )
            .with_path("/no-exchange"),
        );
    } else {
        rules::acceptance::check(&ctx, &mut out);
        rules::coverage::check(&ctx, &mut out);
    }
    rules::fault::check(&ctx, &mut out);
    sort_by_severity(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Severity;

    pub(crate) fn codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn default_t_remd_has_no_errors() {
        let cfg = SimulationConfig::t_remd(8, 600, 3);
        let diags = lint_config(&cfg);
        assert!(!has_errors(&diags), "clean plan flagged: {diags:?}");
    }

    #[test]
    fn structural_errors_short_circuit_plan_rules() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 3);
        cfg.steps_per_cycle = 0;
        cfg.resource.cores = Some(3); // would trigger L1xx if rules ran
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"C020"));
        assert!(
            !diags.iter().any(|d| d.code.starts_with('L')),
            "plan rules must not run on a structurally broken config: {diags:?}"
        );
    }

    #[test]
    fn no_exchange_skips_ladder_rules_with_info() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 1);
        cfg.no_exchange = true;
        let diags = lint_config(&cfg);
        let found = codes(&diags);
        assert!(found.contains(&"L503"));
        // What the branch skips: the acceptance (L40x) and coverage (L501/L502) rules.
        assert!(!found.iter().any(|c| ["L401", "L402", "L501", "L502"].contains(c)), "{found:?}");
    }

    #[test]
    fn report_is_sorted_most_severe_first() {
        let mut cfg = SimulationConfig::t_remd(8, 6000, 1); // L501 warning
        cfg.fault_mtbf_seconds = Some(50.0); // L601 error at 139.6 s segments
        let diags = lint_config(&cfg);
        let sevs: Vec<Severity> = diags.iter().map(|d| d.severity).collect();
        let mut sorted = sevs.clone();
        sorted.sort_by(|a, b| b.cmp(a));
        assert_eq!(sevs, sorted, "not sorted: {diags:?}");
        assert_eq!(diags[0].severity, Severity::Error);
    }
}
