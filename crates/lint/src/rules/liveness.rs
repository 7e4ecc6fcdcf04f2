//! L3xx — asynchronous-pattern liveness.
//!
//! The asynchronous pattern exchanges on a fixed real-time tick
//! (`tick-fraction × MD segment time`, Section 4.6) among whichever
//! replicas are ready — optionally gated on a minimum ready-window
//! (`async-min-ready`). Both knobs can be set so that no exchange ever
//! fires: a tick longer than the whole run, or a window larger than the
//! replica count. Those plans run to completion but sample like
//! `no-exchange`, which is starvation the linter can prove up front.

use crate::PlanCtx;
use obs::Diagnostic;
use repex::config::Pattern;

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    let Pattern::Asynchronous { tick_fraction } = ctx.cfg.pattern else {
        return;
    };
    // Ticks the virtual clock crosses over the whole run: each replica runs
    // n-cycles segments of md_secs, so the run spans ≈ n-cycles × md_secs
    // (Mode I; waves only lengthen it, which adds ticks).
    let expected_ticks = ctx.cfg.n_cycles as f64 / tick_fraction;
    if !ctx.cfg.no_exchange {
        if expected_ticks < 1.0 {
            out.push(
                Diagnostic::error(
                    "L301",
                    format!(
                        "the exchange tick ({:.0} s = tick-fraction {tick_fraction} × {:.0} s \
                         segments) is longer than the whole run (≈{:.0} s): no exchange ever \
                         fires and replicas never mix",
                        tick_fraction * ctx.md_secs,
                        ctx.md_secs,
                        ctx.cfg.n_cycles as f64 * ctx.md_secs,
                    ),
                )
                .with_path("/pattern/tick-fraction")
                .with_hint(format!("use tick-fraction < n-cycles ({})", ctx.cfg.n_cycles)),
            );
        } else if expected_ticks < 2.0 {
            out.push(
                Diagnostic::warning(
                    "L302",
                    format!(
                        "only ≈{expected_ticks:.1} exchange rounds fit in the run; the sampling \
                         benefit of replica exchange is marginal at fewer than 2",
                    ),
                )
                .with_path("/pattern/tick-fraction"),
            );
        }
    }
    if let Some(m) = ctx.cfg.async_min_ready {
        if m > ctx.n {
            out.push(
                Diagnostic::error(
                    "L303",
                    format!(
                        "async-min-ready = {m} exceeds the replica count {}: the ready window \
                         can never fill, so no exchange round ever flushes",
                        ctx.n,
                    ),
                )
                .with_path("/async-min-ready")
                .with_hint(format!("set async-min-ready ≤ {}", ctx.n)),
            );
        } else if m == ctx.n && ctx.n > 1 {
            out.push(
                Diagnostic::warning(
                    "L304",
                    format!(
                        "async-min-ready equals the replica count ({m}): every tick waits for \
                         all replicas, degenerating the asynchronous pattern into a barrier",
                    ),
                )
                .with_path("/async-min-ready"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_config;
    use crate::tests::codes;
    use obs::Severity;
    use repex::config::{Pattern, SimulationConfig};

    fn async_cfg(tick_fraction: f64, cycles: u64) -> SimulationConfig {
        let mut cfg = SimulationConfig::t_remd(8, 600, cycles);
        cfg.pattern = Pattern::Asynchronous { tick_fraction };
        cfg
    }

    #[test]
    fn tick_longer_than_run_is_guaranteed_starvation() {
        let diags = lint_config(&async_cfg(5.0, 2));
        let l301 = diags.iter().find(|d| d.code == "L301");
        assert!(l301.is_some_and(|d| d.severity == Severity::Error), "{diags:?}");
    }

    #[test]
    fn marginal_round_count_warns() {
        let diags = lint_config(&async_cfg(1.5, 2));
        assert!(codes(&diags).contains(&"L302"), "{diags:?}");
        assert!(!codes(&diags).contains(&"L301"));
    }

    #[test]
    fn unsatisfiable_ready_window_is_an_error() {
        let mut cfg = async_cfg(0.25, 3);
        cfg.async_min_ready = Some(10); // only 8 replicas exist
        let diags = lint_config(&cfg);
        let l303 = diags.iter().find(|d| d.code == "L303");
        assert!(l303.is_some_and(|d| d.severity == Severity::Error), "{diags:?}");
    }

    #[test]
    fn barrier_sized_window_warns() {
        let mut cfg = async_cfg(0.25, 3);
        cfg.async_min_ready = Some(8);
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"L304"), "{diags:?}");
    }

    #[test]
    fn healthy_async_plan_is_quiet() {
        let diags = lint_config(&async_cfg(0.25, 3));
        assert!(!diags.iter().any(|d| d.code.starts_with("L3")), "{diags:?}");
    }
}
