//! L1xx — Execution Mode II schedulability and batch imbalance.
//!
//! When the pilot holds fewer cores than `replicas × cores-per-replica`,
//! each cycle's MD phase runs in waves (Section 4.5's Execution Mode II).
//! The wave count is a pure function of the resource section, so the
//! cycle-time blow-up and any wave imbalance can be predicted before
//! spending an allocation.

use crate::PlanCtx;
use obs::Diagnostic;

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    let cpr = ctx.cfg.resource.cores_per_replica;
    if ctx.pilot_cores >= ctx.n * cpr {
        return; // Execution Mode I: every replica runs concurrently.
    }
    // C033 already guarantees pilot_cores >= cpr, so slots >= 1.
    let slots = ctx.pilot_cores / cpr;
    let waves = ctx.n.div_ceil(slots);
    out.push(
        Diagnostic::info(
            "L001",
            format!(
                "Execution Mode II: {} replicas on {} cores run in {waves} waves of {slots}; \
                 predicted MD wall time ≈ {:.0} s per cycle (vs {:.0} s with a full allocation)",
                ctx.n,
                ctx.pilot_cores,
                waves as f64 * ctx.md_secs,
                ctx.md_secs,
            ),
        )
        .with_path("/resource/cores"),
    );
    let last = ctx.n - (waves - 1) * slots;
    if waves > 1 && (last as f64) < crate::IMBALANCE_THRESHOLD * slots as f64 {
        // The largest wave size that divides the replica count evenly.
        let even = (1..=slots).rev().find(|&s| ctx.n.is_multiple_of(s)).unwrap_or(1);
        out.push(
            Diagnostic::warning(
                "L101",
                format!(
                    "batch imbalance: the last of {waves} waves runs only {last}/{slots} \
                     replicas, idling {} replica slots for a full MD segment every cycle",
                    slots - last,
                ),
            )
            .with_path("/resource/cores")
            .with_hint(format!(
                "pick cores so waves fill evenly, e.g. resource.cores = {}",
                even * cpr
            )),
        );
    }
    let stranded = ctx.pilot_cores % cpr;
    if stranded != 0 {
        out.push(
            Diagnostic::warning(
                "L102",
                format!(
                    "{stranded} of {} pilot cores can never host a replica \
                     (cores is not a multiple of cores-per-replica = {cpr})",
                    ctx.pilot_cores,
                ),
            )
            .with_path("/resource/cores")
            .with_hint(format!("round cores down to {}", ctx.pilot_cores - stranded)),
        );
    }
}

#[cfg(test)]
mod tests {
    use crate::lint_config;
    use crate::tests::codes;
    use repex::config::SimulationConfig;

    #[test]
    fn mode_i_stays_silent() {
        let cfg = SimulationConfig::t_remd(16, 600, 2);
        let diags = lint_config(&cfg);
        assert!(!diags.iter().any(|d| d.code.starts_with("L1")), "{diags:?}");
    }

    #[test]
    fn mode_ii_predicts_waves_and_flags_imbalance() {
        let mut cfg = SimulationConfig::t_remd(16, 600, 2);
        cfg.resource.cores = Some(5); // waves of 5,5,5,1 — last 20 % full
        let diags = lint_config(&cfg);
        let c = codes(&diags);
        assert!(c.contains(&"L001"), "{diags:?}");
        assert!(c.contains(&"L101"), "{diags:?}");
        let l101 = diags.iter().find(|d| d.code == "L101").expect("L101");
        assert!(l101.message.contains("1/5"), "{}", l101.message);
        // 4 slots divide 16 evenly.
        assert!(l101.hint.as_deref().is_some_and(|h| h.contains("= 4")), "{:?}", l101.hint);
    }

    #[test]
    fn stranded_cores_flagged_for_multicore_replicas() {
        let mut cfg = SimulationConfig::t_remd(16, 600, 2);
        cfg.resource.cores_per_replica = 2;
        cfg.resource.cores = Some(7); // 3 slots + 1 stranded core
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"L102"), "{diags:?}");
    }

    #[test]
    fn balanced_mode_ii_waves_get_info_only() {
        let mut cfg = SimulationConfig::t_remd(16, 600, 2);
        cfg.resource.cores = Some(8); // two full waves
        let diags = lint_config(&cfg);
        let c = codes(&diags);
        assert!(c.contains(&"L001"), "{diags:?}");
        assert!(!c.contains(&"L101") && !c.contains(&"L102"), "{diags:?}");
    }
}
