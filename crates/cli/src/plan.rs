//! `repex plan` — predictive cost / acceptance / round-trip planning.
//!
//! The static twin of `repex run`: the same configuration document goes in,
//! but instead of executing, the planner predicts the Eq. 1 makespan and
//! utilization, per-ladder acceptance and round-trip time, and ranks
//! alternative plans (rung counts, core counts, pairing) against a target.
//! Diagnostics come back in the shared JSON schema with the shared exit
//! codes: 0 clean, 1 error-level findings (P0xx or structural C0xx),
//! 2 usage/parse error.

use lint::plan::{plan_config, PlanOptions};
use lint::report::Report;
use repex::config::SimulationConfig;

pub fn cmd_plan(args: &[String]) -> Result<u8, String> {
    let path = args.first().ok_or("plan needs a config file path")?;
    if path.starts_with("--") && path != "--help" {
        return Err(format!("plan needs a config file path before the flags, got {path:?}"));
    }
    let json_out = crate::flag_value(args, "--json")?;
    let target_round_trip = crate::float_flag(args, "--target-round-trip")?;
    let budget_core_hours = crate::float_flag(args, "--budget-core-hours")?;
    let no_search = args.iter().any(|a| a == "--no-search");

    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg = match SimulationConfig::from_json(&text) {
        Ok(cfg) => cfg,
        Err(e) => {
            // Shared check/analyze/plan convention: a config that does not
            // parse is a usage error (exit 2), but a requested --json
            // artifact still gets a typed C000 record.
            crate::write_parse_failure_report(json_out.as_deref(), &e);
            return Err(crate::config_error(e));
        }
    };
    let opts = PlanOptions {
        target_round_trip,
        budget_core_seconds: budget_core_hours.map(|h| h * 3600.0),
        search: !no_search,
        ..PlanOptions::default()
    };
    let outcome = plan_config(&cfg, &opts);
    let report = Report::new(outcome.diagnostics, Some(&text));
    if let Some(plan) = &outcome.report {
        print!("{}", plan.render_human());
    }
    if !report.is_empty() {
        print!("{}", report.render_human(path));
    }
    if let Some(out) = json_out {
        let doc = obs::obj! {
            "plan" => outcome.report,
            "diagnostics" => report.diagnostics,
            "summary" => report.summary,
        };
        std::fs::write(&out, doc.pretty()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("[plan written: {out}]");
    }
    Ok(u8::from(report.has_errors()))
}
