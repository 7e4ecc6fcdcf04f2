//! `repex plan` — predictive cost / acceptance / round-trip planning.
//!
//! The same configuration document as `repex run` goes in; the planner
//! runs the campaign at zero MD steps on the simulated cluster for its
//! Eq. 1 makespan and utilization, predicts per-ladder acceptance and
//! round-trip time, and ranks alternative plans (rung counts, core counts,
//! pairing) against a target.
//! Diagnostics come back in the shared JSON schema with the shared exit
//! codes: 0 clean, 1 error-level findings (P0xx or structural C0xx),
//! 2 usage/parse error.

use crate::Args;
use lint::plan::{plan_config, PlanOptions};
use lint::report::Report;

pub(crate) fn cmd_plan(args: &Args) -> Result<u8, String> {
    let path = args.path();
    let json_out = args.text("--json");
    let (text, cfg) = crate::read_config(path, json_out)?;
    let opts = PlanOptions {
        target_round_trip: args.number("--target-round-trip"),
        budget_core_seconds: args.number("--budget-core-hours").map(|h| h * 3600.0),
        search: !args.switch("--no-search"),
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
        crate::write_out(out, &doc.pretty(), "plan")?;
    }
    Ok(u8::from(report.has_errors()))
}
