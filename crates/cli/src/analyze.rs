//! `repex analyze` — a run-health report derived from a recorded trace.
//!
//! The subcommand re-reads a Chrome-trace file written by `repex run
//! --trace`, reconstructs the typed event stream, and reports what the
//! paper's evaluation cares about: Tc percentiles (Eq. 1), per-replica
//! straggler flags, Mode II batch imbalance, the per-cycle critical path,
//! and exchange health (acceptance per dimension, ladder round trips) —
//! all from the trace alone, no access to the original process.
//!
//! Health findings are the A1xx rules of `obs::health`, emitted in the
//! same JSON schema and with the same exit-code convention as `repex
//! check`: 0 clean, 1 error-level findings, 2 usage/parse error.

use analysis::tables::{f1, TextTable};
use lint::report::Report;
use obs::health::RoundTripTracker;
use obs::json::{Encode, Value};
use obs::{obj, Diagnostic, Event};

pub(crate) fn cmd_analyze(args: &crate::Args) -> Result<u8, String> {
    let path = args.path();
    let json_out = args.text("--json");
    let z = args.number("--straggler-z").unwrap_or(2.0);
    let ratio = args.number("--straggler-ratio").unwrap_or(1.5);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let events = match obs::parse_chrome_trace(&text) {
        Ok(events) => events,
        Err(e) => {
            // Same boundary as check/plan: unparseable input exits 2, but a
            // requested --json artifact still records a typed C000 error.
            crate::write_parse_failure_report(json_out, &e);
            return Err(format!("{path}: {e}"));
        }
    };
    let policy = obs::StragglerPolicy { z_threshold: z, ratio_threshold: ratio };
    let (doc, diagnostics) = analyze(&events, policy);
    let report = Report::new(diagnostics, None);
    print_human(&doc);
    if !report.is_empty() {
        eprint!("{}", report.render_human(path));
    }
    let has_errors = report.has_errors();
    if let Some(out) = json_out {
        let doc = doc.with("diagnostics", &report.diagnostics).with("summary", report.summary);
        crate::write_out(out, &doc.pretty(), "analysis")?;
    }
    Ok(u8::from(has_errors))
}

// ---------------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------------

/// Build the analysis document and the A1xx findings on the values it is
/// built from. All numbers derive from the event stream; the per-cycle
/// critical-path totals are cross-checked against the Eq. 1 aggregator
/// (`max_path_vs_eq1_drift` reports the largest deviation).
pub fn analyze(events: &[Event], policy: obs::StragglerPolicy) -> (Value, Vec<Diagnostic>) {
    let breakdowns = obs::cycle_breakdowns(events);
    let mut tc = obs::LogHistogram::new();
    for b in &breakdowns {
        tc.record(b.total());
    }
    let avg = obs::average_breakdown(&breakdowns);
    let tl = obs::timeline_stats(events, policy);
    let global_path = obs::critical_path(events);
    let cycle_paths = obs::cycle_critical_paths(events);

    // Per-cycle path vs Eq. 1 cross-check, and which phase bounds each cycle.
    let mut max_drift = 0.0f64;
    let mut bound_by: std::collections::BTreeMap<&str, u64> = Default::default();
    for cp in &cycle_paths {
        if let Some(b) = breakdowns.iter().find(|b| b.cycle == cp.cycle) {
            max_drift = max_drift.max((cp.path.total - b.total()).abs());
        }
        *bound_by.entry(cp.path.dominant).or_insert(0) += 1;
    }

    // Acceptance per dimension and, on a 1-D ladder, round trips.
    let ledger = obs::ExchangeLedger::from_trace(events);
    let max_imbalance = tl.phases.iter().map(|p| p.imbalance).fold(0.0f64, f64::max);

    let findings = obs::trace_findings(events, &tl, &global_path, ledger.dims());
    let by_category = global_path.by_category.iter().map(|(c, t)| (c.to_string(), t.encode()));
    let bound_by = bound_by.iter().map(|(phase, n)| (phase.to_string(), n.encode()));
    let doc = obj! {
        "events" => events.len(),
        "cycles" => obj! {
            "count" => breakdowns.len(),
            "tc" => obj! {
                "p50" => tc.p50(), "p90" => tc.p90(), "p99" => tc.p99(),
                "mean" => tc.mean(), "min" => tc.min(), "max" => tc.max(),
            },
        },
        "breakdown_avg" => obj! {
            "t_md" => avg.t_md,
            "t_ex" => avg.t_ex_total(),
            "t_data" => avg.t_data,
            "t_repex_over" => avg.t_repex_over,
            "t_rp_over" => avg.t_rp_over,
        },
        "timeline" => obj! {
            "span" => tl.span,
            "straggler_count" => tl.straggler_count,
            "stragglers" => tl.stragglers(),
            "mean_stretch" => tl.mean_stretch,
            "max_stretch" => tl.max_stretch,
            "max_batch_imbalance" => max_imbalance,
            "replicas" => tl.replicas.len(),
        },
        "critical_path" => obj! {
            "total" => global_path.total,
            "span" => global_path.span,
            "slack" => global_path.slack,
            "dominant" => global_path.dominant,
            "by_category" => Value::Obj(by_category.collect()),
            "cycles_bound_by" => Value::Obj(bound_by.collect()),
            "max_path_vs_eq1_drift" => max_drift,
        },
        "exchange_health" => ledger.dims().to_vec(),
        "round_trips" => ledger.round_trips().map(RoundTripTracker::total_round_trips),
    };
    (doc, findings)
}

/// A time in the document, to one decimal (0 when absent).
fn seconds(v: &Value) -> String {
    f1(v.as_f64().unwrap_or(0.0))
}

fn print_human(doc: &Value) {
    let cycles = &doc["cycles"];
    let tc = &cycles["tc"];
    println!("trace: {} events, {} cycles", doc["events"], cycles["count"]);
    if cycles["count"].as_u64().unwrap_or(0) > 0 {
        let [p50, p90, p99, mean] = ["p50", "p90", "p99", "mean"].map(|k| seconds(&tc[k]));
        println!("Tc: p50 {p50}s  p90 {p90}s  p99 {p99}s  mean {mean}s");
        let b = &doc["breakdown_avg"];
        let mut table = TextTable::new(vec![
            "avg MD (s)",
            "avg EX (s)",
            "avg Data (s)",
            "avg RepEx (s)",
            "avg RP (s)",
        ]);
        let row = ["t_md", "t_ex", "t_data", "t_repex_over", "t_rp_over"].map(|k| seconds(&b[k]));
        table.add_row(row.to_vec());
        println!("\n{}", table.render());
    }

    let tl = &doc["timeline"];
    println!(
        "timeline: span {}s, {} replicas, stragglers {} {}, MD batch stretch mean {:.2} max {:.2} (imbalance up to {}s)",
        seconds(&tl["span"]),
        tl["replicas"],
        tl["straggler_count"],
        tl["stragglers"],
        tl["mean_stretch"].as_f64().unwrap_or(1.0),
        tl["max_stretch"].as_f64().unwrap_or(1.0),
        seconds(&tl["max_batch_imbalance"]),
    );

    let cp = &doc["critical_path"];
    let [total, span, slack] = ["total", "span", "slack"].map(|k| seconds(&cp[k]));
    let dominant = cp["dominant"].as_str().unwrap_or("?");
    println!("critical path: {total}s over a {span}s span (slack {slack}s), bound by {dominant}");
    if let Some(bound) = cp["cycles_bound_by"].as_object() {
        if !bound.is_empty() {
            let parts: Vec<String> = bound.iter().map(|(k, v)| format!("{k}: {v}")).collect();
            println!("cycles bound by: {}", parts.join(", "));
        }
    }

    if let Some(health) = doc["exchange_health"].as_array() {
        if !health.is_empty() {
            let mut table = TextTable::new(vec!["Dim", "Kind", "Attempts", "Accepted", "Ratio"]);
            for h in health {
                table.add_row(vec![
                    h["dim"].to_string(),
                    h["kind"].as_str().unwrap_or("?").to_string(),
                    h["attempts"].to_string(),
                    h["accepted"].to_string(),
                    format!("{:.3}", h["ratio"].as_f64().unwrap_or(0.0)),
                ]);
            }
            println!("\n{}", table.render());
        }
    }
    if let Some(rt) = doc["round_trips"].as_u64() {
        println!("ladder round trips (replayed from trace): {rt}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::OverheadScope;
    use repex::config::{DimensionConfig, Pattern, SimulationConfig};

    fn sync_cycle(cycle: u64, t0: f64) -> Vec<Event> {
        vec![
            Event::Overhead { scope: OverheadScope::Repex, cycle, start: t0, end: t0 + 0.5 },
            Event::MdSegment {
                replica: 0,
                slot: 0,
                cycle,
                dim: 0,
                attempt: 0,
                cores: 2,
                start: t0 + 0.5,
                end: t0 + 8.0,
                ok: true,
            },
            Event::MdSegment {
                replica: 1,
                slot: 1,
                cycle,
                dim: 0,
                attempt: 1,
                cores: 2,
                start: t0 + 0.5,
                end: t0 + 10.5,
                ok: false,
            },
            Event::MdPhase { cycle, dim: 0, start: t0 + 0.5, end: t0 + 10.5 },
            Event::DataStage { kind: 'T', dim: 0, cycle, start: t0 + 10.5, end: t0 + 11.0 },
            Event::ExchangeOutcome {
                dim: 0,
                cycle,
                slot_lo: 0,
                slot_hi: 1,
                accepted: cycle.is_multiple_of(2),
                at: t0 + 12.0,
            },
            Event::ExchangeWindow {
                kind: 'T',
                dim: 0,
                cycle,
                participants: 2,
                start: t0 + 11.0,
                end: t0 + 12.0,
            },
            Event::TaskRelaunch { name: "md-x".into(), slot: 1, attempt: 1, at: t0 + 1.0 },
            Event::CacheRebuild { cycle, rebuilds: 3, at: t0 + 2.0 },
        ]
    }

    #[test]
    fn analysis_cross_checks_path_against_eq1() {
        let mut events = sync_cycle(0, 0.0);
        events.extend(sync_cycle(1, 12.0));
        let (doc, _) = analyze(&events, obs::StragglerPolicy::default());
        assert_eq!(doc["cycles"]["count"], 2);
        let drift = doc["critical_path"]["max_path_vs_eq1_drift"].as_f64().unwrap();
        assert!(drift < 1e-9, "drift {drift}");
        assert_eq!(doc["critical_path"]["dominant"], "md");
        let health = doc["exchange_health"].as_array().unwrap();
        assert_eq!(health[0]["attempts"], 2);
        assert_eq!(health[0]["accepted"], 1);
        assert!((health[0]["ratio"].as_f64().unwrap() - 0.5).abs() < 1e-12);
        // One accepted swap 0<->1 then back: one half-trip each is not a
        // full round trip for a 2-rung ladder replay, but the key exists.
        assert!(doc["round_trips"].as_u64().is_some());
    }

    fn diag_codes(diags: &[Diagnostic]) -> Vec<&str> {
        diags.iter().map(|d| d.code.as_str()).collect()
    }

    #[test]
    fn healthy_trace_yields_no_diagnostics() {
        let mut events = sync_cycle(0, 0.0);
        events.extend(sync_cycle(1, 12.0));
        assert!(analyze(&events, obs::StragglerPolicy::default()).1.is_empty());
    }

    #[test]
    fn starved_ladder_warns_a101() {
        // Cycle 1 alone: its only outcome is a rejection.
        let events = sync_cycle(1, 0.0);
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A101"), "{diags:?}");
        assert!(!diags.iter().any(|d| d.severity == obs::Severity::Error));
    }

    #[test]
    fn windows_without_outcomes_is_an_error_a102() {
        let mut events = sync_cycle(0, 0.0);
        events.retain(|e| !matches!(e, Event::ExchangeOutcome { .. }));
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        let a102 = diags.iter().find(|d| d.code == "A102");
        assert!(a102.is_some_and(|d| d.severity == obs::Severity::Error), "{diags:?}");
    }

    #[test]
    fn partial_windows_without_outcomes_warn_a102() {
        // An asynchronous window whose ready replicas (slots 0 and 2 of 4)
        // cannot pair makes no attempt: a warning, not an error.
        let mut events: Vec<Event> = (0..4).map(|r| md(r, 0.0, 1.0, true)).collect();
        events.push(Event::ExchangeWindow {
            kind: 'T',
            dim: 0,
            cycle: 0,
            participants: 2,
            start: 1.0,
            end: 1.1,
        });
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        let a102 = diags.iter().find(|d| d.code == "A102");
        assert!(a102.is_some_and(|d| d.severity == obs::Severity::Warning), "{diags:?}");
        assert!(a102.is_some_and(|d| d.message.contains("adjacent")), "{diags:?}");
    }

    /// A bare MD segment for synthetic health-finding streams.
    fn md(replica: usize, start: f64, end: f64, ok: bool) -> Event {
        Event::MdSegment {
            replica,
            slot: replica,
            cycle: 0,
            dim: 0,
            attempt: 0,
            cores: 1,
            start,
            end,
            ok,
        }
    }

    #[test]
    fn failure_burst_warns_a104() {
        // 5 failures, 4 of them inside a 0.6 s window of a 100 s span.
        let mut events: Vec<Event> = (0..4).map(|r| md(r, 0.0, 100.0, true)).collect();
        events.push(md(0, 39.0, 40.0, false));
        events.push(md(1, 39.2, 40.2, false));
        events.push(md(2, 39.4, 40.4, false));
        events.push(md(3, 39.6, 40.6, false));
        events.push(md(0, 89.0, 90.0, false));
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A104"), "{diags:?}");
    }

    #[test]
    fn independent_failures_do_not_look_like_a_burst() {
        // Same failure count spread evenly: the majority window is 40 % of
        // the span, well past the 20 % burst threshold.
        let mut events: Vec<Event> = (0..4).map(|r| md(r, 0.0, 100.0, true)).collect();
        for (i, t) in [10.0, 30.0, 50.0, 70.0, 90.0].iter().enumerate() {
            events.push(md(i % 4, t - 1.0, *t, false));
        }
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(!diag_codes(&diags).contains(&"A104"), "{diags:?}");
    }

    #[test]
    fn heterogeneous_speeds_warn_a105() {
        // Five replicas at 10 s per segment, one at 20 s (2x the median).
        let events: Vec<Event> = (0..5)
            .map(|r| md(r, 0.0, 10.0, true))
            .chain(std::iter::once(md(5, 0.0, 20.0, true)))
            .collect();
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        let a105 = diags.iter().find(|d| d.code == "A105");
        assert!(a105.is_some(), "{diags:?}");
        assert!(a105.is_some_and(|d| d.message.contains("replica 5")), "{diags:?}");
    }

    #[test]
    fn uniform_speeds_stay_quiet_a105() {
        let events: Vec<Event> = (0..6).map(|r| md(r, 0.0, 10.0, true)).collect();
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(!diag_codes(&diags).contains(&"A105"), "{diags:?}");
    }

    #[test]
    fn data_bound_critical_path_warns_a106() {
        // 1 s of MD followed by 4 s of staging: data is 80 % of the path.
        let events = vec![
            md(0, 0.0, 1.0, true),
            Event::DataStage { kind: 'T', dim: 0, cycle: 0, start: 1.0, end: 5.0 },
        ];
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A106"), "{diags:?}");
    }

    #[test]
    fn stragglers_warn_a103() {
        let lane = |lane, straggler| obs::timeline_stats::LaneStats {
            lane,
            straggler,
            ..Default::default()
        };
        let timeline = obs::TimelineStats {
            replicas: vec![lane(0, true), lane(1, false), lane(3, true)],
            straggler_count: 2,
            ..Default::default()
        };
        let diags = obs::trace_findings(&[], &timeline, &Default::default(), &[]);
        assert_eq!(diag_codes(&diags), vec!["A103"]);
        assert!(diags[0].message.ends_with(": [0,3]"), "{diags:?}");
    }

    /// A fast simulated campaign under a stress scenario, traced.
    fn run_scenario(n: usize, cycles: u64, sc: hpc::Scenario) -> (u64, Vec<Event>) {
        let mut cfg = repex::config::SimulationConfig::t_remd(n, 600, cycles);
        cfg.surrogate_steps = 5;
        cfg.scenario = Some(sc);
        cfg.fault_policy = repex::config::FaultPolicy::Relaunch { max_retries: 20 };
        let recorder = obs::Recorder::enabled();
        let report = repex::simulation::RemdSimulation::new(cfg)
            .unwrap()
            .with_recorder(recorder.clone())
            .run()
            .unwrap();
        (report.failed_tasks, recorder.events())
    }

    /// A fast traced campaign: its report and its events.
    fn traced(mut cfg: SimulationConfig) -> (repex::SimulationReport, Vec<Event>) {
        cfg.surrogate_steps = 5;
        let recorder = obs::Recorder::enabled();
        let report = repex::simulation::RemdSimulation::new(cfg)
            .unwrap()
            .with_recorder(recorder.clone())
            .run()
            .unwrap();
        (report, recorder.events())
    }

    /// The acceptance rows of `doc` as the report's (letter, attempts,
    /// accepted) triples.
    fn rows(doc: &Value) -> Vec<(String, u64, u64)> {
        let rows = doc["exchange_health"].as_array().unwrap().iter();
        let row = |h: &Value| {
            let kind = h["kind"].as_str().unwrap().to_string();
            (kind, h["attempts"].as_u64().unwrap(), h["accepted"].as_u64().unwrap())
        };
        rows.map(row).collect()
    }

    fn report_rows(report: &repex::SimulationReport) -> Vec<(String, u64, u64)> {
        let row = |(letter, s): &(char, exchange::AcceptanceStats)| {
            (letter.to_string(), s.attempts, s.accepted)
        };
        report.acceptance.iter().map(row).collect()
    }

    #[test]
    fn a_row_per_dimension_and_round_trips_only_on_a_1d_ladder() {
        // T × U × U: three dimensions, so no ladder to count round trips on.
        let mut cfg = SimulationConfig::t_remd(0, 600, 2);
        cfg.dimensions = vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 2 },
            DimensionConfig::Umbrella { dihedral: "phi".into(), count: 2, k_deg: 0.02 },
            DimensionConfig::Umbrella { dihedral: "psi".into(), count: 2, k_deg: 0.02 },
        ];
        let (report, events) = traced(cfg);
        let (doc, _) = analyze(&events, obs::StragglerPolicy::default());
        assert_eq!(rows(&doc).len(), 3);
        assert_eq!(rows(&doc), report_rows(&report));
        assert!(doc["round_trips"].is_null(), "{}", doc["round_trips"]);

        // Asynchronous 1-D (two rungs, so a few swaps make a round trip):
        // the report's acceptance and round trips.
        let mut cfg = SimulationConfig::t_remd(2, 600, 12);
        cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        let (report, events) = traced(cfg);
        let (doc, _) = analyze(&events, obs::StragglerPolicy::default());
        assert_eq!(rows(&doc), report_rows(&report));
        assert!(report.acceptance[0].1.accepted > 0);
        assert!(report.round_trips > 0, "a ladder walked end to end and back");
        assert_eq!(doc["round_trips"].as_u64(), Some(report.round_trips));
    }

    #[test]
    fn failure_storm_scenario_triggers_a104_end_to_end() {
        // An 8 s storm at MTBF 2 s opens the run; the calm remainder never
        // fails. All failures therefore cluster at the start of the span.
        let sc = hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: 2.0,
            period_seconds: 4000.0,
            storm_fraction: 0.002,
        };
        let (failed, events) = run_scenario(16, 4, sc);
        assert!(failed >= 4, "burst detection needs failures, got {failed}");
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A104"), "{diags:?}");
    }

    #[test]
    fn heterogeneous_scenario_triggers_a105_end_to_end() {
        let sc = hpc::Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 };
        let (failed, events) = run_scenario(16, 3, sc);
        assert_eq!(failed, 0, "slow nodes are slow, not dead");
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A105"), "{diags:?}");
    }

    #[test]
    fn slow_filesystem_scenario_triggers_a106_end_to_end() {
        let sc = hpc::Scenario::SlowFilesystem { latency_factor: 50.0, bandwidth_factor: 0.02 };
        let (failed, events) = run_scenario(8, 3, sc);
        assert_eq!(failed, 0);
        let (_, diags) = analyze(&events, obs::StragglerPolicy::default());
        assert!(diag_codes(&diags).contains(&"A106"), "{diags:?}");
    }
}
