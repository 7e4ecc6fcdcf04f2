//! Integration tests for the structured tracing/metrics layer: the exported
//! trace must agree with the simulation report, and the Chrome trace of an
//! asynchronous run must lay out cleanly (one row per replica, no
//! overlapping MD segments within a row).

use integration::quick_tremd;
use obs::{Event, Recorder};
use repex::config::{FaultPolicy, Pattern};
use repex::simulation::RemdSimulation;
use repex::timing::timing_from_breakdown;

#[test]
fn sync_report_timing_equals_event_aggregation() {
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(quick_tremd(8, 3))
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
    let breakdowns = recorder.cycle_breakdowns();
    assert_eq!(breakdowns.len(), report.cycles.len());
    for (cycle, b) in report.cycles.iter().zip(&breakdowns) {
        let derived = timing_from_breakdown(b);
        assert!(
            (cycle.timing.total() - derived.total()).abs() < 1e-9,
            "cycle {}: {} vs {}",
            cycle.cycle,
            cycle.timing.total(),
            derived.total()
        );
        assert_eq!(cycle.timing, derived, "cycle {}", cycle.cycle);
    }
}

#[test]
fn sync_event_counts_match_report_totals() {
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(quick_tremd(6, 2))
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
    let events = recorder.events();
    let md_ok = events.iter().filter(|e| matches!(e, Event::MdSegment { ok: true, .. })).count();
    assert_eq!(md_ok, 6 * 2, "one successful segment per replica per cycle");
    let windows = events.iter().filter(|e| matches!(e, Event::ExchangeWindow { .. })).count();
    assert_eq!(windows, report.cycles.len(), "one exchange window per cycle per dim");
    let counters = recorder.counters();
    assert_eq!(counters["tasks.failed"], report.failed_tasks);
    assert_eq!(counters["exchange.T.attempts"], report.acceptance[0].1.attempts);
    assert_eq!(counters["exchange.T.accepted"], report.acceptance[0].1.accepted);
    // Every submitted unit was counted by the executor: N MD per cycle plus
    // one exchange per cycle.
    assert_eq!(counters["pilot.units_submitted"], (6 + 1) * 2);
}

#[test]
fn metrics_track_failures_and_relaunches() {
    let mut cfg = quick_tremd(16, 2);
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 25 };
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg)
        .unwrap()
        .with_recorder(recorder.clone())
        .with_faults(hpc::fault::FaultModel::new(40.0).expect("test MTBF is valid"))
        .unwrap()
        .run()
        .unwrap();
    assert!(report.failed_tasks > 0, "fault model must produce failures");
    let counters = recorder.counters();
    assert_eq!(counters["tasks.failed"], report.failed_tasks);
    assert_eq!(counters["tasks.relaunched"], report.relaunched_tasks);
    let events = recorder.events();
    let relaunches =
        events.iter().filter(|e| matches!(e, Event::TaskRelaunch { .. })).count() as u64;
    assert_eq!(relaunches, report.relaunched_tasks);
    let md_failed =
        events.iter().filter(|e| matches!(e, Event::MdSegment { ok: false, .. })).count() as u64;
    assert!(md_failed <= report.failed_tasks, "exchange failures are not MD segments");
}

#[test]
fn async_chrome_trace_has_clean_per_replica_rows() {
    let mut cfg = quick_tremd(8, 3);
    cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg).unwrap().with_recorder(recorder.clone()).run().unwrap();
    assert_eq!(report.pattern, "async");

    let doc =
        obs::json::parse(&recorder.chrome_trace_json()).expect("exported trace must be valid JSON");
    let trace_events = doc["traceEvents"].as_array().unwrap();

    // Collect MD spans (pid 0 = the replicas process) per row.
    let mut rows: std::collections::BTreeMap<u64, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for e in trace_events {
        if e["ph"] == "X" && e["pid"] == 0 {
            let tid = e["tid"].as_u64().unwrap();
            let ts = e["ts"].as_f64().unwrap();
            let dur = e["dur"].as_f64().unwrap();
            rows.entry(tid).or_default().push((ts, ts + dur));
        }
    }
    assert_eq!(rows.len(), 8, "one trace row per replica");
    assert_eq!(rows.keys().copied().collect::<Vec<_>>(), (0..8).collect::<Vec<_>>());
    for (tid, spans) in &mut rows {
        assert_eq!(spans.len(), 3, "replica {tid} ran 3 segments");
        spans.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for pair in spans.windows(2) {
            // Microsecond timestamps are rounded to 3 decimals on export, so
            // allow a hundredth of a microsecond of slack.
            assert!(pair[1].0 >= pair[0].1 - 0.01, "replica {tid}: spans overlap: {pair:?}");
        }
    }
}
