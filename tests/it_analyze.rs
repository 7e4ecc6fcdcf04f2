//! Trace analytics acceptance tests: the analyzer must reproduce, from the
//! recorded event stream alone, the numbers the simulation computed
//! in-process — batch imbalance (Mode II), Eq. 1 per-cycle totals via the
//! critical path, exchange acceptance, and ladder round trips.

use integration::quick_tremd;
use obs::health::RoundTripTracker;
use obs::{Event, Recorder, StragglerPolicy};
use repex::simulation::RemdSimulation;

#[test]
fn mode_two_batch_imbalance_and_critical_path_match_eq1() {
    // 16 replicas on 8 cores (core:replica 1/2): every MD phase serializes
    // into ~2 waves.
    let mut cfg = quick_tremd(16, 3);
    cfg.resource.cores = Some(8);
    assert_eq!(cfg.execution_mode().unwrap(), 2);
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg).unwrap().with_recorder(recorder.clone()).run().unwrap();
    let events = recorder.events();

    // Batch imbalance: stretch ≈ 2 waves, imbalance strictly positive.
    let tl = obs::timeline_stats(&events, StragglerPolicy::default());
    assert_eq!(tl.phases.len(), 3, "one MD phase per cycle");
    for p in &tl.phases {
        assert!(p.stretch > 1.5 && p.stretch < 2.8, "cycle {} stretch {}", p.cycle, p.stretch);
        assert!(p.imbalance > 0.0, "Mode II batching must add wait beyond the slowest segment");
    }
    assert!(tl.mean_stretch > 1.5);

    // Critical path: per-cycle totals equal the Eq. 1 aggregator within
    // 1e-9 (phase-level events are contiguous on the virtual clock).
    let paths = obs::cycle_critical_paths(&events);
    let breakdowns = obs::cycle_breakdowns(&events);
    assert_eq!(paths.len(), breakdowns.len());
    assert_eq!(paths.len(), report.cycles.len());
    for (cp, b) in paths.iter().zip(&breakdowns) {
        assert_eq!(cp.cycle, b.cycle);
        assert!(
            (cp.path.total - b.total()).abs() < 1e-9,
            "cycle {}: path {} vs Eq. 1 {}",
            cp.cycle,
            cp.path.total,
            b.total()
        );
        assert!(cp.path.slack.abs() < 1e-9, "sync cycles are contiguous");
        assert_eq!(cp.path.dominant, "md", "MD bounds a Mode II cycle");
    }
}

#[test]
fn trace_acceptance_and_round_trips_match_in_process_stats() {
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(quick_tremd(8, 6))
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
    let events = recorder.events();

    // Acceptance: trace-derived counts equal exchange::stats exactly.
    let ledger = obs::ExchangeLedger::from_trace(&events);
    let health = ledger.dims();
    assert_eq!(health.len(), report.acceptance.len());
    let (letter, stats) = &report.acceptance[0];
    assert_eq!(health[0].kind, *letter);
    assert_eq!(health[0].attempts, stats.attempts);
    assert_eq!(health[0].accepted, stats.accepted);
    assert!(stats.attempts > 0, "the run must attempt exchanges");
    assert_eq!(health[0].ratio(), stats.ratio());

    // Round trips: replaying the slot walk from accepted outcomes through
    // the ledger's tracker reproduces the in-process count exactly — and
    // the tracker equals one fed the in-process rung history cycle by cycle.
    assert_eq!(obs::implied_slot_count(&events), 8);
    let windows = events
        .iter()
        .filter(|e| matches!(e, Event::ExchangeWindow { participants, .. } if *participants > 0));
    assert_eq!(windows.count(), 6, "one walk record per cycle's exchange window");
    let rt = ledger.round_trips().expect("a 1-D trace counts round trips");
    assert_eq!(rt.total_round_trips(), report.round_trips);
    let mut from_history = RoundTripTracker::new(8, 8);
    for cycle in 0..6 {
        for (replica, rungs) in report.rung_history.iter().enumerate() {
            from_history.record(replica, rungs[cycle]);
        }
    }
    assert_eq!(*rt, from_history);

    // The replayed final assignment matches the in-process rung history.
    for (replica, rungs) in report.rung_history.iter().enumerate() {
        assert_eq!(
            *rungs.last().unwrap(),
            ledger.slot_of()[replica],
            "replica {replica} final slot"
        );
    }
}

#[test]
fn metrics_json_carries_exchange_health_keys() {
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(quick_tremd(6, 3))
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .unwrap();
    let metrics = obs::json::parse(&recorder.metrics_json()).unwrap();
    let (_, stats) = &report.acceptance[0];
    assert_eq!(metrics["exchange.T.attempts"].as_u64().unwrap(), stats.attempts);
    assert_eq!(metrics["exchange.T.accepted"].as_u64().unwrap(), stats.accepted);
    assert!((metrics["exchange.T.ratio"].as_f64().unwrap() - stats.ratio()).abs() < 1e-12);
    assert_eq!(metrics["exchange.round_trips_total"].as_u64().unwrap(), report.round_trips);
}

#[test]
fn exported_files_stay_parsable_even_with_non_finite_values() {
    // Hostile stream: non-finite timestamps must degrade to 0 in the
    // export, never to invalid JSON, and the files must parse from disk.
    let recorder = Recorder::enabled();
    recorder.record(Event::MdSegment {
        replica: 0,
        slot: 0,
        cycle: 0,
        dim: 0,
        attempt: 0,
        cores: 1,
        start: f64::NAN,
        end: f64::INFINITY,
        ok: true,
    });
    recorder.record(Event::ExchangeOutcome {
        dim: 0,
        cycle: 0,
        slot_lo: 0,
        slot_hi: 1,
        accepted: true,
        at: f64::NEG_INFINITY,
    });
    recorder.set_gauge_f64("bad.ratio", f64::NAN);
    recorder.count("good.counter", 7);

    let dir = std::env::temp_dir().join("repex-it-analyze");
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("nan-trace.json");
    let metrics_path = dir.join("nan-metrics.json");
    std::fs::write(&trace_path, recorder.chrome_trace_json()).unwrap();
    std::fs::write(&metrics_path, recorder.metrics_json()).unwrap();

    let trace = obs::json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    assert!(!trace["traceEvents"].as_array().unwrap().is_empty());
    let metrics = obs::json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
    assert_eq!(metrics["bad.ratio"].as_f64().unwrap(), 0.0);
    assert_eq!(metrics["good.counter"].as_u64().unwrap(), 7);
}

#[test]
fn async_trace_supports_health_and_critical_path() {
    let mut cfg = quick_tremd(8, 3);
    cfg.pattern = repex::config::Pattern::Asynchronous { tick_fraction: 0.25 };
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg).unwrap().with_recorder(recorder.clone()).run().unwrap();
    let events = recorder.events();

    let ledger = obs::ExchangeLedger::from_trace(&events);
    let (_, stats) = &report.acceptance[0];
    assert_eq!(ledger.dims()[0].attempts, stats.attempts);
    assert_eq!(ledger.dims()[0].accepted, stats.accepted);
    let trips = ledger.round_trips().map(RoundTripTracker::total_round_trips);
    assert_eq!(trips, Some(report.round_trips));

    // No phase events in an async stream: the critical path falls back to
    // chaining segments through exchange windows.
    assert!(!events.iter().any(|e| matches!(e, Event::MdPhase { .. })));
    let path = obs::critical_path(&events);
    assert!(path.total > 0.0);
    assert!(path.total <= path.span + 1e-9, "a chain cannot exceed the wall span");
    assert_eq!(path.dominant, "md");
}
