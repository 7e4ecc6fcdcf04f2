//! Fault tolerance across the stack: injected task failures must never
//! abort a simulation under either recovery policy.

use hpc::fault::FaultModel;
use integration::quick_tremd;
use obs::json::Encode;
use repex::config::{FaultPolicy, Pattern};
use repex::simulation::RemdSimulation;

fn run_with_faults(policy: FaultPolicy, pattern: Pattern, mtbf: f64) -> repex::SimulationReport {
    let mut cfg = quick_tremd(24, 3);
    cfg.pattern = pattern;
    cfg.fault_policy = policy;
    RemdSimulation::new(cfg)
        .unwrap()
        .with_faults(FaultModel::new(mtbf).expect("test MTBF is valid"))
        .unwrap()
        .run()
        .expect("fault tolerance: the simulation survives")
}

#[test]
fn continue_policy_survives_heavy_failures_sync() {
    let report = run_with_faults(FaultPolicy::Continue, Pattern::Synchronous, 60.0);
    assert!(report.failed_tasks > 0, "MTBF 60s vs ~14s tasks should fail some");
    assert_eq!(report.relaunched_tasks, 0);
    assert_eq!(report.cycles.len(), 3, "all cycles completed");
}

#[test]
fn relaunch_policy_retries_and_completes_sync() {
    let report =
        run_with_faults(FaultPolicy::Relaunch { max_retries: 20 }, Pattern::Synchronous, 60.0);
    assert!(report.failed_tasks > 0);
    assert!(report.relaunched_tasks > 0);
    assert_eq!(report.cycles.len(), 3);
}

#[test]
fn async_pattern_survives_failures() {
    let report =
        run_with_faults(FaultPolicy::Continue, Pattern::Asynchronous { tick_fraction: 0.25 }, 60.0);
    assert!(report.failed_tasks > 0);
    assert!(report.makespan > 0.0);
}

#[test]
fn relaunch_costs_wall_time_relative_to_continue() {
    let cont = run_with_faults(FaultPolicy::Continue, Pattern::Synchronous, 40.0);
    let relaunch =
        run_with_faults(FaultPolicy::Relaunch { max_retries: 30 }, Pattern::Synchronous, 40.0);
    assert!(
        relaunch.makespan > cont.makespan,
        "retries stretch the MD phases: {} vs {}",
        relaunch.makespan,
        cont.makespan
    );
}

#[test]
fn failure_free_run_with_fault_model_disabled() {
    let report = run_with_faults(FaultPolicy::Continue, Pattern::Synchronous, f64::INFINITY);
    assert_eq!(report.failed_tasks, 0);
}

/// The durability acceptance criterion: a campaign interrupted at a cycle
/// boundary and resumed from its checkpoint yields *exactly* the result of
/// the uninterrupted run — same failures and retries, same exchange
/// decisions, same per-cycle timings, same virtual clock, same trace.
#[test]
fn interrupted_and_resumed_sync_campaign_matches_uninterrupted_exactly() {
    let mut cfg = quick_tremd(8, 4);
    cfg.fault_mtbf_seconds = Some(60.0);
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 5 };

    let rec_full = obs::Recorder::enabled();
    let full =
        RemdSimulation::new(cfg.clone()).unwrap().with_recorder(rec_full.clone()).run().unwrap();
    assert!(full.failed_tasks > 0, "the scenario must exercise the fault path");
    assert!(full.relaunched_tasks > 0, "and the retry path");

    let dir = std::env::temp_dir().join("repex-it-resume-equivalence");
    let _ = std::fs::remove_dir_all(&dir);
    let rec_head = obs::Recorder::enabled();
    let head = RemdSimulation::new(cfg)
        .unwrap()
        .with_checkpoints(&dir, 1)
        .with_cycle_limit(2)
        .with_recorder(rec_head.clone())
        .run()
        .unwrap();
    assert_eq!(head.cycles.len(), 2, "interrupted mid-campaign");

    let rec_tail = obs::Recorder::enabled();
    let resumed =
        RemdSimulation::resume(&dir).unwrap().with_recorder(rec_tail.clone()).run().unwrap();

    // Report-level exact equality.
    assert_eq!(resumed.cycles.len(), full.cycles.len());
    assert_eq!(resumed.failed_tasks, full.failed_tasks);
    assert_eq!(resumed.relaunched_tasks, full.relaunched_tasks);
    assert_eq!(resumed.acceptance, full.acceptance);
    assert_eq!(resumed.pair_acceptance, full.pair_acceptance);
    assert_eq!(resumed.round_trips, full.round_trips);
    assert_eq!(resumed.rung_history, full.rung_history);
    assert_eq!(resumed.makespan, full.makespan, "the fast-forwarded clock is bit-exact");
    assert_eq!(
        resumed.cycles.encode().compact(),
        full.cycles.encode().compact(),
        "per-cycle Eq. 1 timings replay bit-for-bit"
    );

    // Trace-level equality: the concatenated interrupted trace IS the full
    // trace. CacheRebuild counters depend on in-memory neighbor-list state
    // a restart file legitimately does not carry; everything physical (MD
    // segments, exchange windows/outcomes, staging, overhead) must match.
    let strip = |events: Vec<obs::Event>| -> Vec<obs::Event> {
        events.into_iter().filter(|e| !matches!(e, obs::Event::CacheRebuild { .. })).collect()
    };
    let mut interrupted = strip(rec_head.events());
    interrupted.extend(strip(rec_tail.events()));
    let full_events = strip(rec_full.events());
    assert_eq!(interrupted, full_events);

    // The ledger (what `repex analyze` reports) agrees too: acceptance,
    // the slot walk and the round-trip tracker, which counts the report's.
    let ledger = obs::ExchangeLedger::from_trace(&full_events);
    assert_eq!(obs::ExchangeLedger::from_trace(&interrupted), ledger);
    let trips = ledger.round_trips().map(obs::health::RoundTripTracker::total_round_trips);
    assert_eq!(trips, Some(full.round_trips));
}
