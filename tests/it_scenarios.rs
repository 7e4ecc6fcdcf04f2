//! Stress scenarios end-to-end: each adversarial environment must degrade
//! the run gracefully — the campaign always completes — and leave the
//! diagnostic signature the observability layer looks for (the same
//! description drives injection, lints and trace analytics).

use integration::quick_tremd;
use repex::config::FaultPolicy;
use repex::simulation::RemdSimulation;

fn run_scenario(
    n: usize,
    cycles: u64,
    scenario: Option<hpc::Scenario>,
) -> (repex::SimulationReport, Vec<obs::Event>) {
    let mut cfg = quick_tremd(n, cycles);
    cfg.scenario = scenario;
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 20 };
    let recorder = obs::Recorder::enabled();
    let report = RemdSimulation::new(cfg)
        .unwrap()
        .with_recorder(recorder.clone())
        .run()
        .expect("scenarios degrade the run, never abort it");
    (report, recorder.events())
}

#[test]
fn failure_storm_fails_tasks_in_a_burst_but_every_cycle_completes() {
    // An 8-second storm window at MTBF 2 s opens the run; the rest is calm.
    let storm = hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 2.0,
        period_seconds: 4000.0,
        storm_fraction: 0.002,
    };
    let (report, events) = run_scenario(16, 4, Some(storm));
    assert!(report.failed_tasks > 0, "the storm must kill tasks");
    assert!(report.relaunched_tasks > 0, "the relaunch policy retries them");
    assert_eq!(report.cycles.len(), 4, "graceful degradation: every cycle completed");

    // All failures land inside the storm window — the clustering the A104
    // analyze finding keys on.
    let fails: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            obs::Event::MdSegment { ok: false, end, .. } => Some(*end),
            _ => None,
        })
        .collect();
    let span = obs::timeline_stats(&events, obs::StragglerPolicy::default()).span;
    let lo = fails.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = fails.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert!(
        hi - lo < 0.2 * span,
        "failures cluster in the storm: window {:.1}s of a {span:.1}s span",
        hi - lo
    );
}

#[test]
fn stragglers_stretch_batches_without_failing_anything() {
    let (base, base_events) = run_scenario(16, 3, None);
    let sc = hpc::Scenario::Stragglers { fraction: 0.3, slowdown: 4.0 };
    let (report, events) = run_scenario(16, 3, Some(sc));
    assert_eq!(report.failed_tasks, 0, "stragglers are slow, not dead");
    assert_eq!(report.cycles.len(), 3);
    assert!(report.makespan > base.makespan, "4x tasks hold the synchronous barriers");

    // Mode I: `stretch` (window over the *longest* segment) stays 1 by
    // construction, because the straggler is the longest segment. What it
    // does leave in the trace is a barrier that waits ~4x longer than the
    // typical segment of its phase.
    let (stressed, calm) = (worst_wait_over_median(&events), worst_wait_over_median(&base_events));
    assert!(stressed >= 3.0, "a 4x straggler holds its phase: window/median segment {stressed}");
    assert!(calm < 2.0, "the nominal cluster has no such phase: {calm}");
}

/// Over all MD phases, the largest ratio of the phase window to the median
/// duration of the segments that ran in it.
fn worst_wait_over_median(events: &[obs::Event]) -> f64 {
    let phases = obs::timeline_stats(events, obs::StragglerPolicy::default()).phases;
    let ratios = phases.iter().map(|phase| {
        let mut durations: Vec<f64> = events
            .iter()
            .filter_map(|e| match e {
                obs::Event::MdSegment { cycle, dim, start, end, .. }
                    if (*cycle, *dim) == (phase.cycle, phase.dim) =>
                {
                    Some(end - start)
                }
                _ => None,
            })
            .collect();
        durations.sort_by(f64::total_cmp);
        phase.window / durations[durations.len() / 2]
    });
    ratios.fold(0.0, f64::max)
}

#[test]
fn heterogeneous_nodes_flag_the_slow_replicas() {
    let (base, _) = run_scenario(16, 3, None);
    let sc = hpc::Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 };
    let (report, events) = run_scenario(16, 3, Some(sc));
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(report.cycles.len(), 3);
    assert!(
        report.makespan > 1.5 * base.makespan,
        "every barrier waits for the 3x nodes: {} vs {}",
        report.makespan,
        base.makespan
    );

    // The slow-node membership is stable, so the per-replica lane means
    // separate cleanly. (A 3-of-16 outlier group tops out near z = 2.08,
    // so probe slightly below the default z threshold.)
    let policy = obs::StragglerPolicy { z_threshold: 1.5, ratio_threshold: 1.5 };
    let tl = obs::timeline_stats(&events, policy);
    assert!(tl.straggler_count > 0, "slow nodes read as stragglers: {:?}", tl.replicas);
    for lane in tl.replicas.iter().filter(|l| l.straggler) {
        assert!(lane.ratio_to_median > 2.0, "3x nodes sit far from the median: {lane:?}");
    }
}

#[test]
fn slow_filesystem_shifts_the_critical_path_toward_data() {
    let (base, base_events) = run_scenario(8, 3, None);
    let sc = hpc::Scenario::SlowFilesystem { latency_factor: 50.0, bandwidth_factor: 0.02 };
    let (report, events) = run_scenario(8, 3, Some(sc));
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(report.cycles.len(), 3);
    assert!(report.makespan > base.makespan, "staging got slower, so the run did too");

    let data_share = |events: &[obs::Event]| {
        let p = obs::critical_path(events);
        let data = p.by_category.iter().find(|(c, _)| *c == "data").map_or(0.0, |(_, t)| *t);
        data / p.total.max(f64::EPSILON)
    };
    let (before, after) = (data_share(&base_events), data_share(&events));
    assert!(
        after > 2.0 * before,
        "data staging share of the critical path grows: {before:.3} -> {after:.3}"
    );
}
