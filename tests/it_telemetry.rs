//! Consistency proofs for the live telemetry plane: the streamed snapshot
//! windows must fold to the same end-of-run truth as the simulation report
//! and the post-hoc `obs` replays — under fault injection, across a
//! checkpoint/resume boundary, and for both RE patterns. The bus is only a
//! single source of truth if every window telescopes exactly.

use integration::quick_tremd;
use obs::json;
use obs::{merge_snapshots, Recorder, TelemetrySnapshot};
use repex::config::{FaultPolicy, Pattern};
use repex::emm::LiveTelemetry;
use repex::simulation::RemdSimulation;
use std::path::PathBuf;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Every streamed line decodes as a whole snapshot.
fn read_stream(path: &PathBuf) -> Vec<TelemetrySnapshot> {
    std::fs::read_to_string(path)
        .unwrap()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::from_str(l).expect("every streamed line is a complete snapshot"))
        .collect()
}

fn window_sum(snaps: &[TelemetrySnapshot], window: fn(&TelemetrySnapshot) -> u64) -> u64 {
    snaps.iter().map(window).sum()
}

/// Storm campaign, streamed: the merged stream must reproduce the final
/// report exactly, every window must telescope to the cumulative truth,
/// the acceptance must match an `obs::ExchangeLedger` replay of the full
/// event stream, and A104's live twin (W202) must fire mid-run.
#[test]
fn streamed_windows_fold_to_end_of_run_truth_under_faults() {
    let mut cfg = quick_tremd(16, 4);
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 20 };
    cfg.scenario = Some(hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 2.0,
        period_seconds: 4000.0,
        storm_fraction: 0.002,
    });
    let dir = fresh_dir("repex-it-telemetry-storm");
    let stream = dir.join("snap.jsonl");
    let prom = dir.join("metrics.prom");
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg)
        .unwrap()
        .with_recorder(recorder.clone())
        .with_live_telemetry(LiveTelemetry {
            stream: Some(stream.clone()),
            prom: Some(prom.clone()),
            campaign: Some("storm".into()),
        })
        .run()
        .unwrap();
    assert!(report.failed_tasks >= 4, "the storm must kill tasks");

    let snaps = merge_snapshots(read_stream(&stream));
    assert_eq!(snaps.len(), 4, "one snapshot per cycle barrier");
    let last = snaps.last().unwrap();
    assert_eq!(last.campaign, "storm");
    assert!(last.done);
    assert_eq!(last.completed, 4);
    assert_eq!(last.failed_tasks, report.failed_tasks);
    assert_eq!(last.relaunched_tasks, report.relaunched_tasks);
    assert_eq!(last.round_trips, report.round_trips);

    // Cumulative per-dim acceptance equals the report *and* a post-hoc
    // ledger replay of the recorded events, to 1e-9.
    let ledger = obs::ExchangeLedger::from_trace(&recorder.events());
    let health = ledger.dims();
    for (i, (letter, acc)) in report.acceptance.iter().enumerate() {
        let d = &last.dims[i];
        assert_eq!(d.kind, *letter);
        assert_eq!(d.attempts, acc.attempts, "dim {i} attempts");
        assert_eq!(d.accepted, acc.accepted, "dim {i} accepted");
        let h = health.iter().find(|h| h.dim == i).expect("replay covers every active dim");
        assert_eq!(h.attempts, acc.attempts);
        assert_eq!(h.accepted, acc.accepted);
        let drift = (d.ratio() - h.ratio()).abs();
        assert!(drift < 1e-9, "dim {i} acceptance drift {drift}");
    }

    // Windows telescope: per-window deltas sum to the cumulative counters.
    assert_eq!(window_sum(&snaps, |s| s.window_failed), report.failed_tasks);
    assert_eq!(window_sum(&snaps, |s| s.window_relaunched), report.relaunched_tasks);
    assert_eq!(window_sum(&snaps, |s| s.window_round_trips), report.round_trips);
    assert_eq!(
        window_sum(&snaps, |s| s.window_stragglers),
        last.stragglers,
        "straggler flags accumulate window by window"
    );
    assert_eq!(window_sum(&snaps, |s| s.dims[0].window_attempts), last.dims[0].attempts);

    // The windowed Tc histograms partition the per-cycle totals: counts sum
    // to the cycle count and durations sum to the report's, to 1e-9.
    let tc_count = window_sum(&snaps, |s| s.window_tc.count);
    assert_eq!(tc_count, 4);
    let tc_sum: f64 = snaps.iter().map(|s| s.window_tc.sum).sum();
    let report_sum: f64 = report.cycles.iter().map(|c| c.timing.total()).sum();
    assert!((tc_sum - report_sum).abs() < 1e-9, "{tc_sum} vs {report_sum}");
    assert_eq!(last.tc.count, 4);

    // A104's live twin: the storm's failure burst lands inside one window,
    // so W202 fires on the stream while the run is still going.
    let fired: Vec<&str> =
        snaps.iter().flat_map(|s| &s.findings).map(|f| f.code.as_str()).collect();
    assert!(fired.contains(&"W202"), "live failure-burst rule fires, saw {fired:?}");

    // The Prometheus sink holds the final scrape.
    let prom_text = std::fs::read_to_string(&prom).unwrap();
    assert!(prom_text.contains("repex_failed_tasks_total{campaign=\"storm\"}"), "{prom_text}");
    assert!(prom_text.contains("repex_done{campaign=\"storm\"} 1"), "{prom_text}");
}

/// Kill + resume: a resumed leg appends to the same stream with strictly
/// increasing sequence numbers (the cursor survives the checkpoint), and
/// the merged stream reproduces the resumed run's final report exactly.
#[test]
fn snapshot_stream_survives_checkpoint_and_resume() {
    let cfg = quick_tremd(6, 4);
    let dir = fresh_dir("repex-it-telemetry-resume");
    let stream = dir.join("snap.jsonl");
    let ckpt = dir.join("ckpt");
    let live = || LiveTelemetry { stream: Some(stream.clone()), prom: None, campaign: None };

    let first = RemdSimulation::new(cfg)
        .unwrap()
        .with_checkpoints(&ckpt, 1)
        .with_cycle_limit(2)
        .with_live_telemetry(live())
        .run()
        .unwrap();
    assert_eq!(first.cycles.len(), 2, "stopped mid-campaign");
    let leg1 = read_stream(&stream);
    assert_eq!(leg1.len(), 2);
    assert!(!leg1.last().unwrap().done, "an interrupted leg is not done");

    let resumed = RemdSimulation::resume(&ckpt).unwrap().with_live_telemetry(live()).run().unwrap();
    assert_eq!(resumed.cycles.len(), 4, "resume finishes the campaign");

    let raw = read_stream(&stream);
    for w in raw.windows(2) {
        assert!(
            w[1].seq > w[0].seq,
            "the checkpointed cursor keeps seqs strictly increasing across the resume"
        );
    }
    let snaps = merge_snapshots(raw);
    assert_eq!(snaps.len(), 4);
    let last = snaps.last().unwrap();
    assert!(last.done);
    assert_eq!(last.completed, 4);
    assert_eq!(last.failed_tasks, resumed.failed_tasks);
    assert_eq!(last.round_trips, resumed.round_trips);
    for (i, (_, acc)) in resumed.acceptance.iter().enumerate() {
        let d = &last.dims[i];
        assert_eq!(d.attempts, acc.attempts, "dim {i}");
        assert_eq!(d.accepted, acc.accepted, "dim {i}");
    }
    // Telescoping holds across the boundary: leg 2's baseline picks up
    // exactly where leg 1's cumulative counters left off.
    assert_eq!(window_sum(&snaps, |s| s.dims[0].window_attempts), last.dims[0].attempts);
    let tc_count = window_sum(&snaps, |s| s.window_tc.count);
    assert_eq!(tc_count, 4, "every cycle's Tc lands in exactly one window");
}

/// Asynchronous pattern: snapshots are emitted per flushed exchange round,
/// and the terminal snapshot agrees with the report.
#[test]
fn async_terminal_snapshot_matches_the_report() {
    let mut cfg = quick_tremd(8, 3);
    cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    let dir = fresh_dir("repex-it-telemetry-async");
    let stream = dir.join("snap.jsonl");
    let report = RemdSimulation::new(cfg)
        .unwrap()
        .with_live_telemetry(LiveTelemetry {
            stream: Some(stream.clone()),
            prom: None,
            campaign: None,
        })
        .run()
        .unwrap();
    let snaps = merge_snapshots(read_stream(&stream));
    assert!(!snaps.is_empty());
    let last = snaps.last().unwrap();
    assert!(last.done);
    assert_eq!(last.total, 8 * 3, "segments, not cycles, for async");
    assert_eq!(last.completed, 8 * 3, "the terminal snapshot covers the full drain");
    assert_eq!(last.failed_tasks, report.failed_tasks);
    assert_eq!(last.relaunched_tasks, report.relaunched_tasks);
    assert_eq!(
        window_sum(&snaps, |s| s.window_md_segments),
        last.md_segments,
        "segment windows telescope"
    );
    assert_eq!(last.tc.count, 0, "Tc is a sync-barrier concept");
}

/// `--progress` equivalence: the line rendered off the snapshot bus must be
/// byte-identical to the old in-driver accounting (cumulative Tc histogram,
/// per-cycle straggler flags, cumulative acceptance), replayed here
/// independently from the recorded events and the report.
#[test]
fn progress_lines_match_the_old_in_driver_accounting() {
    let mut cfg = quick_tremd(16, 3);
    cfg.scenario = Some(hpc::Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 });
    let n_cycles = cfg.n_cycles;
    let n = 16usize;
    let recorder = Recorder::enabled();
    let report = RemdSimulation::new(cfg).unwrap().with_recorder(recorder.clone()).run().unwrap();
    let events = recorder.events();
    let cycle_of = |e: &obs::Event| -> Option<u64> {
        match e {
            obs::Event::MdSegment { cycle, .. }
            | obs::Event::MdPhase { cycle, .. }
            | obs::Event::ExchangeWindow { cycle, .. }
            | obs::Event::DataStage { cycle, .. }
            | obs::Event::ExchangeOutcome { cycle, .. }
            | obs::Event::Overhead { cycle, .. }
            | obs::Event::CacheRebuild { cycle, .. } => Some(*cycle),
            obs::Event::TaskRelaunch { .. } => None,
        }
    };

    // Feed the bus exactly as the sync driver does: one fold+emit per cycle.
    let mut live = obs::LiveState::new(obs::LiveConfig {
        campaign: "equiv".into(),
        n_slots: n,
        ladder_len: n,
        dim_kinds: vec!['T'],
        baseline: obs::LiveBaseline::default(),
    });

    // The old accounting, replayed independently.
    let mut old_tc = obs::LogHistogram::new();
    let mut old_stragglers = 0usize;
    let mut old_acc = (0u64, 0u64);

    for cycle in 0..n_cycles {
        let cycle_events: Vec<obs::Event> =
            events.iter().filter(|e| cycle_of(e) == Some(cycle)).cloned().collect();
        assert!(!cycle_events.is_empty());
        for e in &cycle_events {
            live.fold(e);
        }
        let snap = live.emit(
            &obs::EmitStats {
                completed: cycle + 1,
                total: n_cycles,
                time: 0.0,
                failed_tasks: 0,
                relaunched_tasks: 0,
                done: cycle + 1 == n_cycles,
            },
            0,
            0,
        );

        old_tc.record(report.cycles[cycle as usize].timing.total());
        old_stragglers +=
            obs::timeline_stats(&cycle_events, obs::StragglerPolicy::default()).straggler_count;
        for e in &cycle_events {
            if let obs::Event::ExchangeOutcome { accepted, .. } = e {
                old_acc.0 += 1;
                old_acc.1 += u64::from(*accepted);
            }
        }
        let ratio = if old_acc.0 == 0 { 0.0 } else { old_acc.1 as f64 / old_acc.0 as f64 };
        let old_line = format!(
            "[repex] cycle {}/{}  Tc p50 {:.2}s p99 {:.2}s  acc[T] {:.2} stragglers {}",
            cycle + 1,
            n_cycles,
            old_tc.p50(),
            old_tc.p99(),
            ratio,
            old_stragglers,
        );
        assert_eq!(obs::render_progress_line(&snap), old_line, "cycle {cycle}");
    }
}
