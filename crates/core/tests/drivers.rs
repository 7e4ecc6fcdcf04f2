//! Driver-level tests of the two RE patterns through the crate's public API
//! (`build_ctx`, `make_pilot`, `run_sync`/`run_async`, pub `DriverCtx`
//! fields).

use hpc::fault::FaultModel;
use hpc::SimTime;
use obs::Event;
use pilot::description::UnitDescription;
use pilot::executor::{CompletedUnit, Executor, TaskWork, UnitId};
use repex::checkpoint::{CampaignCheckpoint, SchedulerState};
use repex::config::{DimensionConfig, FaultPolicy, Pattern, SimulationConfig, Workload};
use repex::emm::asynchronous::run_async;
use repex::emm::sync::run_sync;
use repex::emm::{DriverCtx, WINDOW};
use repex::report::{CycleReport, SimulationReport};
use repex::simulation::{build_ctx, make_pilot, RemdSimulation};
use repex::task::TaskResult;
use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};

const ASYNC: Pattern = Pattern::Asynchronous { tick_fraction: 0.25 };

fn quick_cfg(n: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(n, 600, 2);
    cfg.surrogate_steps = 10;
    cfg.sample_stride = 5;
    cfg
}

fn async_cfg(n: usize, segments: u64) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(n, 600, segments);
    cfg.pattern = ASYNC;
    cfg.surrogate_steps = 10;
    cfg
}

/// A 3 × 2 × 2 T/S/U grid: twelve replicas, three dimension passes a cycle.
fn tsu_cfg(n_cycles: u64) -> SimulationConfig {
    let mut cfg = quick_cfg(0);
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 3 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 0.5, count: 2 },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: 2, k_deg: 0.02 },
    ];
    cfg.n_cycles = n_cycles;
    cfg
}

/// Run whichever pattern the context is configured for.
fn run(ctx: &mut DriverCtx) {
    match ctx.cfg.pattern {
        Pattern::Synchronous => drop(run_sync(ctx).expect("the sync campaign runs")),
        Pattern::Asynchronous { .. } => drop(run_async(ctx).expect("the async campaign runs")),
    }
}

fn assert_slot_bijection(ctx: &DriverCtx) {
    let n = ctx.n_replicas();
    let (owner, slot_of) = (ctx.ledger.owner(), ctx.ledger.slot_of());
    let mut owners = owner.to_vec();
    owners.sort_unstable();
    assert_eq!(owners, (0..n).collect::<Vec<_>>(), "the walk is a permutation");
    for (slot, &replica) in owner.iter().enumerate() {
        assert_eq!(slot_of[replica], slot, "replica {replica} disagrees with slot {slot}");
    }
}

// ---------------------------------------------------------------------------
// Both policies under fault injection: one table.
// ---------------------------------------------------------------------------

/// `{sync, async} × {MTBF 20/30/40 s} × {Continue, Relaunch{25}}`: MTBFs
/// comparable to the 14 s segment, so every row sees plenty of failures.
#[test]
fn fault_policies_hold_for_both_patterns() {
    let n = 16;
    let n_cycles = 3;
    for pattern in [Pattern::Synchronous, ASYNC] {
        for mtbf in [20.0, 30.0, 40.0] {
            for policy in [FaultPolicy::Continue, FaultPolicy::Relaunch { max_retries: 25 }] {
                let row = format!("{pattern:?} mtbf={mtbf} {policy:?}");
                let mut cfg = quick_cfg(n);
                cfg.pattern = pattern;
                cfg.n_cycles = n_cycles;
                cfg.fault_policy = policy;
                let recorder = obs::Recorder::enabled();
                let mut ctx = build_ctx(cfg).unwrap();
                ctx.recorder = recorder.clone();
                ctx.pilot = make_pilot(&ctx.cfg, FaultModel::new(mtbf).unwrap()).unwrap();
                run(&mut ctx);
                let events = recorder.events();

                assert!(ctx.failed_tasks > 0, "{row}: fault injection produced no failures");
                let failed_md = events
                    .iter()
                    .filter(|e| matches!(e, Event::MdSegment { ok: false, .. }))
                    .count() as u64;
                let done: u64 = ctx.replicas.iter().map(|r| r.segments_done).sum();
                // Each replica counts its own failed attempts — what its
                // checkpoint record says — and a failed exchange is nobody's.
                for r in &ctx.replicas {
                    let own = events.iter().filter(|e| {
                        matches!(e, Event::MdSegment { ok: false, replica, .. } if *replica == r.id)
                    });
                    assert_eq!(
                        u64::from(r.failures),
                        own.count() as u64,
                        "{row}: replica {}",
                        r.id
                    );
                }
                let counted: u64 = ctx.replicas.iter().map(|r| u64::from(r.failures)).sum();
                assert_eq!(counted, failed_md, "{row}");
                assert!(counted <= ctx.failed_tasks, "{row}: the rest are exchanges");
                let relaunching = matches!(policy, FaultPolicy::Relaunch { .. });
                if relaunching {
                    assert!(ctx.relaunched_tasks > 0, "{row}: relaunch policy must retry");
                    assert_eq!(ctx.relaunched_tasks, failed_md, "{row}: every MD failure retried");
                } else {
                    assert_eq!(ctx.relaunched_tasks, 0, "{row}");
                }
                // With generous retries every replica completes every
                // segment; so does an async Continue run, whose stale
                // replicas rejoin through the ready set. Only the barrier
                // gives a failed segment up: the replica sits the cycle out.
                if relaunching || pattern == ASYNC {
                    for r in &ctx.replicas {
                        assert_eq!(r.segments_done, n_cycles, "{row}: replica {} incomplete", r.id);
                    }
                } else {
                    assert!(failed_md > 0, "{row}: some replica must have gone stale");
                    assert_eq!(done + failed_md, n as u64 * n_cycles, "{row}");
                }
                assert_slot_bijection(&ctx);

                // Per-attempt unit names: every segment in the trace is a
                // distinct (replica, cycle, dim, attempt) tuple, so a retry
                // can never look up, reset or inherit another attempt's
                // bookkeeping.
                let mut seen = HashSet::new();
                let mut max_attempt = 0;
                for event in &events {
                    if let Event::MdSegment { replica, cycle, dim, attempt, .. } = *event {
                        assert!(
                            seen.insert((replica, cycle, dim, attempt)),
                            "{row}: duplicate attempt tuple r{replica} c{cycle} d{dim} a{attempt}"
                        );
                        max_attempt = max_attempt.max(attempt);
                    }
                }
                // (An async Continue resubmission also bumps the attempt:
                // that is what lets it escape its deterministic failure.)
                assert_eq!(max_attempt > 0, relaunching || pattern == ASYNC, "{row}");

                // The driver's whole ledger — acceptance, the walk and the
                // round-trip tracker — is derivable from the trace alone:
                // the ledger takes its window records where the trace has
                // its windows.
                assert!(ctx.ledger.dims()[0].attempts > 0, "{row}");
                assert!(ctx.ledger.round_trips().is_some(), "{row}");
                assert_eq!(obs::ExchangeLedger::from_trace(&events), ctx.ledger, "{row}");
                // Every outcome precedes its covering window in stream order.
                let mut closed = HashSet::new();
                let mut attempted = HashSet::new();
                for event in &events {
                    match *event {
                        Event::ExchangeOutcome { dim, cycle, .. } => {
                            assert!(!closed.contains(&(dim, cycle)), "{row}: outcome after window");
                            attempted.insert((dim, cycle));
                        }
                        Event::ExchangeWindow { dim, cycle, .. } => {
                            closed.insert((dim, cycle));
                        }
                        _ => {}
                    }
                }
                assert!(attempted.is_subset(&closed), "{row}: outcomes without a window");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Barrier policy.
// ---------------------------------------------------------------------------

#[test]
fn sync_cycle_produces_timing_decomposition() {
    let mut ctx = build_ctx(quick_cfg(8)).unwrap();
    let reports = run_sync(&mut ctx).unwrap();
    assert_eq!(reports.len(), 2);
    let t = &reports[0].timing;
    // MD time ≈ model (600 steps): 139.6 * 600/6000 = 13.96, plus noise.
    assert!((t.t_md - 13.96).abs() < 2.0, "t_md = {}", t.t_md);
    assert_eq!(t.t_ex.len(), 1);
    assert!(t.t_ex[0].1 > 0.0);
    assert!(t.t_data > 0.0);
    assert!(t.t_repex_over > 0.0);
    assert!(t.t_rp_over > 0.0);
    assert!(t.total() > t.t_md);
}

#[test]
fn all_replicas_advance_every_cycle() {
    let mut ctx = build_ctx(quick_cfg(6)).unwrap();
    run_sync(&mut ctx).unwrap();
    for r in &ctx.replicas {
        assert_eq!(r.segments_done, 2);
        assert!(!r.stale);
    }
    // Samples collected under every window.
    assert_eq!(ctx.window_samples.len(), 6);
}

#[test]
fn exchanges_actually_happen() {
    let mut cfg = quick_cfg(8);
    cfg.n_cycles = 6;
    let mut ctx = build_ctx(cfg).unwrap();
    run_sync(&mut ctx).unwrap();
    let acc = &ctx.ledger.dims()[0];
    assert!(acc.attempts >= 18, "6 cycles × ~3.5 pairs: {}", acc.attempts);
    // The reduced dipeptide at neighbouring geometric temperatures
    // exchanges readily; some acceptances must occur.
    assert!(acc.accepted > 0, "no exchanges accepted in {} attempts", acc.attempts);
    assert_slot_bijection(&ctx);
}

#[test]
fn mode_ii_runs_in_waves() {
    // 16 replicas on 4 cores: MD phase must take ~4x one segment.
    let mut cfg = quick_cfg(16);
    cfg.resource.cores = Some(4);
    cfg.n_cycles = 1;
    let mut ctx = build_ctx(cfg).unwrap();
    assert_eq!(ctx.cfg.execution_mode().unwrap(), 2);
    let reports = run_sync(&mut ctx).unwrap();
    let t_md = reports[0].timing.t_md;
    let one = 139.6 * 600.0 / 6000.0;
    assert!(t_md > 3.5 * one && t_md < 4.8 * one, "t_md = {t_md}, one segment = {one}");
}

#[test]
fn no_exchange_baseline_skips_exchange() {
    let mut cfg = quick_cfg(8);
    cfg.no_exchange = true;
    let mut ctx = build_ctx(cfg).unwrap();
    let reports = run_sync(&mut ctx).unwrap();
    assert_eq!(reports[0].timing.t_ex[0].1, 0.0);
    assert_eq!(ctx.ledger.dims()[0].attempts, 0);
}

/// Each cycle's reported Eq. 1 record is the fold of the trace its run
/// recorded, bit for bit, and the barrier folds it whether or not a
/// recorder is on: the same run untraced reports the same cycles.
#[test]
fn reported_timing_is_derived_from_the_event_stream() {
    let mut mode2 = quick_cfg(16);
    mode2.resource.cores = Some(4);
    let mut no_exchange = quick_cfg(8);
    no_exchange.no_exchange = true;
    let mut storm = quick_cfg(16);
    storm.n_cycles = 3;
    storm.scenario = Some(hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 20.0,
        period_seconds: 60.0,
        storm_fraction: 0.5,
    });
    storm.fault_policy = FaultPolicy::Relaunch { max_retries: 25 };
    let cases = [
        ("1-D T", quick_cfg(8)),
        ("3-D TSU", tsu_cfg(2)),
        ("Mode II, 16 replicas on 4 cores", mode2),
        ("no exchange", no_exchange),
        ("failure storm, relaunch", storm),
    ];
    // `Debug` spells each term at full precision: equal text, equal bits.
    let bits = |reports: &[CycleReport]| format!("{reports:?}");
    for (row, cfg) in cases {
        let recorder = obs::Recorder::enabled();
        let mut ctx = build_ctx(cfg.clone()).unwrap();
        ctx.pilot.executor.set_recorder(recorder.clone());
        ctx.recorder = recorder.clone();
        let traced = run_sync(&mut ctx).unwrap();
        assert_eq!(traced.len() as u64, ctx.cfg.n_cycles, "{row}");
        assert_eq!(ctx.failed_tasks > 0, cfg.scenario.is_some(), "{row}");
        let folded: Vec<CycleReport> = obs::cycle_breakdowns(&recorder.events())
            .into_iter()
            .map(|timing| CycleReport { cycle: timing.cycle, timing })
            .collect();
        assert_eq!(bits(&traced), bits(&folded), "{row}: the report is the trace's fold");
        let untraced = run_sync(&mut build_ctx(cfg).unwrap()).unwrap();
        assert_eq!(bits(&untraced), bits(&traced), "{row}: the recorder moves no term");
    }
}

#[test]
fn multidim_cycle_has_exchange_per_dimension() {
    let mut ctx = build_ctx(tsu_cfg(1)).unwrap();
    assert_eq!(ctx.n_replicas(), 12);
    let reports = run_sync(&mut ctx).unwrap();
    let t = &reports[0].timing;
    assert_eq!(t.t_ex.len(), 3, "one exchange per dimension");
    let letters: String = t.t_ex.iter().map(|(k, _)| k).collect();
    assert_eq!(letters, "TSU");
    // MD runs once per dimension: t_md ≈ 3 segments.
    let one = 139.6 * 600.0 / 6000.0;
    assert!((t.t_md - 3.0 * one).abs() < 3.0, "t_md = {}", t.t_md);
    // Salt exchange dominates T/U (calibrated model).
    let t_ex: f64 = t.t_ex[0].1;
    let s_ex: f64 = t.t_ex[1].1;
    assert!(s_ex > t_ex, "S ({s_ex}) should exceed T ({t_ex})");
}

/// A campaign interrupted at a cycle barrier and restored from an in-memory
/// checkpoint equals its uninterrupted twin exactly — same failures and
/// retries, same exchange decisions, same per-cycle timings, same virtual
/// clock, same trace. (No file: `tests/it_fault_tolerance.rs` has the twin
/// that goes through `checkpoint.json`.)
#[test]
fn interrupted_sync_campaign_resumes_bit_exactly() {
    let mut cfg = quick_cfg(8);
    cfg.n_cycles = 4;
    cfg.fault_mtbf_seconds = Some(30.0);
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 5 };
    let traced = |mut ctx: DriverCtx, recorder: &obs::Recorder| {
        ctx.pilot.executor.set_recorder(recorder.clone());
        ctx.recorder = recorder.clone();
        ctx
    };

    let rec_full = obs::Recorder::enabled();
    let mut full = traced(build_ctx(cfg.clone()).unwrap(), &rec_full);
    let full_reports = run_sync(&mut full).unwrap();
    assert!(full.failed_tasks > 0, "the scenario must exercise the fault path");
    assert!(full.relaunched_tasks > 0, "and the retry path");

    let rec_split = obs::Recorder::enabled();
    let mut head = traced(build_ctx(cfg).unwrap(), &rec_split);
    head.cycle_limit = Some(2);
    let head_reports = run_sync(&mut head).unwrap();
    assert_eq!(head_reports.len(), 2, "interrupted mid-campaign");
    let checkpoint = CampaignCheckpoint::capture(
        &head,
        SchedulerState::Sync { cycles_done: head.completed_cycles },
        &head_reports,
    );
    drop(head);
    let checkpoint_failures: u32 = checkpoint.replicas.iter().map(|r| r.failures).sum();
    let mut tail = traced(checkpoint.restore().unwrap(), &rec_split);
    let reports = run_sync(&mut tail).unwrap();

    assert_eq!(reports.len(), full_reports.len());
    for (a, b) in reports.iter().zip(&full_reports) {
        assert_eq!((a.cycle, &a.timing), (b.cycle, &b.timing), "Eq. 1 timings replay exactly");
    }
    let makespan = |ctx: &DriverCtx| ctx.pilot.executor.now().as_secs();
    assert_eq!(makespan(&tail).to_bits(), makespan(&full).to_bits(), "fast-forwarded clock");
    let utilization =
        |ctx: &DriverCtx| ctx.md_core_seconds / (ctx.pilot.cores() as f64 * makespan(ctx)) * 100.0;
    assert_eq!(utilization(&tail).to_bits(), utilization(&full).to_bits());
    assert_eq!(tail.failed_tasks, full.failed_tasks);
    assert_eq!(tail.relaunched_tasks, full.relaunched_tasks);
    // Per-replica failure counts cross the checkpoint and keep counting.
    let failures = |ctx: &DriverCtx| ctx.replicas.iter().map(|r| r.failures).collect::<Vec<_>>();
    assert_eq!(failures(&tail), failures(&full));
    assert!(checkpoint_failures > 0, "some were counted before the interruption");
    assert!(failures(&full).iter().sum::<u32>() > checkpoint_failures, "and some after it");
    assert_eq!(tail.ledger, full.ledger);
    assert_eq!(tail.pair_acceptance, full.pair_acceptance);
    assert_eq!(tail.rung_history, full.rung_history);
    // The two legs' concatenated trace IS the full trace. CacheRebuild
    // counts depend on in-memory neighbour-list state a restart legitimately
    // does not carry (and on a process-wide counter other tests bump).
    let strip = |events: Vec<Event>| -> Vec<Event> {
        events.into_iter().filter(|e| !matches!(e, Event::CacheRebuild { .. })).collect()
    };
    assert_eq!(strip(rec_split.events()), strip(rec_full.events()));
}

/// A checkpoint taken while a segment is in flight stores that replica's
/// microstate from *before* the segment — kept as a state and rendered by
/// `capture` — and everyone else's live one.
#[test]
fn async_in_flight_uses_preseg_snapshot() {
    use mdsim::io::restart::write_restart_with_cycle;
    use repex::checkpoint::AsyncSchedulerState;
    use repex::replica::lock_system;

    let mut ctx = build_ctx(async_cfg(4, 2)).unwrap();
    let before = lock_system(&ctx.replicas[1].system).state.clone();
    ctx.preseg_snapshots.insert(1, (before.clone(), 3));
    // The segment already ran eagerly: the live System has moved on.
    for replica in [0, 1] {
        lock_system(&ctx.replicas[replica].system).state.positions[0] =
            mdsim::Vec3::new(9.0, 9.0, 9.0);
    }
    let st = AsyncSchedulerState { in_flight: vec![(1, 0)], ..Default::default() };
    let cp = CampaignCheckpoint::capture(&ctx, SchedulerState::Async(st), &[]);
    assert_eq!(
        cp.replicas[1].restart,
        write_restart_with_cycle("replica 1", &before, 3),
        "in-flight replica stores the pre-segment state"
    );
    let live = lock_system(&ctx.replicas[0].system).state.clone();
    assert_eq!(cp.replicas[0].restart, write_restart_with_cycle("replica 0", &live, 0));
}

// ---------------------------------------------------------------------------
// Tick policy.
// ---------------------------------------------------------------------------

#[test]
fn all_replicas_complete_their_segments() {
    let mut ctx = build_ctx(async_cfg(8, 3)).unwrap();
    let out = run_async(&mut ctx).unwrap();
    for r in &ctx.replicas {
        assert_eq!(r.segments_done, 3, "replica {} incomplete", r.id);
    }
    assert!(out.makespan > 0.0);
    assert!(out.exchange_rounds > 0, "ticks must trigger exchange rounds");
}

#[test]
fn exchanges_happen_without_global_barrier() {
    let mut ctx = build_ctx(async_cfg(12, 4)).unwrap();
    run_async(&mut ctx).unwrap();
    assert!(ctx.ledger.dims()[0].attempts > 0, "async rounds attempted exchanges");
    assert_slot_bijection(&ctx);
}

/// The shared exchange handler feeds the per-pair table for async runs too
/// (it used to stay empty, starving the adaptive ladder optimiser and the
/// `pair.NNN.*` counters).
#[test]
fn async_report_carries_pair_acceptance() {
    let report = RemdSimulation::new(async_cfg(12, 4)).unwrap().run().unwrap();
    assert_eq!(report.pair_acceptance.len(), 11, "one entry per neighbour pair");
    // Neighbour pairing: every attempt is between adjacent slots, so the
    // pair table sums to the dimension's totals.
    let total = report.acceptance[0].1;
    assert!(total.attempts > 0);
    assert_eq!(report.pair_acceptance.iter().map(|p| p.attempts).sum::<u64>(), total.attempts);
    assert_eq!(report.pair_acceptance.iter().map(|p| p.accepted).sum::<u64>(), total.accepted);
}

#[test]
fn async_makespan_close_to_sync_md_total() {
    // With small noise the async makespan should be within ~40% of
    // segments × segment time (plus exchange/tick waits).
    let mut ctx = build_ctx(async_cfg(8, 3)).unwrap();
    let seg = ctx.md_model_seconds();
    let out = run_async(&mut ctx).unwrap();
    assert!(out.makespan >= 3.0 * seg, "{} vs {}", out.makespan, 3.0 * seg);
    assert!(out.makespan < 3.0 * seg * 1.8, "{} vs {}", out.makespan, 3.0 * seg);
}

#[test]
fn traced_async_run_records_every_segment_and_round() {
    let recorder = obs::Recorder::enabled();
    let mut ctx = build_ctx(async_cfg(8, 3)).unwrap();
    ctx.recorder = recorder.clone();
    let out = run_async(&mut ctx).unwrap();
    let events = recorder.events();
    let md_ok = events.iter().filter(|e| matches!(e, Event::MdSegment { ok: true, .. })).count();
    assert_eq!(md_ok, 8 * 3, "one event per completed segment");
    let windows = events.iter().filter(|e| matches!(e, Event::ExchangeWindow { .. })).count();
    assert!(windows as u64 <= out.exchange_rounds);
    assert!(windows > 0, "tick rounds must appear in the trace");
    // Every segment is attributable to a replica with finite bounds.
    for e in &events {
        if let Event::MdSegment { replica, start, end, .. } = e {
            assert!(*replica < 8);
            assert!(end > start);
        }
    }
}

#[test]
fn min_ready_window_still_completes_all_segments() {
    let mut cfg = async_cfg(8, 3);
    cfg.async_min_ready = Some(4);
    let mut ctx = build_ctx(cfg).unwrap();
    let out = run_async(&mut ctx).unwrap();
    for r in &ctx.replicas {
        assert_eq!(r.segments_done, 3, "replica {} incomplete", r.id);
    }
    assert!(out.makespan > 0.0);
}

#[test]
fn barrier_sized_min_ready_degenerates_but_terminates() {
    // min-ready == n acts like a global barrier; the run must still
    // finish (the final drain flushes the last rounds).
    let mut cfg = async_cfg(6, 2);
    cfg.async_min_ready = Some(6);
    let mut ctx = build_ctx(cfg).unwrap();
    run_async(&mut ctx).unwrap();
    for r in &ctx.replicas {
        assert_eq!(r.segments_done, 2);
    }
}

#[test]
fn sync_config_is_rejected() {
    let mut cfg = async_cfg(4, 1);
    cfg.pattern = Pattern::Synchronous;
    let mut ctx = build_ctx(cfg).unwrap();
    assert!(run_async(&mut ctx).is_err());
}

/// A solvated box under two cutoffs wide is refused by validation (C023)
/// instead of panicking in the model builder or dropping interactions.
#[test]
fn undersized_solvated_workload_is_refused_not_built() {
    for (atoms, refused) in [(0, true), (6, true), (150, true), (600, false), (2881, false)] {
        let mut cfg = quick_cfg(2);
        cfg.workload = Some(Workload::DipeptideSolvated { atoms });
        let found = cfg.validate_diagnostics();
        let hit = found.iter().find(|d| d.code == "C023");
        assert_eq!(hit.is_some(), refused, "{atoms} atoms: {found:?}");
        assert!(hit.is_none_or(|d| d.path.as_deref() == Some("/workload/atoms")));
        assert_eq!(build_ctx(cfg).is_err(), refused, "{atoms} atoms");
    }
}

// ---------------------------------------------------------------------------
// The MD wave against its one-unit-at-a-time oracle; staging retention.
// ---------------------------------------------------------------------------

/// A tap on the pilot's executor. With `batch` off, a wave goes to the inner
/// executor through `submit`, unit by unit — what the trait's default
/// `submit_batch` does, and the oracle for the simulated executor's threaded
/// wave (no thread-count knob needed). Either way it keeps the message of
/// every failed unit, which the driver only counts.
struct Tap {
    inner: Box<dyn Executor<TaskResult>>,
    batch: bool,
    errors: Arc<Mutex<Vec<String>>>,
}

impl Executor<TaskResult> for Tap {
    fn submit(&mut self, d: UnitDescription, w: TaskWork<TaskResult>) -> Result<UnitId, String> {
        self.inner.submit(d, w)
    }
    fn submit_batch(
        &mut self,
        units: Vec<(UnitDescription, TaskWork<TaskResult>)>,
    ) -> Result<Vec<UnitId>, String> {
        if self.batch {
            return self.inner.submit_batch(units);
        }
        units.into_iter().map(|(d, w)| self.inner.submit(d, w)).collect()
    }
    fn next_completion(&mut self) -> Option<CompletedUnit<TaskResult>> {
        let unit = self.inner.next_completion()?;
        if let Err(message) = &unit.outcome {
            self.errors.lock().expect("no holder panics").push(message.clone());
        }
        Some(unit)
    }
    fn now(&self) -> SimTime {
        self.inner.now()
    }
    fn n_cores(&self) -> usize {
        self.inner.n_cores()
    }
    fn charge_overhead(&mut self, seconds: f64) {
        self.inner.charge_overhead(seconds)
    }
    fn overhead_charged(&self) -> f64 {
        self.inner.overhead_charged()
    }
    fn fast_forward(&mut self, to_seconds: f64) {
        self.inner.fast_forward(to_seconds)
    }
    fn set_recorder(&mut self, recorder: obs::Recorder) {
        self.inner.set_recorder(recorder)
    }
}

/// Everything observable about a finished campaign, floats as bits.
#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<Event>,
    counters: BTreeMap<String, u64>,
    cycles: Vec<(u64, obs::CycleBreakdown)>,
    makespan: u64,
    md_core_seconds: u64,
    failed: u64,
    relaunched: u64,
    ledger: obs::ExchangeLedger,
    pair_acceptance: Vec<exchange::stats::AcceptanceStats>,
    rung_history: Vec<Vec<usize>>,
    segments_done: Vec<u64>,
    /// Messages of the failed units, in completion order.
    errors: Vec<String>,
    staged_files: usize,
}

/// Run `cfg` to the end, traced, through a [`Tap`].
fn campaign(cfg: SimulationConfig, batch: bool) -> Outcome {
    let recorder = obs::Recorder::enabled();
    let mut ctx = build_ctx(cfg).expect("a valid config");
    let errors = Arc::new(Mutex::new(Vec::new()));
    let placeholder = Box::new(pilot::SimExecutor::new(1, 0));
    let inner = std::mem::replace(&mut ctx.pilot.executor, placeholder);
    ctx.pilot.executor = Box::new(Tap { inner, batch, errors: Arc::clone(&errors) });
    ctx.pilot.executor.set_recorder(recorder.clone());
    ctx.recorder = recorder.clone();
    let cycles = match ctx.cfg.pattern {
        Pattern::Synchronous => run_sync(&mut ctx).expect("the sync campaign runs"),
        Pattern::Asynchronous { .. } => {
            run_async(&mut ctx).map(|_| Vec::new()).expect("the async campaign runs")
        }
    };
    assert_slot_bijection(&ctx);
    // CacheRebuild carries a process-wide counter other tests bump.
    let events = recorder
        .events()
        .into_iter()
        .filter(|e| !matches!(e, Event::CacheRebuild { .. }))
        .collect();
    let errors = errors.lock().expect("no holder panics").clone();
    Outcome {
        events,
        counters: recorder.counters(),
        cycles: cycles.into_iter().map(|c| (c.cycle, c.timing)).collect(),
        makespan: ctx.pilot.executor.now().as_secs().to_bits(),
        md_core_seconds: ctx.md_core_seconds.to_bits(),
        failed: ctx.failed_tasks,
        relaunched: ctx.relaunched_tasks,
        ledger: ctx.ledger.clone(),
        pair_acceptance: ctx.pair_acceptance.clone(),
        rung_history: ctx.rung_history.clone(),
        segments_done: ctx.replicas.iter().map(|r| r.segments_done).collect(),
        errors,
        staged_files: ctx.pilot.staging.len(),
    }
}

/// The fault table of `fault_policies_hold_for_both_patterns` plus a Mode II
/// and a 3-D TSU campaign: submitting a wave as one batch (payloads on the
/// host's cores) and unit by unit give the same campaign, event for event.
#[test]
fn a_batched_wave_equals_one_unit_at_a_time() {
    let mut cases = Vec::new();
    for pattern in [Pattern::Synchronous, ASYNC] {
        for mtbf in [20.0, 30.0, 40.0] {
            for policy in [FaultPolicy::Continue, FaultPolicy::Relaunch { max_retries: 25 }] {
                let mut cfg = quick_cfg(16);
                cfg.pattern = pattern;
                cfg.n_cycles = 3;
                cfg.fault_mtbf_seconds = Some(mtbf);
                cfg.fault_policy = policy;
                cases.push((format!("{pattern:?} mtbf={mtbf} {policy:?}"), cfg));
            }
        }
    }
    let mut mode2 = quick_cfg(16);
    mode2.resource.cores = Some(4);
    cases.push(("Mode II, 16 replicas on 4 cores".into(), mode2));
    cases.push(("3-D TSU".into(), tsu_cfg(2)));
    for (row, cfg) in cases {
        let faulty = cfg.fault_mtbf_seconds.is_some();
        let batched = campaign(cfg.clone(), true);
        let one_by_one = campaign(cfg, false);
        assert_eq!(batched, one_by_one, "{row}");
        assert!(!batched.events.is_empty(), "{row}");
        assert_eq!(batched.failed > 0, faulty, "{row}");
    }
}

/// What a report says, floats as bits (a timing's `Debug` spells each term
/// at full precision).
#[derive(Debug, PartialEq)]
struct Said {
    makespan: u64,
    utilization: u64,
    cycles: String,
    acceptance: Vec<(char, exchange::stats::AcceptanceStats)>,
    pair_acceptance: Vec<exchange::stats::AcceptanceStats>,
    rung_history: Vec<Vec<usize>>,
    round_trips: u64,
    failed: u64,
    relaunched: u64,
}

fn said(report: &SimulationReport) -> Said {
    Said {
        makespan: report.makespan.to_bits(),
        utilization: report.utilization_percent.to_bits(),
        cycles: format!("{:?}", report.cycles),
        acceptance: report.acceptance.clone(),
        pair_acceptance: report.pair_acceptance.clone(),
        rung_history: report.rung_history.clone(),
        round_trips: report.round_trips,
        failed: report.failed_tasks,
        relaunched: report.relaunched_tasks,
    }
}

/// A wave that spans three windows reports the same with a recorder as
/// without one: the per-unit events only a recorder receives feed nothing
/// else, and no window moves the clock.
#[test]
fn a_three_window_wave_reports_the_same_with_and_without_a_recorder() {
    let n = 2 * WINDOW + WINDOW / 2;
    let mut mode_ii = quick_cfg(n);
    mode_ii.resource.cores = Some(n / 4);
    mode_ii.fault_mtbf_seconds = Some(60.0);
    mode_ii.fault_policy = FaultPolicy::Relaunch { max_retries: 25 };
    let rows = [
        ("sync, Mode I", quick_cfg(n)),
        ("sync, Mode II, relaunched faults", mode_ii),
        ("async", async_cfg(n, 2)),
    ];
    for (row, cfg) in rows {
        let plain = RemdSimulation::new(cfg.clone()).unwrap().run().unwrap();
        let recorder = obs::Recorder::enabled();
        let traced = RemdSimulation::new(cfg).unwrap().with_recorder(recorder.clone()).run();
        let traced = traced.unwrap();
        assert!(!recorder.events().is_empty(), "{row}");
        assert_eq!(said(&traced), said(&plain), "{row}");
        if row.contains("relaunched") {
            assert!(plain.failed_tasks > 0 && plain.relaunched_tasks > 0, "{row}");
        }
    }
}

/// Retiring a replica's previous segment when its next one is submitted
/// bounds the staging area by one segment per replica and never starves a
/// reader: no payload fails on its own (a missing file would), whatever the
/// pattern, fault policy or number of dimension passes sharing a file base.
#[test]
fn staging_is_bounded_and_retiring_never_starves_a_reader() {
    // (what, config, staged files per segment)
    let mut cases = Vec::new();
    let mut sync = quick_cfg(8);
    sync.n_cycles = 10;
    cases.push(("sync, 10 cycles", sync.clone(), 3));
    sync.fault_mtbf_seconds = Some(30.0);
    cases.push(("sync, Continue under faults", sync.clone(), 3));
    sync.fault_policy = FaultPolicy::Relaunch { max_retries: 25 };
    cases.push(("sync, Relaunch under faults", sync, 3));
    for policy in [FaultPolicy::Continue, FaultPolicy::Relaunch { max_retries: 25 }] {
        let mut cfg = async_cfg(8, 10);
        cfg.fault_mtbf_seconds = Some(30.0);
        cfg.fault_policy = policy;
        cases.push(("async under faults", cfg, 3));
    }
    // Umbrella windows add a restraint file per segment.
    cases.push(("3-D TSU, one base per cycle across three passes", tsu_cfg(4), 4));
    for (what, cfg, files_per_segment) in cases {
        let n = cfg.build_grid().unwrap().n_slots();
        let faulty = cfg.fault_mtbf_seconds.is_some();
        let done = campaign(cfg, true);
        assert!(done.staged_files <= files_per_segment * n, "{what}: {}", done.staged_files);
        assert!(done.staged_files >= n, "{what}: each replica's last segment stays");
        assert_eq!(done.failed > 0, faulty, "{what}");
        for message in &done.errors {
            assert!(message.starts_with("injected task failure"), "{what}: {message}");
        }
    }
}
