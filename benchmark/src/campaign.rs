//! Running a workload's campaign through `repex::simulation::RemdSimulation`
//! (closed loop, one client, one thread, simulated backend) and turning the
//! runs into end-to-end metrics, per-layer metrics and checks.

use crate::checks::{ensure, Checks};
use crate::probes::{self, Metrics};
use crate::spans::Spans;
use crate::stats::median;
use crate::sys;
use crate::workloads::{Scale, WorkloadSpec};
use obs::{Event, Recorder};
use repex::config::{Pattern, SimulationConfig, Workload};
use repex::report::SimulationReport;
use repex::simulation::RemdSimulation;
use std::time::Instant;

/// How much to run. `Full` is what gets reported; `Quick` runs every check
/// on small sizes and its timings are not meant to be read.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub scale: Scale,
    /// At least this many set-ups (config from the seed +
    /// `RemdSimulation::new`) per run; `setup_s` is their median.
    pub min_setups: usize,
    /// Timed repeats continue until this many seconds have been measured...
    pub seconds: f64,
    /// ...and at least this many repeats exist.
    pub min_repeats: usize,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan { scale: Scale::Full, min_setups: 5, seconds, min_repeats: 3 }
    }

    pub fn quick() -> Plan {
        Plan { scale: Scale::Quick, min_setups: 2, seconds: 0.0, min_repeats: 2 }
    }
}

/// Everything that must be bit-identical between repeats of one seed, and
/// between traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
struct Fingerprint {
    makespan_bits: u64,
    utilization_bits: u64,
    failed_tasks: u64,
    relaunched_tasks: u64,
    /// (dimension letter, attempts, accepted)
    acceptance: Vec<(char, u64, u64)>,
    round_trips: u64,
}

impl Fingerprint {
    fn of(r: &SimulationReport) -> Fingerprint {
        Fingerprint {
            makespan_bits: r.makespan.to_bits(),
            utilization_bits: r.utilization_percent.to_bits(),
            failed_tasks: r.failed_tasks,
            relaunched_tasks: r.relaunched_tasks,
            acceptance: r.acceptance.iter().map(|(l, a)| (*l, a.attempts, a.accepted)).collect(),
            round_trips: r.round_trips,
        }
    }
}

/// What one mode measured: the metrics by catalogue name, and the raw
/// per-repeat samples behind the medians (kept in the run record).
pub struct Measured {
    pub metrics: Metrics,
    pub raw: Vec<(&'static str, Vec<f64>)>,
}

struct CampaignRun {
    report: SimulationReport,
    new_s: f64,
    wall_s: f64,
    cpu_s: f64,
}

/// One campaign = one attempted operation: build, run, and check the report
/// has the configured shape.
fn run_campaign(
    spans: &mut Spans,
    checks: &mut Checks,
    cfg: SimulationConfig,
    recorder: Recorder,
) -> Option<CampaignRun> {
    checks.attempt("campaign", || {
        let replicas = cfg.n_replicas()?;
        let cycles = match cfg.pattern {
            Pattern::Synchronous => cfg.n_cycles as usize,
            // The asynchronous driver has no global cycles to report.
            Pattern::Asynchronous { .. } => 0,
        };
        let (sim, new_s) = spans.time("repex.new", |_| RemdSimulation::new(cfg));
        let sim = sim?.with_recorder(recorder);
        let cpu0 = sys::thread_cpu_seconds()?;
        let (report, wall_s) = spans.time("repex.run", |_| sim.run());
        let cpu_s = sys::thread_cpu_seconds()? - cpu0;
        let report = report?;
        ensure(report.n_replicas == replicas && report.cycles.len() == cycles, || {
            format!(
                "report has {} replicas / {} cycles, configured {replicas} / {cycles}",
                report.n_replicas,
                report.cycles.len()
            )
        })?;
        Ok(CampaignRun { report, new_s, wall_s, cpu_s })
    })
}

/// The run-independent invariants of a finished campaign.
fn check_report(checks: &mut Checks, cfg: &SimulationConfig, r: &SimulationReport) {
    checks.check("report.virtual_metrics_positive", || {
        ensure(
            r.makespan > 0.0 && r.utilization_percent > 0.0 && r.utilization_percent <= 100.0,
            || format!("makespan {} utilization {}", r.makespan, r.utilization_percent),
        )
    });
    checks.check("report.acceptance_counts_sane", || {
        ensure(!r.acceptance.is_empty(), || "no acceptance rows".into())?;
        for (letter, a) in &r.acceptance {
            ensure(a.accepted <= a.attempts, || format!("{letter}: accepted > attempts"))?;
            ensure(a.attempts > 0, || format!("{letter}: no exchange attempted"))?;
            // "Something was accepted" is only a fair demand of a sample
            // large enough that zero would mean a broken move, not bad luck.
            ensure(a.attempts < 1000 || a.accepted > 0, || {
                format!("{letter}: 0 of {} attempts accepted", a.attempts)
            })?;
        }
        Ok(())
    });
    if cfg.scenario.is_some() {
        checks.check("report.storm_fired_and_relaunched", || {
            ensure(r.failed_tasks > 0 && r.relaunched_tasks <= r.failed_tasks, || {
                format!("failed {} relaunched {}", r.failed_tasks, r.relaunched_tasks)
            })
        });
    }
    if cfg.pattern == Pattern::Synchronous {
        checks.check("eq1.cycle_times_sum_to_makespan", || {
            let mut sum = 0.0;
            for c in &r.cycles {
                let t = &c.timing;
                let terms = t.t_md + t.t_ex_total() + t.t_data + t.t_repex_over + t.t_rp_over;
                ensure(
                    terms.is_finite() && (terms - t.total()).abs() <= 1e-9 * terms.abs(),
                    || format!("cycle {}: terms {terms} vs Tc {}", c.cycle, t.total()),
                )?;
                sum += terms;
            }
            ensure((sum - r.makespan).abs() <= 1e-9 * r.makespan, || {
                format!("sum of Tc {sum} vs makespan {}", r.makespan)
            })
        });
    }
}

/// The Eq. 1 breakdown derived from the recorded events must equal the
/// report's.
fn check_breakdowns(checks: &mut Checks, events: &[Event], r: &SimulationReport) {
    checks.check("eq1.recorder_breakdowns_match_report", || {
        let derived = obs::cycle_breakdowns(events);
        ensure(derived.len() == r.cycles.len(), || {
            format!("{} derived cycles vs {} reported", derived.len(), r.cycles.len())
        })?;
        for (d, c) in derived.iter().zip(&r.cycles) {
            let t = &c.timing;
            let pairs = [
                (d.t_md, t.t_md),
                (d.t_ex_total(), t.t_ex_total()),
                (d.t_data, t.t_data),
                (d.t_repex_over, t.t_repex_over),
                (d.t_rp_over, t.t_rp_over),
            ];
            ensure(d.cycle == c.cycle && pairs.iter().all(|(a, b)| (a - b).abs() <= 1e-9), || {
                format!("cycle {}: derived {d:?} vs reported {t:?}", c.cycle)
            })?;
        }
        Ok(())
    });
}

fn same_fingerprint(
    checks: &mut Checks,
    what: &str,
    reference: &Fingerprint,
    r: &SimulationReport,
) {
    checks.check(what, || {
        let got = Fingerprint::of(r);
        ensure(&got == reference, || format!("{got:?} differs from first run {reference:?}"))
    });
}

/// Seed of the warm-up campaign, the same whatever `--seed` says: a warm-up
/// exists to bring the process (allocator arenas, page tables, lazily built
/// tables) to a steady state, and a fixed input brings every run to the
/// *same* state. It matters for `peak_rss_mib`: see `end_to_end`.
const WARM_UP_SEED: u64 = 0;

/// Cheap set-ups are repeated until this much time is spent on them (or
/// `MAX_SETUPS`), so a millisecond-sized `setup_s` is a median of many.
const SETUP_BUDGET_S: f64 = 0.5;
const MAX_SETUPS: usize = 50;

/// `--trace 0`: the five end-to-end metrics, recorder disabled throughout.
///
/// `setup_s` is what precedes a campaign: generating the input (config from
/// the seed) and `RemdSimulation::new`. No campaign is part of it: with one
/// inside, work moved from `run()` into `new()` would cancel out and never
/// show.
///
/// `peak_rss_mib` is the high-water mark of the process that ran the
/// set-ups, one discarded warm-up campaign on `WARM_UP_SEED`, and the timed
/// repeats on `--seed`. Without the common warm-up, `md-solvated` reports
/// ~42, ~50 or ~55 MiB depending on the seed (40 seeds measured): its peak
/// is set by transient pair-list buffers, and `CellList::pairs_into`
/// reserves exactly the previous list's length, so whether the next list is
/// one pair longer decides a 14 MiB doubling. After the common warm-up every
/// seed reads 55.4-55.6 MiB.
pub fn end_to_end(
    spans: &mut Spans,
    checks: &mut Checks,
    w: &WorkloadSpec,
    seed: u64,
    plan: &Plan,
) -> Option<Measured> {
    let mut setups = Vec::new();
    let started = Instant::now();
    while setups.len() < plan.min_setups
        || (setups.len() < MAX_SETUPS && started.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let (sim, dt) = spans.time("setup", |_| RemdSimulation::new(w.config(seed, plan.scale)));
        checks.check("setup", || sim.map(drop));
        setups.push(dt);
    }
    let warm = w.config(WARM_UP_SEED, plan.scale);
    spans.time("warm_up", |spans| run_campaign(spans, checks, warm, Recorder::disabled())).0?;

    let cfg = w.config(seed, plan.scale);
    let mut walls = Vec::new();
    let mut first: Option<(Fingerprint, SimulationReport)> = None;
    let started = Instant::now();
    while walls.len() < plan.min_repeats || started.elapsed().as_secs_f64() < plan.seconds {
        let run = run_campaign(spans, checks, cfg.clone(), Recorder::disabled())?;
        walls.push(run.wall_s);
        match &first {
            None => {
                check_report(checks, &cfg, &run.report);
                first = Some((Fingerprint::of(&run.report), run.report));
            }
            Some((fp, _)) => {
                same_fingerprint(checks, "repeat.identical_to_first_run", fp, &run.report)
            }
        }
    }
    let (_, report) = first?;
    let rss = checks.attempt("sys.peak_rss", sys::peak_rss_mib)?;
    let mut m = Metrics::new();
    m.insert("setup_s", median(&setups));
    m.insert("campaign_wall_s", median(&walls));
    m.insert("peak_rss_mib", rss);
    m.insert("virt_makespan_s", report.makespan);
    m.insert("virt_utilization_pct", report.utilization_percent);
    Some(Measured { metrics: m, raw: vec![("setup_s", setups), ("campaign_wall_s", walls)] })
}

/// Seconds of `mdsim` work in one MD segment of this workload, from the
/// probes on the matching system: per-call fixed cost plus integrated steps.
fn md_segment_seconds(cfg: &SimulationConfig, p: &Metrics) -> f64 {
    let (fixed_us, step_us) = match cfg.workload {
        Some(Workload::DipeptideSolvated { .. }) => {
            (p["mdsim.run_fixed_solvated_us"], p["mdsim.step_us"])
        }
        _ => (p["mdsim.run_fixed_us"], p["mdsim.step_small_us"]),
    };
    (fixed_us + cfg.surrogate_steps as f64 * step_us) * 1e-6
}

/// `--trace 1`: every per-layer metric. Campaigns run in triples —
/// untraced, traced (their ratio is the tracing overhead) and a
/// `no_exchange` twin (the ablation that prices the exchange phase) — so
/// all three see the same machine conditions; then the probes.
pub fn per_layer(
    spans: &mut Spans,
    checks: &mut Checks,
    w: &WorkloadSpec,
    seed: u64,
    plan: &Plan,
) -> Option<Measured> {
    let cfg = w.config(seed, plan.scale);
    let twin_cfg = SimulationConfig { no_exchange: true, ..cfg.clone() };
    // One discarded campaign before anything is timed; its report is checked
    // and its fingerprint is what every later run must reproduce.
    let warm = spans
        .time("warm_up", |spans| run_campaign(spans, checks, cfg.clone(), Recorder::disabled()));
    let warm = warm.0?;
    check_report(checks, &cfg, &warm.report);
    let reference = Fingerprint::of(&warm.report);

    let (mut untraced, mut traced, mut twins, mut news, mut cpus) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last_traced = None;
    let started = Instant::now();
    while untraced.is_empty() || started.elapsed().as_secs_f64() < plan.seconds / 2.0 {
        let run = run_campaign(spans, checks, cfg.clone(), Recorder::disabled())?;
        same_fingerprint(checks, "repeat.identical_to_first_run", &reference, &run.report);
        untraced.push(run.wall_s);
        news.push(run.new_s);
        cpus.push(run.cpu_s);

        let recorder = Recorder::enabled();
        let run = run_campaign(spans, checks, cfg.clone(), recorder.clone())?;
        same_fingerprint(checks, "traced.identical_to_untraced", &reference, &run.report);
        traced.push(run.wall_s);
        last_traced = Some((recorder, run.report));

        twins.push(run_campaign(spans, checks, twin_cfg.clone(), Recorder::disabled())?.wall_s);
    }
    let (recorder, report) = last_traced?;
    let events = recorder.events();
    if cfg.pattern == Pattern::Synchronous {
        check_breakdowns(checks, &events, &report);
    }

    let mut m = probes::run_all(spans, checks, seed, plan.scale);

    let wall = median(&untraced);
    let segments = events.iter().filter(|e| matches!(e, Event::MdSegment { .. })).count();
    let units = recorder.counters().get("pilot.units_submitted").copied().unwrap_or(0);
    m.insert("repex.new_ms", median(&news) * 1e3);
    m.insert("repex.exchange_phase_wall_s", wall - median(&twins));
    m.insert("repex.us_per_segment", wall * 1e6 / segments as f64);
    m.insert("repex.campaign_cpu_s", median(&cpus));
    m.insert("repex.md_segments", segments as f64);
    m.insert("repex.failed_tasks", report.failed_tasks as f64);
    m.insert("repex.relaunched_tasks", report.relaunched_tasks as f64);
    m.insert("obs.events_recorded", events.len() as f64);
    m.insert("obs.trace_overhead_pct", (median(&traced) / wall - 1.0) * 100.0);

    let avg = report.average_timing();
    m.insert("virt.t_md_s", avg.t_md);
    m.insert("virt.t_ex_s", avg.t_ex_total());
    m.insert("virt.t_data_s", avg.t_data);
    m.insert("virt.t_repex_over_s", avg.t_repex_over);
    m.insert("virt.t_rp_over_s", avg.t_rp_over);
    m.insert("virt.tc_s", avg.total());

    for (attempts, accepted, ratio, letter) in [
        ("exchange.attempts.T", "exchange.accepted.T", "exchange.accept_ratio.T", 'T'),
        ("exchange.attempts.S", "exchange.accepted.S", "exchange.accept_ratio.S", 'S'),
        ("exchange.attempts.U", "exchange.accepted.U", "exchange.accept_ratio.U", 'U'),
    ] {
        let stats = report.acceptance.iter().find(|(l, _)| *l == letter).map(|(_, a)| *a);
        let stats = stats.unwrap_or_default();
        m.insert(attempts, stats.attempts as f64);
        m.insert(accepted, stats.accepted as f64);
        m.insert(ratio, stats.ratio());
    }
    m.insert("exchange.round_trips", report.round_trips as f64);

    // Attribution of campaign_wall_s — computed from the probes, not timed
    // inside the crates: MD segments x per-segment cost, the exchange
    // ablation, units x the matching executor's per-unit cost; the rest is
    // the driver core.
    let unit_us = if cfg.scenario.is_some() {
        m["pilot.sim.faulty_unit_us"]
    } else if cfg.execution_mode().ok()? == 2 {
        m["pilot.sim.unit_mode2_us"]
    } else {
        m["pilot.sim.unit_us"]
    };
    let mdsim_pct = segments as f64 * md_segment_seconds(&cfg, &m) / wall * 100.0;
    let exchange_pct = m["repex.exchange_phase_wall_s"] / wall * 100.0;
    let pilot_pct = units as f64 * unit_us * 1e-6 / wall * 100.0;
    m.insert("share.mdsim_pct", mdsim_pct);
    m.insert("share.exchange_pct", exchange_pct);
    m.insert("share.pilot_hpc_pct", pilot_pct);
    m.insert("share.repex_residual_pct", 100.0 - mdsim_pct - exchange_pct - pilot_pct);
    let raw = vec![
        ("campaign_wall_s", untraced),
        ("traced_campaign_wall_s", traced),
        ("no_exchange_campaign_wall_s", twins),
    ];
    Some(Measured { metrics: m, raw })
}
