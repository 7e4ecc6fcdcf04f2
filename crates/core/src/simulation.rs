//! Top-level simulation driver: config → pilot → cycles → report.

use crate::amm::{AmberAmm, Amm, GromacsAmm, NamdAmm};
use crate::config::{EngineChoice, Pattern, SimulationConfig, Workload};
use crate::emm::asynchronous::run_async;
use crate::emm::sync::run_sync;
use crate::emm::DriverCtx;
use crate::replica::{Replica, SlotParams};
use crate::report::{CycleReport, SimulationReport};
use crate::task::TaskResult;
use exchange::stats::AcceptanceStats;
use hpc::fault::{FaultModel, HazardModel};
use hpc::perfmodel::PerfModel;
use mdsim::models::{
    alanine_dipeptide_on, dipeptide_forcefield, dipeptide_topology, solvated_alanine_dipeptide_on,
};
use obs::health::RoundTripTracker;
use pilot::{Executor, LocalExecutor, Pilot, SimExecutor, StagingArea};
use rng::Rng;
use std::sync::Arc;

/// Create the pilot for a validated configuration (exposed for
/// fault-injection tests).
///
/// A configured stress [`hpc::Scenario`] layers onto the base fault model
/// here: failure storms become a time-varying hazard, and duration-shaping
/// scenarios (stragglers, heterogeneous nodes) ride along into the
/// executor. Filesystem scenarios act through `cfg.cluster()` instead.
/// Faults are injected on the simulated backend only; local payloads fail
/// on their own.
pub fn make_pilot(cfg: &SimulationConfig, fault: FaultModel) -> Result<Pilot<TaskResult>, String> {
    let cores = cfg.pilot_cores()?;
    let hazard = match cfg.scenario {
        Some(sc) => sc.hazard(fault).map_err(|e| format!("scenario: {e}"))?,
        None => HazardModel::Constant(fault),
    };
    let executor: Box<dyn Executor<TaskResult>> = match cfg.resource.backend.as_str() {
        "simulated" => Box::new(
            SimExecutor::new(cores, cfg.seed).with_hazard(hazard).with_scenario(cfg.scenario),
        ),
        "local" => Box::new(LocalExecutor::new(cores)),
        other => return Err(format!("unknown backend {other:?}")),
    };
    Ok(Pilot { executor, staging: StagingArea::new() })
}

/// Build the full driver context from a validated configuration.
pub fn build_ctx(cfg: SimulationConfig) -> Result<DriverCtx, String> {
    cfg.validate()?;
    let grid = cfg.build_grid()?;
    let n = grid.n_slots();

    let base = dipeptide_forcefield().nonbonded;
    let amm: Arc<dyn Amm> = match cfg.engine {
        EngineChoice::Amber => Arc::new(AmberAmm::new(base)),
        EngineChoice::Namd => Arc::new(NamdAmm::new(base)),
        EngineChoice::Gromacs => Arc::new(GromacsAmm::new(base)),
    };

    // What a slot implies is fixed at set-up: resolved here, read everywhere.
    let slot_params: Vec<Arc<SlotParams>> = (0..n)
        .map(|slot| Arc::new(SlotParams::resolve(&grid, slot, cfg.base_temperature)))
        .collect();

    // Build and lightly decorrelate the replicas' initial microstates, over
    // one topology: only the coordinates depend on the slot.
    let workload = cfg.workload.clone().unwrap_or(Workload::DipeptideVacuum);
    let topology = dipeptide_topology(workload.real_atoms());
    let mut replicas = Vec::with_capacity(n);
    for (slot, params) in slot_params.iter().enumerate() {
        let topology = Arc::clone(&topology);
        let mut system = match workload {
            Workload::DipeptideVacuum => alanine_dipeptide_on(topology),
            Workload::DipeptideSolvated { .. } => {
                solvated_alanine_dipeptide_on(topology, cfg.seed ^ slot as u64)
            }
        };
        if cfg.minimize_first {
            let ff = dipeptide_forcefield();
            mdsim::minimize::minimize(&mut system, &ff, 500, 1.0);
        }
        let mut rng = Rng::seed(cfg.seed.wrapping_add(slot as u64));
        system.assign_maxwell_boltzmann(params.temperature, &mut rng);
        replicas.push(Replica::new(slot, system));
    }

    // Config-declared failure injection; `with_faults` can still override.
    let fault = match cfg.fault_mtbf_seconds {
        Some(mtbf) => FaultModel::new(mtbf).map_err(|e| format!("fault-mtbf-seconds: {e}"))?,
        None => FaultModel::NONE,
    };
    let pilot = make_pilot(&cfg, fault)?;
    let cluster = cfg.cluster()?;
    let simulated = cfg.resource.backend == "simulated";
    let kinds: Vec<char> = grid.dims.iter().map(|d| d.kind_letter()).collect();
    let ladder_len = if grid.n_dims() == 1 { grid.dims[0].len() } else { 0 };
    let ledger = obs::ExchangeLedger::new(&kinds, n, ladder_len);

    Ok(DriverCtx {
        cfg,
        grid,
        slot_params,
        amm,
        replicas,
        ledger,
        pilot,
        cluster,
        perf: PerfModel::default(),
        simulated,
        window_samples: Default::default(),
        rung_history: Vec::new(),
        pair_acceptance: Vec::new(),
        failed_tasks: 0,
        relaunched_tasks: 0,
        md_core_seconds: 0.0,
        recorder: obs::Recorder::default(),
        completed_cycles: 0,
        prior_cycle_reports: Vec::new(),
        async_resume: None,
        checkpoint: None,
        cycle_limit: None,
        preseg_snapshots: Default::default(),
        live_request: None,
        live_sinks: None,
        telemetry_seq: 0,
        stop_flag: None,
    })
}

/// A complete REMD simulation, ready to run.
pub struct RemdSimulation {
    ctx: DriverCtx,
}

impl RemdSimulation {
    pub fn new(cfg: SimulationConfig) -> Result<Self, String> {
        Ok(RemdSimulation { ctx: build_ctx(cfg)? })
    }

    /// Inject failures (must be called before `run`).
    pub fn with_faults(mut self, fault: FaultModel) -> Result<Self, String> {
        self.ctx.pilot = make_pilot(&self.ctx.cfg, fault)?;
        // The rebuilt pilot must keep observing into the same sink.
        self.ctx.pilot.executor.set_recorder(self.ctx.recorder.clone());
        Ok(self)
    }

    /// Resume an interrupted campaign from the checkpoint in `dir`. The
    /// returned simulation continues exactly where the interrupted one
    /// stopped; pass the same directory to [`Self::with_checkpoints`] again
    /// to keep the resumed leg durable too.
    pub fn resume(dir: &std::path::Path) -> Result<Self, String> {
        let ctx = crate::checkpoint::CampaignCheckpoint::load(dir)?.restore()?;
        Ok(RemdSimulation { ctx })
    }

    /// Write a campaign checkpoint into `dir` every `every` completed
    /// cycles (sync) or exchange rounds (async), after any cycle that saw
    /// task failures, and at the end of the run.
    pub fn with_checkpoints(mut self, dir: impl Into<std::path::PathBuf>, every: u64) -> Self {
        self.ctx.checkpoint = Some(crate::checkpoint::CheckpointPolicy::new(dir, every));
        self
    }

    /// Stop after this invocation has completed `limit` cycles (sync) or
    /// exchange rounds (async) — a deterministic mid-campaign interruption
    /// point for checkpoint/resume testing (`repex run --stop-after`).
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.ctx.cycle_limit = Some(limit);
        self
    }

    /// Attach a cooperative stop flag: when another thread sets it, the
    /// run stops at its next consistency point (sync cycle barrier /
    /// flushed async round), writes a final checkpoint when a policy is
    /// configured, and returns the partial report — the cancellation path
    /// of the campaign service. Unlike [`Self::with_cycle_limit`] the
    /// interruption point is chosen at runtime, not planned.
    pub fn with_stop_flag(mut self, flag: std::sync::Arc<std::sync::atomic::AtomicBool>) -> Self {
        self.ctx.stop_flag = Some(flag);
        self
    }

    /// Override the progress-line interval (useful after `resume`, which
    /// restores the original run's configuration verbatim).
    pub fn with_progress(mut self, every: u64) -> Self {
        self.ctx.cfg.progress_every = every;
        self
    }

    /// The active configuration (restored verbatim by [`Self::resume`]).
    pub fn config(&self) -> &SimulationConfig {
        &self.ctx.cfg
    }

    /// Enable the live telemetry plane (`repex run --metrics-stream /
    /// --prom / --campaign`): the run folds its event stream into rolling
    /// windows and emits one [`obs::TelemetrySnapshot`] per consistency
    /// point through the configured exporters. Works with or without
    /// [`Self::with_recorder`]; without it a bounded live-only recorder is
    /// installed, so no full event buffer accumulates.
    pub fn with_live_telemetry(mut self, opts: crate::emm::LiveTelemetry) -> Self {
        self.ctx.live_request = Some(opts);
        self
    }

    /// Attach a structured-event recorder (must be called before `run`).
    ///
    /// The recorder is shared: the driver emits typed [`obs::Event`]s into it
    /// and the executor/timeline layers bump counters. Cloning the handle
    /// after the run exposes the collected trace/metrics to the caller.
    pub fn with_recorder(mut self, recorder: obs::Recorder) -> Self {
        self.ctx.pilot.executor.set_recorder(recorder.clone());
        self.ctx.recorder = recorder;
        self
    }

    /// Execute the configured pattern and assemble the report.
    pub fn run(mut self) -> Result<SimulationReport, String> {
        crate::emm::start_live(&mut self.ctx)?;
        let (pattern_name, outcome) = match self.ctx.cfg.pattern {
            Pattern::Synchronous => ("sync", run_sync(&mut self.ctx)),
            Pattern::Asynchronous { .. } => {
                ("async", run_async(&mut self.ctx).map(|_| Vec::<CycleReport>::new()))
            }
        };
        let mut ctx = self.ctx;
        let makespan = ctx.pilot.executor.now().as_secs();
        let cores = ctx.pilot.cores();
        let utilization = if makespan > 0.0 {
            (ctx.md_core_seconds / (cores as f64 * makespan) * 100.0).min(100.0)
        } else {
            0.0
        };
        let acceptance: Vec<(char, AcceptanceStats)> =
            ctx.ledger.dims().iter().map(|d| (d.kind, d.into())).collect();
        let round_trips = ctx.ledger.round_trips().map_or(0, RoundTripTracker::total_round_trips);
        if ctx.recorder.is_enabled() {
            ctx.recorder.count("tasks.failed", ctx.failed_tasks);
            ctx.recorder.count("tasks.relaunched", ctx.relaunched_tasks);
            for (letter, stats) in &acceptance {
                ctx.recorder.count(&format!("exchange.{letter}.attempts"), stats.attempts);
                ctx.recorder.count(&format!("exchange.{letter}.accepted"), stats.accepted);
                ctx.recorder.set_gauge_f64(&format!("exchange.{letter}.ratio"), stats.ratio());
            }
            ctx.recorder.set_gauge("exchange.round_trips_total", round_trips);
            for (i, stats) in ctx.pair_acceptance.iter().enumerate() {
                ctx.recorder.count(&format!("pair.{i:03}.attempts"), stats.attempts);
                ctx.recorder.count(&format!("pair.{i:03}.accepted"), stats.accepted);
            }
            ctx.recorder
                .set_gauge("mdsim.cell_list_builds_total", mdsim::neighbor::cell_list_builds());
            ctx.recorder.set_gauge(
                "mdsim.neighbor_cache_rebuilds_total",
                mdsim::neighbor::neighbor_cache_rebuilds(),
            );
        }
        // Only now: a run that failed part-way still leaves the summary
        // counters of what it did in the recorder its caller flushes.
        let cycles = outcome?;
        Ok(SimulationReport {
            title: ctx.cfg.title.clone(),
            pattern: pattern_name,
            execution_mode: ctx.cfg.execution_mode()?,
            n_replicas: ctx.replicas.len(),
            pilot_cores: cores,
            cycles,
            makespan,
            utilization_percent: utilization,
            acceptance,
            round_trips,
            rung_history: std::mem::take(&mut ctx.rung_history),
            pair_acceptance: ctx.pair_acceptance.clone(),
            window_samples: ctx.window_sample_report(),
            failed_tasks: ctx.failed_tasks,
            relaunched_tasks: ctx.relaunched_tasks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_sync_t_remd() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 3);
        cfg.surrogate_steps = 10;
        cfg.sample_stride = 5;
        let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.pattern, "sync");
        assert_eq!(report.n_replicas, 8);
        assert_eq!(report.cycles.len(), 3);
        assert!(report.makespan > 0.0);
        assert!(report.utilization_percent > 10.0 && report.utilization_percent <= 100.0);
        assert_eq!(report.acceptance.len(), 1);
        assert_eq!(report.acceptance[0].0, 'T');
        assert!(report.acceptance[0].1.attempts > 0);
        assert_eq!(report.window_samples.len(), 8);
        assert!(report.summary().contains("pattern=sync"));
    }

    #[test]
    fn end_to_end_async_t_remd() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 3);
        cfg.pattern = crate::config::Pattern::Asynchronous { tick_fraction: 0.25 };
        cfg.surrogate_steps = 10;
        let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.pattern, "async");
        assert!(report.utilization_percent > 10.0);
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn sync_beats_async_utilization_modestly() {
        // The paper's Fig. 13: sync utilization exceeds async by ~10%.
        let run = |pattern| {
            let mut cfg = SimulationConfig::t_remd(24, 600, 4);
            cfg.pattern = pattern;
            cfg.surrogate_steps = 5;
            RemdSimulation::new(cfg).unwrap().run().unwrap().utilization_percent
        };
        let sync = run(crate::config::Pattern::Synchronous);
        let asynch = run(crate::config::Pattern::Asynchronous { tick_fraction: 0.25 });
        assert!(sync > asynch, "sync {sync}% vs async {asynch}%");
        assert!(sync - asynch < 35.0, "gap should be modest: {sync} vs {asynch}");
    }

    #[test]
    fn local_backend_end_to_end() {
        let mut cfg = SimulationConfig::t_remd(4, 60, 2);
        cfg.resource.backend = "local".into();
        cfg.resource.cluster = "small:16".into();
        cfg.sample_stride = 10;
        let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
        assert_eq!(report.cycles.len(), 2);
        assert!(report.makespan > 0.0, "real elapsed time");
        for r in &report.cycles {
            assert!(r.timing.t_md > 0.0);
            assert_eq!(r.timing.t_data, 0.0, "no modeled overheads on local backend");
        }
    }

    #[test]
    fn report_round_trips_tracked_in_1d() {
        let mut cfg = SimulationConfig::t_remd(4, 400, 20);
        cfg.surrogate_steps = 5;
        let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
        // With 20 cycles on a 4-rung ladder at least some traversal happens;
        // round trips may still be 0 on unlucky seeds, so just assert the
        // field is present/consistent.
        assert!(report.round_trips <= 20 * 4);
    }

    #[test]
    fn invalid_config_fails_fast() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 1);
        cfg.steps_per_cycle = 0;
        assert!(RemdSimulation::new(cfg).is_err());
    }
}
