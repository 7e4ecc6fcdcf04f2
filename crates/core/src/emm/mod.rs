//! Execution Management Modules (EMM).
//!
//! The EMM owns the pilot, translates the simulation into compute units,
//! and runs them through one completion loop (`driver`) on which an RE
//! Pattern is a small policy deciding who exchanges when: the global
//! barrier ([`sync`]) or the real-time tick over the ready subset
//! ([`asynchronous`]). The two Execution Modes (Mode I: cores ≥ workload,
//! Mode II: cores < workload) need no code here — the pilot's core timeline
//! handles them transparently, exactly as the paper's design intends: users
//! switch modes by changing only the core count.

pub mod asynchronous;
mod driver;
pub mod sync;

pub use driver::WINDOW;

use crate::amm::{Amm, MdSpec};
use crate::config::{EngineChoice, Pattern, SimulationConfig};
use crate::ram::{ExchangeInput, GroupInput, SlotInput};
use crate::replica::{lock_system, Replica, SlotParams};
use crate::task::TaskResult;
use exchange::multidim::ParamGrid;
use hpc::perfmodel::{ExchangeKind, PerfModel};
use hpc::ClusterSpec;
use obs::json::Encode as _;
use pilot::description::{DurationSpec, UnitDescription};
use pilot::executor::TaskWork;
use pilot::Pilot;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

/// Samples collected for one umbrella/temperature window (for free-energy
/// analysis).
#[derive(Debug, Clone)]
pub struct WindowSamples {
    pub slot: usize,
    pub temperature: f64,
    /// (dihedral name, center_deg, k_deg) for each umbrella restraint.
    pub restraints: Vec<(String, f64, f64)>,
    /// (phi, psi) in radians.
    pub samples: Vec<(f64, f64)>,
}

/// What the caller asked the live telemetry plane to export
/// (`repex run --metrics-stream / --prom / --campaign`).
#[derive(Debug, Clone, Default)]
pub struct LiveTelemetry {
    /// Append-only JSONL snapshot stream (one `TelemetrySnapshot` per line).
    pub stream: Option<PathBuf>,
    /// Prometheus text-exposition file, rewritten atomically per snapshot.
    pub prom: Option<PathBuf>,
    /// Campaign label; defaults to the configuration's title.
    pub campaign: Option<String>,
}

/// Open export sinks for the live plane (built by [`start_live`]).
pub(crate) struct LiveSinks {
    /// JSONL stream in append mode: each snapshot goes out as one
    /// `write_all` of `line + '\n'`, so a tailer never reads a torn record.
    stream: Option<std::fs::File>,
    prom: Option<PathBuf>,
}

/// The campaign state the driver core and its pattern policies operate on.
pub struct DriverCtx {
    pub cfg: SimulationConfig,
    pub grid: ParamGrid,
    /// What each slot implies ([`SlotParams::resolve`], once, in
    /// `build_ctx`); units and exchange inputs share the entries.
    pub slot_params: Vec<std::sync::Arc<SlotParams>>,
    pub amm: std::sync::Arc<dyn Amm>,
    pub replicas: Vec<Replica>,
    /// The campaign's exchange bookkeeping: acceptance per dimension, the
    /// slot walk (`ledger.owner()[slot]` = replica, `ledger.slot_of()` its
    /// inverse) and, on a 1-D ladder, the round-trip tracker. Every reader
    /// of which replica holds which slot reads it here.
    pub ledger: obs::ExchangeLedger,
    pub pilot: Pilot<TaskResult>,
    pub cluster: ClusterSpec,
    pub perf: PerfModel,
    /// Whether durations/overheads are modeled (simulated backend).
    pub simulated: bool,
    /// Per-slot (phi, psi) samples, when sampling is enabled.
    pub window_samples: HashMap<usize, Vec<(f64, f64)>>,
    /// Per-replica rung trajectory, one entry per cycle (1-D simulations;
    /// feeds round-trip-time analysis). `rung_history[replica][cycle]`.
    pub rung_history: Vec<Vec<usize>>,
    /// Per-neighbour-pair acceptance (1-D simulations; `pair_acceptance[i]`
    /// covers slots (i, i+1)). Feeds the adaptive ladder optimizer.
    pub pair_acceptance: Vec<exchange::stats::AcceptanceStats>,
    /// Total failed task observations.
    pub failed_tasks: u64,
    /// Total relaunches performed.
    pub relaunched_tasks: u64,
    /// MD busy core-seconds (for utilization, Eq. 4).
    pub md_core_seconds: f64,
    /// Structured-event sink; disabled (no-op) unless tracing was requested.
    pub recorder: obs::Recorder,
    /// Cycles already completed — nonzero when restored from a checkpoint;
    /// the barrier policy resumes from this cycle.
    pub completed_cycles: u64,
    /// Cycle reports carried over from the interrupted leg of a resumed run.
    pub prior_cycle_reports: Vec<crate::report::CycleReport>,
    /// Async scheduler state restored from a checkpoint.
    pub async_resume: Option<crate::checkpoint::AsyncSchedulerState>,
    /// Where and how often to write campaign checkpoints (`None` disables
    /// checkpointing).
    pub checkpoint: Option<crate::checkpoint::CheckpointPolicy>,
    /// Stop after this many cycles (sync) or exchange rounds (async)
    /// completed by this invocation — a deterministic mid-campaign
    /// interruption point (`repex run --stop-after`).
    pub cycle_limit: Option<u64>,
    /// Pre-segment microstate and cycle of in-flight MD work, keyed by
    /// replica id (tick policy, populated only while checkpointing): the
    /// executor runs payloads eagerly, so by checkpoint time an in-flight
    /// segment has already advanced its `System` — the checkpoint must
    /// store the microstate from *before* the segment so resume can
    /// resubmit the same unit. Rendered by the checkpoint that needs it.
    pub preseg_snapshots: HashMap<usize, (mdsim::State, u64)>,
    /// Requested live telemetry exports (`None` = no exporters; the live
    /// fold may still run to feed `--progress`).
    pub live_request: Option<LiveTelemetry>,
    /// Open exporter sinks while a run is live.
    pub(crate) live_sinks: Option<LiveSinks>,
    /// Sequence number of the last emitted telemetry snapshot. Survives
    /// checkpoint/resume so a resumed leg appends strictly increasing seqs
    /// to the same snapshot stream.
    pub telemetry_seq: u64,
    /// Cooperative cancellation: when another thread sets this flag the
    /// driver stops at its next consistency point (sync cycle barrier /
    /// flushed async round), writes a final checkpoint if a policy is
    /// configured, and returns the partial result. This is what makes a
    /// campaign drivable as a resumable job instead of a one-shot run.
    pub stop_flag: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl DriverCtx {
    pub fn n_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// True when an embedding caller (the campaign service, a signal
    /// handler) has requested a cooperative stop.
    pub fn stop_requested(&self) -> bool {
        self.stop_flag.as_ref().is_some_and(|f| f.load(std::sync::atomic::Ordering::Relaxed))
    }

    /// Telemetry progress as (completed, total): cycles for the synchronous
    /// pattern, MD segments for the asynchronous one (no global cycles).
    pub(crate) fn progress(&self) -> (u64, u64) {
        let n_cycles = self.cfg.n_cycles;
        match self.cfg.pattern {
            Pattern::Synchronous => (self.completed_cycles, n_cycles),
            Pattern::Asynchronous { .. } => (
                self.replicas.iter().map(|r| r.segments_done).sum(),
                n_cycles.saturating_mul(self.n_replicas() as u64),
            ),
        }
    }

    /// Modeled wall seconds of one MD segment.
    pub fn md_model_seconds(&self) -> f64 {
        self.cfg.md_segment_seconds(&self.perf, &self.cluster)
    }

    /// Exchange kind of a dimension.
    pub fn dim_kind(&self, dim: usize) -> ExchangeKind {
        ExchangeKind::from_letter(self.grid.dims[dim].kind_letter())
            .expect("a grid dimension's letter is T, U, S or P")
    }

    /// Per-replica-and-cycle deterministic seed.
    pub fn task_seed(&self, replica: usize, cycle: u64, dim_pass: usize) -> u64 {
        self.cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(replica as u64)
            .wrapping_add(cycle.wrapping_mul(0x0100_0000_01b3))
            .wrapping_add((dim_pass as u64) << 48)
    }

    /// Build the MD spec for the replica currently in `slot`.
    pub fn md_spec(&self, slot: usize, cycle: u64, dim_pass: usize) -> MdSpec {
        let replica_id = self.ledger.owner()[slot];
        let replica = &self.replicas[replica_id];
        let duration = if self.simulated {
            DurationSpec::Modeled {
                seconds: self.md_model_seconds(),
                sigma: self.perf.noise.md_sigma,
            }
        } else {
            DurationSpec::Measured
        };
        let run_steps = if self.simulated {
            self.cfg.steps_per_cycle.min(self.cfg.surrogate_steps.max(1))
        } else {
            self.cfg.steps_per_cycle
        };
        MdSpec {
            replica: replica_id,
            slot,
            cycle,
            params: std::sync::Arc::clone(&self.slot_params[slot]),
            system: std::sync::Arc::clone(&replica.system),
            steps: self.cfg.steps_per_cycle,
            run_steps,
            dt_ps: self.cfg.dt_ps,
            gamma_ps: self.cfg.gamma_ps,
            seed: self.task_seed(replica_id, cycle, dim_pass),
            sample_stride: self.cfg.sample_stride,
            sample_warmup: self.cfg.sample_warmup,
            cores: self.cfg.resource.cores_per_replica,
            engine: self.cfg.engine_kind(),
            duration,
        }
    }

    /// One exchange group's inputs: the current occupants of `slots`, each
    /// reading the staged output of the MD segment `segment_of` names for it.
    pub(crate) fn group_input(
        &self,
        dim: usize,
        slots: &[usize],
        segment_of: impl Fn(&Replica) -> u64,
    ) -> GroupInput {
        let slots = slots
            .iter()
            .map(|&slot| {
                let replica = &self.replicas[self.ledger.owner()[slot]];
                let coords = self.grid.coords_of(slot);
                SlotInput {
                    slot,
                    replica: replica.id,
                    segment: segment_of(replica),
                    param: self.grid.dims[dim].ladder[coords[dim]].clone(),
                    params: std::sync::Arc::clone(&self.slot_params[slot]),
                    system: std::sync::Arc::clone(&replica.system),
                    stale: replica.stale,
                }
            })
            .collect();
        GroupInput { slots }
    }

    /// Wrap an exchange input as a compute unit. The pairing, Metropolis
    /// tests and single-point energies inside the payload are real.
    pub(crate) fn exchange_task(
        &self,
        name: String,
        cores: usize,
        duration: DurationSpec,
        input: ExchangeInput,
    ) -> (UnitDescription, TaskWork<TaskResult>) {
        let desc = UnitDescription::new(name, "repex-exchange", cores).with_duration(duration);
        let engine = self.amm.engine(1);
        let work: TaskWork<TaskResult> =
            Box::new(move || crate::ram::run_exchange(input, engine).map(TaskResult::Exchange));
        (desc, work)
    }

    /// Build the exchange task for dimension `dim` at `cycle` over the full
    /// grid.
    ///
    /// The exchange runs as a single unit whose modeled duration follows the
    /// calibrated aggregate cost (one MPI task for T/U; serialized
    /// per-replica single-point tasks for S — see DESIGN.md).
    pub fn exchange_unit(&self, dim: usize, cycle: u64) -> (UnitDescription, TaskWork<TaskResult>) {
        let kind = self.dim_kind(dim);
        let groups = self
            .grid
            .groups_for_dimension(dim)
            .into_iter()
            .map(|slots| self.group_input(dim, &slots, |_| cycle))
            .collect();
        let input = ExchangeInput {
            dim,
            cycle,
            strategy: self.cfg.pairing,
            seed: self.cfg.seed ^ 0xEC5A_17CE,
            groups,
            staging: self.pilot.staging.clone(),
        };
        let n = self.n_replicas();
        let cores = match kind {
            // S-exchange's single-point tasks need as many cores as the
            // exchange group has members (Amber group files).
            ExchangeKind::Salt => self.grid.dims[dim].len().min(self.pilot.cores()),
            _ => 1,
        };
        let duration = if self.simulated {
            let secs = match kind {
                // Core-aware: the per-replica single-point tasks batch onto
                // the pilot's cores (Fig. 10's Mode II blow-up).
                ExchangeKind::Salt => self.perf.exchange.salt_wall_seconds(
                    n,
                    self.pilot.cores(),
                    self.grid.dims[dim].len(),
                ),
                _ => self.perf.exchange.exchange_seconds(kind, n),
            };
            // NAMD's exchange path is burstier (Fig. 8): same mean, larger
            // sigma.
            let sigma = if self.cfg.engine == EngineChoice::Namd {
                self.perf.exchange.namd_sigma
            } else {
                self.perf.noise.exchange_sigma
            };
            DurationSpec::Modeled { seconds: secs, sigma }
        } else {
            DurationSpec::Measured
        };
        let name = format!("exchange-{}-d{dim}-c{cycle:04}", kind.letter());
        self.exchange_task(name, cores, duration, input)
    }

    /// Apply an exchange's outcomes, `(slot_lo, slot_hi, accepted)` each,
    /// in order: the ledger counts every one, and at an accepted one the two
    /// slots' occupants trade places. For temperature dimensions their
    /// velocities are first rescaled by sqrt(T_new/T_old), reading the
    /// occupants before the swap (standard REMD practice so the kinetic
    /// energy matches the new bath).
    pub fn apply_swaps(&mut self, dim: usize, outcomes: &[(usize, usize, bool)]) {
        let is_t = self.dim_kind(dim) == ExchangeKind::Temperature;
        for &(lo, hi, accepted) in outcomes {
            if accepted && is_t {
                let owner = self.ledger.owner();
                let (t_lo, t_hi) =
                    (self.slot_params[lo].temperature, self.slot_params[hi].temperature);
                // The occupant of `lo` moves to `hi`, and back.
                rescale_velocities(&self.replicas[owner[lo]], (t_hi / t_lo).sqrt());
                rescale_velocities(&self.replicas[owner[hi]], (t_lo / t_hi).sqrt());
            }
            self.ledger.outcome(dim, lo, hi, accepted);
        }
    }

    /// Fold an exchange report's per-pair outcomes into the 1-D
    /// neighbour-pair acceptance table.
    pub fn record_pair_outcomes(&mut self, outcomes: &[(usize, usize, bool)]) {
        if self.grid.n_dims() != 1 {
            return;
        }
        let n = self.grid.n_slots();
        if self.pair_acceptance.len() != n.saturating_sub(1) {
            self.pair_acceptance =
                vec![exchange::stats::AcceptanceStats::default(); n.saturating_sub(1)];
        }
        for &(lo, hi, accepted) in outcomes {
            if hi == lo + 1 {
                self.pair_acceptance[lo].record(accepted);
            }
        }
    }

    /// Record each replica's current rung (1-D simulations; call once per
    /// cycle after the exchange).
    pub fn record_rungs(&mut self) {
        if self.grid.n_dims() != 1 {
            return;
        }
        if self.rung_history.len() != self.replicas.len() {
            self.rung_history = vec![Vec::new(); self.replicas.len()];
        }
        for (history, &slot) in self.rung_history.iter_mut().zip(self.ledger.slot_of()) {
            history.push(slot);
        }
    }

    /// Record MD trace samples against the slot's window (production cycles
    /// only; earlier cycles are equilibration).
    pub fn record_samples_at(&mut self, slot: usize, cycle: u64, trace: &[(f64, f64)]) {
        if trace.is_empty() || cycle < self.cfg.production_after_cycle {
            return;
        }
        self.window_samples.entry(slot).or_default().extend_from_slice(trace);
    }

    /// Extract the per-window sample sets for analysis.
    pub fn window_sample_report(&self) -> Vec<WindowSamples> {
        let mut out: Vec<WindowSamples> = self
            .window_samples
            .iter()
            .map(|(&slot, samples)| {
                let params = &self.slot_params[slot];
                WindowSamples {
                    slot,
                    temperature: params.temperature,
                    restraints: params
                        .restraints
                        .iter()
                        .map(|r| (r.dihedral.clone(), r.center_deg, r.k_deg))
                        .collect(),
                    samples: samples.clone(),
                }
            })
            .collect();
        out.sort_by_key(|w| w.slot);
        out
    }
}

fn rescale_velocities(replica: &Replica, factor: f64) {
    let mut sys = lock_system(&replica.system);
    for v in &mut sys.state.velocities {
        *v *= factor;
    }
}

/// Globally-unique unit name for one MD attempt: replica and cycle as the
/// staged files spell them ([`crate::amm::file_base`]), the dimension pass
/// and the attempt number.
///
/// The simulated executor draws a unit's noise and failure from its name,
/// so names must be unique across relaunches and cycles — a retried task
/// must never collide with, and inherit the fate of, any other in-flight or
/// completed unit.
pub(crate) fn attempt_task_name(replica: usize, cycle: u64, dim: usize, attempt: u32) -> String {
    format!("md-r{replica:05}_c{cycle:04}-d{dim}-a{attempt}")
}

/// Deterministic seed perturbation for relaunch attempt `attempt` of the MD
/// segment running in `slot`: attempt 0 is the base seed unchanged; retries
/// mix `(slot, attempt)` — and nothing else — through a splitmix64 avalanche.
///
/// Deriving the perturbation purely from checkpointable quantities is what
/// lets a resumed campaign replay the identical failure/retry sequence; an
/// additive offset could alias the cycle contribution already mixed into
/// `base`, letting two different (cycle, attempt) pairs collide on one seed.
pub(crate) fn attempt_seed(base: u64, slot: usize, attempt: u32) -> u64 {
    if attempt == 0 {
        return base;
    }
    base ^ hpc::scenario::mix64(((slot as u64) << 32) | u64::from(attempt))
}

/// Bring up the live telemetry plane for a run, when requested (exporter
/// flags) or implied (`--progress` now renders off the snapshot bus).
///
/// Installs the streaming fold into the recorder — allocating a
/// [`obs::Recorder::live_only`] sink if tracing was not otherwise enabled,
/// so long campaigns with telemetry but no `--trace` never buffer the whole
/// event stream — seeds the fold's baseline from the context (a clone of
/// its exchange ledger and, after a resume, the interrupted leg's
/// cumulative counters), and opens the export sinks.
pub(crate) fn start_live(ctx: &mut DriverCtx) -> Result<(), String> {
    if ctx.live_request.is_none() && ctx.cfg.progress_every == 0 {
        return Ok(());
    }
    if !ctx.recorder.is_enabled() {
        let rec = obs::Recorder::live_only();
        ctx.pilot.executor.set_recorder(rec.clone());
        ctx.recorder = rec;
    }
    let campaign = ctx
        .live_request
        .as_ref()
        .and_then(|r| r.campaign.clone())
        .unwrap_or_else(|| ctx.cfg.title.clone());
    // The fold continues the driver's ledger, so the grid's shape (what a
    // fresh one is built from) is not needed.
    ctx.recorder.enable_live(obs::LiveConfig {
        campaign,
        baseline: obs::LiveBaseline {
            seq: ctx.telemetry_seq,
            completed: ctx.progress().0,
            sim_time: ctx.pilot.executor.now().as_secs(),
            failed_tasks: ctx.failed_tasks,
            relaunched_tasks: ctx.relaunched_tasks,
            md_segments: ctx.replicas.iter().map(|r| r.segments_done).sum(),
            ledger: Some(ctx.ledger.clone()),
        },
        ..Default::default()
    });
    if let Some(req) = &ctx.live_request {
        let stream =
            match &req.stream {
                Some(path) => {
                    Some(std::fs::OpenOptions::new().create(true).append(true).open(path).map_err(
                        |e| format!("metrics-stream: cannot open {}: {e}", path.display()),
                    )?)
                }
                None => None,
            };
        ctx.live_sinks = Some(LiveSinks { stream, prom: req.prom.clone() });
    }
    Ok(())
}

/// Close the current telemetry window: emit one snapshot from the
/// recorder's fold and push it through the configured exporters. The driver
/// core calls this at every consistency point (cycle barrier for sync,
/// flushed exchange round for async), *before* writing a checkpoint so the
/// checkpoint's telemetry cursor covers this snapshot. A no-op returning
/// `Ok(None)` when the live plane is not active.
pub(crate) fn emit_live(
    ctx: &mut DriverCtx,
    done: bool,
) -> Result<Option<obs::TelemetrySnapshot>, String> {
    let (completed, total) = ctx.progress();
    let stats = obs::EmitStats {
        completed,
        total,
        time: ctx.pilot.executor.now().as_secs(),
        failed_tasks: ctx.failed_tasks,
        relaunched_tasks: ctx.relaunched_tasks,
        done,
    };
    let Some(snap) = ctx.recorder.live_emit(&stats) else {
        return Ok(None);
    };
    ctx.telemetry_seq = snap.seq;
    if let Some(sinks) = &mut ctx.live_sinks {
        if let Some(file) = &mut sinks.stream {
            // One write per record: a tailer sees whole lines or nothing.
            let line = format!("{}\n", snap.encode().compact());
            file.write_all(line.as_bytes())
                .and_then(|()| file.flush())
                .map_err(|e| format!("metrics-stream: write failed: {e}"))?;
        }
        if let Some(prom) = &sinks.prom {
            let tmp = prom.with_extension("tmp");
            std::fs::write(&tmp, obs::prometheus_text(std::slice::from_ref(&snap)))
                .and_then(|()| std::fs::rename(&tmp, prom))
                .map_err(|e| format!("prom: cannot write {}: {e}", prom.display()))?;
        }
    }
    Ok(Some(snap))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::build_ctx;
    use hpc::perfmodel::EngineKind;

    fn small_ctx() -> DriverCtx {
        let mut cfg = SimulationConfig::t_remd(8, 500, 2);
        cfg.surrogate_steps = 20;
        build_ctx(cfg).unwrap()
    }

    /// With the recorder off, nothing is ever pushed to `Core::events`:
    /// `driver::run` checks the buffer after every completion and every
    /// quiescent step (a debug assertion), here under every push site — the
    /// barrier's phase events, a relaunch, exchange outcomes, the async
    /// window — while the report still gets its Eq. 1 terms.
    #[test]
    #[cfg(debug_assertions)]
    fn an_untraced_run_buffers_no_event() {
        let storm = hpc::Scenario::FailureStorm {
            storm_mtbf_seconds: 20.0,
            period_seconds: 60.0,
            storm_fraction: 0.5,
        };
        for pattern in [Pattern::Synchronous, Pattern::Asynchronous { tick_fraction: 0.25 }] {
            let mut cfg = SimulationConfig::t_remd(12, 600, 4);
            cfg.surrogate_steps = 10;
            cfg.pattern = pattern;
            cfg.scenario = Some(storm);
            cfg.fault_policy = crate::config::FaultPolicy::Relaunch { max_retries: 25 };
            let mut ctx = build_ctx(cfg).unwrap();
            assert!(!ctx.recorder.is_enabled());
            let cycles = match pattern {
                Pattern::Synchronous => sync::run_sync(&mut ctx).unwrap(),
                Pattern::Asynchronous { .. } => {
                    asynchronous::run_async(&mut ctx).map(|_| Vec::new()).unwrap()
                }
            };
            assert!(ctx.relaunched_tasks > 0 && ctx.ledger.dims()[0].attempts > 0, "{pattern:?}");
            assert!(cycles.iter().all(|c| c.timing.t_md > 0.0 && c.timing.t_ex.len() == 1));
        }
    }

    #[test]
    fn ctx_construction_basics() {
        let ctx = small_ctx();
        assert_eq!(ctx.n_replicas(), 8);
        assert_eq!(ctx.ledger.owner(), (0..8).collect::<Vec<_>>());
        assert_eq!(ctx.cfg.model_atoms(), 2881);
        assert_eq!(ctx.cfg.engine_kind(), EngineKind::Sander);
        assert!(ctx.simulated);
        // Calibration: 500 steps on 2881 atoms ≈ 139.6 * 500/6000.
        let expect = 139.6 * 500.0 / 6000.0;
        assert!((ctx.md_model_seconds() - expect).abs() < 1e-9);
    }

    #[test]
    fn md_spec_uses_surrogate_in_sim_mode() {
        let ctx = small_ctx();
        let spec = ctx.md_spec(3, 1, 0);
        assert_eq!(spec.steps, 500);
        assert_eq!(spec.run_steps, 20);
        assert!(matches!(spec.duration, DurationSpec::Modeled { .. }));
        assert!(spec.params.temperature > 273.0 - 1e-9);
    }

    #[test]
    fn seeds_differ_by_replica_and_cycle() {
        let ctx = small_ctx();
        assert_ne!(ctx.task_seed(0, 0, 0), ctx.task_seed(1, 0, 0));
        assert_ne!(ctx.task_seed(0, 0, 0), ctx.task_seed(0, 1, 0));
        assert_ne!(ctx.task_seed(0, 0, 0), ctx.task_seed(0, 0, 1));
        assert_eq!(ctx.task_seed(2, 3, 1), ctx.task_seed(2, 3, 1));
    }

    #[test]
    fn apply_swaps_updates_mapping_and_rescales() {
        let mut ctx = small_ctx();
        // Give replica 0 known velocities.
        {
            let mut sys = lock_system(&ctx.replicas[0].system);
            for v in &mut sys.state.velocities {
                *v = mdsim::Vec3::new(1.0, 0.0, 0.0);
            }
        }
        let t0 = ctx.grid.dims[0].ladder[0].scalar();
        let t1 = ctx.grid.dims[0].ladder[1].scalar();
        ctx.apply_swaps(0, &[(0, 1, true), (2, 3, false)]);
        assert_eq!(ctx.ledger.owner()[..4], [1, 0, 2, 3]);
        assert_eq!(ctx.ledger.slot_of()[..4], [1, 0, 2, 3]);
        assert_eq!((ctx.ledger.dims()[0].attempts, ctx.ledger.dims()[0].accepted), (2, 1));
        let v = lock_system(&ctx.replicas[0].system).state.velocities[0].x;
        assert!(
            (v - (t1 / t0).sqrt()).abs() < 1e-12,
            "velocity rescaled by sqrt(T_new/T_old): {v}"
        );
    }

    #[test]
    fn double_swap_restores_identity() {
        let mut ctx = small_ctx();
        ctx.apply_swaps(0, &[(2, 3, true)]);
        ctx.apply_swaps(0, &[(2, 3, true)]);
        assert_eq!(ctx.ledger.owner(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn exchange_unit_shape() {
        let ctx = small_ctx();
        let (desc, _work) = ctx.exchange_unit(0, 0);
        assert!(desc.name.starts_with("exchange-T-d0"));
        assert_eq!(desc.cores, 1, "T exchange is a single MPI task");
        match desc.duration {
            DurationSpec::Modeled { seconds, .. } => {
                let expect = ctx.perf.exchange.exchange_seconds(ExchangeKind::Temperature, 8);
                assert!((seconds - expect).abs() < 1e-9);
            }
            _ => panic!("sim backend uses modeled durations"),
        }
    }

    #[test]
    fn salt_exchange_unit_needs_group_cores() {
        let mut cfg = SimulationConfig::t_remd(4, 100, 1);
        cfg.dimensions =
            vec![crate::config::DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 6 }];
        cfg.surrogate_steps = 10;
        let ctx = build_ctx(cfg).unwrap();
        let (desc, _) = ctx.exchange_unit(0, 0);
        assert_eq!(desc.cores, 6, "as many cores as exchange-group members");
    }

    #[test]
    fn window_sample_collection() {
        let mut ctx = small_ctx();
        ctx.record_samples_at(2, 0, &[(0.1, 0.2), (0.3, 0.4)]);
        ctx.record_samples_at(2, 1, &[(0.5, 0.6)]);
        ctx.record_samples_at(5, 0, &[(1.0, 1.0)]);
        let report = ctx.window_sample_report();
        assert_eq!(report.len(), 2);
        assert_eq!(report[0].slot, 2);
        assert_eq!(report[0].samples.len(), 3);
        assert_eq!(report[1].slot, 5);
    }

    #[test]
    fn attempt_names_unique_across_dims_cycles_and_retries() {
        use std::collections::HashSet;
        let mut names = HashSet::new();
        // One format, spelled like the files the attempt stages.
        assert_eq!(
            attempt_task_name(7, 3, 1, 2),
            format!("md-{}-d1-a2", crate::amm::file_base(7, 3))
        );
        for cycle in 0..3u64 {
            for dim in 0..2 {
                for attempt in 0..3u32 {
                    assert!(
                        names.insert(attempt_task_name(7, cycle, dim, attempt)),
                        "collision at c{cycle} d{dim} a{attempt}"
                    );
                }
            }
        }
    }

    #[test]
    fn attempt_seed_is_identity_at_attempt_zero_and_collision_free() {
        use std::collections::HashSet;
        let base = 0xDEAD_BEEF_u64;
        // First launches keep the base seed: a resumed campaign resubmits
        // attempt 0 with an unchanged spec.
        for slot in 0..16usize {
            assert_eq!(attempt_seed(base, slot, 0), base);
        }
        // Retry seeds are distinct across (slot, attempt) and from the base.
        let mut seen = HashSet::from([base]);
        for slot in 0..64usize {
            for attempt in 1..8u32 {
                assert!(
                    seen.insert(attempt_seed(base, slot, attempt)),
                    "seed collision at slot {slot} attempt {attempt}"
                );
            }
        }
        // The perturbation is a pure function of (slot, attempt): the same
        // retry re-derives the same seed after a resume.
        assert_eq!(attempt_seed(base, 3, 2), attempt_seed(base, 3, 2));
    }

    #[test]
    fn namd_engine_kind() {
        let mut cfg = SimulationConfig::t_remd(4, 100, 1);
        cfg.engine = EngineChoice::Namd;
        let ctx = build_ctx(cfg).unwrap();
        assert_eq!(ctx.cfg.engine_kind(), EngineKind::Namd2);
    }

    #[test]
    fn multicore_amber_uses_pmemd_kind() {
        let mut cfg = SimulationConfig::t_remd(4, 100, 1);
        cfg.resource.cores_per_replica = 8;
        let ctx = build_ctx(cfg).unwrap();
        assert_eq!(ctx.cfg.engine_kind(), EngineKind::PmemdMpi);
    }
}
