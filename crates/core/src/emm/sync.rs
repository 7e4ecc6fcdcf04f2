//! The synchronous RE pattern: a global barrier between the simulation and
//! exchange phases (Fig. 1a / Fig. 2 of the paper), as a policy over the
//! shared driver core.
//!
//! One cycle of an M-REMD simulation performs, for each dimension in order:
//! an MD phase over all replicas, data staging, and the exchange in that
//! dimension ("simulations are performed only in one dimension at any given
//! instant of time"). The barrier is the executor running dry: each phase
//! submits its units and the policy advances when nothing is left in flight.
//! Decided here: the phase order, the Eq. 1 overhead charges and the
//! `CycleReport`. Execution Mode II needs no special handling: when the
//! pilot has fewer cores than replicas, the core timeline batches the MD
//! units into waves automatically.

use super::driver::{self, Core, Flight, Flow, Point, Policy};
use super::DriverCtx;
use crate::checkpoint::SchedulerState;
use crate::report::CycleReport;
use crate::timing::timing_from_breakdown;
use obs::{Event, OverheadScope};

/// Run the configured number of synchronous cycles; returns per-cycle
/// reports.
///
/// Resume-aware: starts at `ctx.completed_cycles` (nonzero when the context
/// was restored from a checkpoint) and prepends the interrupted leg's cycle
/// reports, so a resumed campaign's final report covers the whole run.
/// Every cycle barrier is a consistency point: when a checkpoint policy is
/// configured one is written on the interval, after any cycle that saw
/// failures, and at the end of the leg.
pub fn run_sync(ctx: &mut DriverCtx) -> Result<Vec<CycleReport>, String> {
    let reports = std::mem::take(&mut ctx.prior_cycle_reports);
    let mut barrier = Barrier { reports, ..Default::default() };
    driver::run(ctx, &mut barrier)?;
    Ok(barrier.reports)
}

/// What the executor is draining when it next runs dry.
#[derive(Default, PartialEq)]
enum Phase {
    /// Nothing: between cycles, or before the first.
    #[default]
    Idle,
    Md,
    Exchange,
}

/// The per-cycle phase machine: MD(dim) → data stage → exchange(dim) for
/// each dimension, advanced whenever the executor runs dry.
#[derive(Default)]
struct Barrier {
    cycle: u64,
    dim: usize,
    phase: Phase,
    /// Virtual time the draining phase began.
    phase_start: f64,
    rebuilds_before: u64,
    reports: Vec<CycleReport>,
}

/// Charge `seconds` of serialized client-side overhead to the pipeline and
/// record it as one Eq. 1 term.
fn charge(core: &mut Core, ctx: &mut DriverCtx, scope: OverheadScope, cycle: u64, seconds: f64) {
    let start = ctx.pilot.executor.now().as_secs();
    ctx.pilot.executor.charge_overhead(seconds);
    let end = ctx.pilot.executor.now().as_secs();
    core.events.push(Event::Overhead { scope, cycle, start, end });
}

impl Barrier {
    fn begin_cycle(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String> {
        self.cycle = ctx.completed_cycles;
        self.dim = 0;
        self.rebuilds_before = mdsim::neighbor::neighbor_cache_rebuilds();
        if ctx.simulated {
            let n = ctx.n_replicas();
            // RepEx framework overhead: task preparation and local method
            // calls, once per cycle (Fig. 5 plots it per cycle).
            let t = ctx.perf.overhead.repex_seconds(ctx.grid.n_dims(), n);
            charge(core, ctx, OverheadScope::Repex, self.cycle, t);
            // RP 0.35's Mode II MPI-scheduling defect (see OverheadModel):
            // only when the pilot cannot hold all replicas concurrently.
            if ctx.pilot.cores() < n * ctx.cfg.resource.cores_per_replica {
                let t = ctx.perf.overhead.mode2_sched_per_core * ctx.pilot.cores() as f64;
                charge(core, ctx, OverheadScope::Rp, self.cycle, t);
            }
        }
        self.begin_md(core, ctx)
    }

    fn begin_md(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String> {
        if ctx.simulated {
            // RP overhead: launching N tasks through the agent.
            let t = ctx.perf.overhead.rp_seconds(ctx.n_replicas(), &ctx.cluster);
            charge(core, ctx, OverheadScope::Rp, self.cycle, t);
        }
        self.phase = Phase::Md;
        self.phase_start = ctx.pilot.executor.now().as_secs();
        let wave = ctx.ledger.owner().iter().map(|&replica| (replica, self.cycle, 0)).collect();
        core.submit_md_wave(ctx, self.dim, wave)?;
        Ok(Flow::Continue)
    }

    fn end_cycle(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String> {
        let cycle = self.cycle;
        let rebuilds =
            mdsim::neighbor::neighbor_cache_rebuilds().saturating_sub(self.rebuilds_before);
        if ctx.recorder.is_enabled() && rebuilds > 0 {
            // Process-wide counter: under parallel test runs this may
            // include other simulations' rebuilds; it is diagnostic only.
            let at = ctx.pilot.executor.now().as_secs();
            core.events.push(Event::CacheRebuild { cycle, rebuilds, at });
        }
        // Eq. 1 from the event stream: the events carry the same clock
        // probes in the same order as the per-field accumulation they
        // replaced, so the derived timing matches it to floating-point
        // rounding (≪ 1e-9).
        let timing = obs::cycle_breakdowns(&core.events)
            .first()
            .map_or_else(Default::default, timing_from_breakdown);
        ctx.record_rungs();
        self.reports.push(CycleReport { cycle, timing });
        ctx.completed_cycles = cycle + 1;
        let point =
            if ctx.completed_cycles == ctx.cfg.n_cycles { Point::Final } else { Point::Boundary };
        self.phase = Phase::Idle;
        core.consistency_point(ctx, self, point)
    }
}

impl Policy for Barrier {
    // Checkpoints land on cycle barriers, where nothing is in flight.
    const CHECKPOINTS_MID_FLIGHT: bool = false;

    fn steps(&self, ctx: &DriverCtx) -> u64 {
        ctx.completed_cycles
    }

    fn checkpoint_state(&self, ctx: &DriverCtx, _: &Core) -> (SchedulerState, &[CycleReport]) {
        (SchedulerState::Sync { cycles_done: ctx.completed_cycles }, &self.reports)
    }

    fn quiescent(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String> {
        if self.phase == Phase::Idle {
            let finished = ctx.completed_cycles >= ctx.cfg.n_cycles;
            return if finished { Ok(Flow::Finished) } else { self.begin_cycle(core, ctx) };
        }
        let (cycle, dim) = (self.cycle, self.dim);
        let participants = ctx.n_replicas();
        let kind = ctx.dim_kind(dim);
        if self.phase == Phase::Md {
            // Global barrier: every MD segment (and relaunch) has finished.
            let end = ctx.pilot.executor.now().as_secs();
            core.events.push(Event::MdPhase { cycle, dim, start: self.phase_start, end });
            if ctx.simulated {
                let t = ctx.perf.data.data_seconds(kind, participants, &ctx.cluster);
                ctx.pilot.executor.charge_overhead(t);
                core.events.push(Event::DataStage {
                    kind: kind.letter(),
                    dim,
                    cycle,
                    start: end,
                    end: ctx.pilot.executor.now().as_secs(),
                });
            }
            self.phase_start = ctx.pilot.executor.now().as_secs();
            if !ctx.cfg.no_exchange {
                self.phase = Phase::Exchange;
                let unit = ctx.exchange_unit(dim, cycle);
                core.submit(ctx, Flight::Exchange { dim, cycle, participants }, unit)?;
                return Ok(Flow::Continue);
            }
        }
        // The exchange window closes whether the unit succeeded or failed
        // (an injected fault skips the swap, not the Eq. 1 term); the
        // no-exchange baseline records an empty one. The ledger takes it
        // as a fold of the trace would.
        let participants = if self.phase == Phase::Exchange { participants } else { 0 };
        ctx.ledger.window(kind.letter(), dim, participants);
        core.events.push(Event::ExchangeWindow {
            kind: kind.letter(),
            dim,
            cycle,
            participants,
            start: self.phase_start,
            end: ctx.pilot.executor.now().as_secs(),
        });
        if dim + 1 < ctx.grid.n_dims() {
            self.dim += 1;
            self.begin_md(core, ctx)
        } else {
            self.end_cycle(core, ctx)
        }
    }
}
