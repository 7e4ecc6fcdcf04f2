//! The asynchronous RE pattern: no global barrier (Fig. 1b), as a policy
//! over the shared driver core.
//!
//! Replicas run MD independently; on a fixed real-time tick (the criterion
//! the paper uses in Section 4.6) every replica that has finished its
//! current segment joins an exchange among the ready subset, then
//! immediately resumes MD. Replicas still in the MD phase are untouched —
//! "while some replicas run MD other replicas might be running exchange".
//! Decided here: the tick clock, the ready set, and the per-replica retry
//! counters; submission, accounting and the fault policy are the core's.
//!
//! Supported for 1-D REMD on the simulated backend (matching the paper's
//! asynchronous experiments, which are 1-D T-REMD).

use super::driver::{self, Core, Flight, Flow, Point, Policy, Settled};
use super::DriverCtx;
use crate::checkpoint::{AsyncSchedulerState, SchedulerState};
use crate::config::Pattern;
use crate::ram::ExchangeInput;
use crate::report::CycleReport;
use crate::task::TaskResult;
use obs::Event;
use pilot::description::{DurationSpec, UnitDescription};
use pilot::executor::TaskWork;
use std::collections::HashMap;

/// Outcome of an asynchronous run (per-cycle decomposition does not apply:
/// there are no global cycles).
#[derive(Debug, Clone)]
pub struct AsyncOutcome {
    /// Wall time from start to the last replica finishing its segments.
    pub makespan: f64,
    /// Number of exchange rounds performed.
    pub exchange_rounds: u64,
}

/// Run the asynchronous pattern until every replica has completed
/// `n_cycles` MD segments (or `ctx.cycle_limit` exchange rounds have been
/// flushed by this invocation — a deterministic interruption point that
/// checkpoints and returns with work still in flight).
pub fn run_async(ctx: &mut DriverCtx) -> Result<AsyncOutcome, String> {
    let Pattern::Asynchronous { tick_fraction } = ctx.cfg.pattern else {
        return Err("run_async called with a synchronous configuration".into());
    };
    if !ctx.simulated {
        return Err("the asynchronous pattern requires the simulated backend".into());
    }
    if ctx.grid.n_dims() != 1 {
        return Err("the asynchronous pattern supports 1-D REMD only".into());
    }
    let tick = tick_fraction * ctx.md_model_seconds();
    assert!(tick > 0.0);
    // A fresh campaign is a resume from the initial scheduler state: no
    // round flushed, nobody ready, every replica due its first attempt.
    // Restarting mid-campaign restores the tick clock and round counter,
    // re-enqueues the ready set and resubmits the in-flight segments against
    // the pre-segment microstates the checkpoint restored into the
    // replicas' Systems. Exchange rounds that were in flight at capture
    // were dropped — under the pattern's relaxed consistency that is an
    // all-rejected round, not a correctness violation (DESIGN.md §11).
    let resume = ctx.async_resume.take().unwrap_or_else(|| AsyncSchedulerState {
        next_tick: tick,
        in_flight: (0..ctx.n_replicas()).map(|replica| (replica, 0)).collect(),
        ..Default::default()
    });
    let mut policy = Tick {
        tick,
        next_tick: resume.next_tick,
        // FIFO-style window: a tick only flushes once this many replicas
        // are ready (default 1 = flush whatever is ready, the paper's
        // behaviour).
        min_ready: ctx.cfg.async_min_ready.unwrap_or(1).max(1),
        rounds: resume.exchange_rounds,
        ready: resume.ready,
        retry: resume.retry.into_iter().collect(),
        to_submit: resume.in_flight,
        draining: false,
    };
    driver::run(ctx, &mut policy)?;
    Ok(AsyncOutcome {
        makespan: ctx.pilot.executor.now().as_secs(),
        exchange_rounds: policy.rounds,
    })
}

/// The tick criterion: when the (virtual) clock crosses a tick boundary,
/// the ready subset exchanges and resumes.
struct Tick {
    tick: f64,
    next_tick: f64,
    min_ready: usize,
    /// Exchange rounds flushed so far.
    rounds: u64,
    /// Replica ids awaiting the next exchange round.
    ready: Vec<usize>,
    /// Per-replica monotonic retry counters. Every failure bumps the
    /// counter, and every resubmission — including ones routed through the
    /// ready/flush path by the `Continue` policy — uses it as the attempt
    /// number. Without this the deterministic per-unit failure draw would
    /// repeat verbatim on an identically-named resubmission and the replica
    /// could never make progress.
    retry: HashMap<usize, u32>,
    /// (replica, attempt) to submit when the loop starts.
    to_submit: Vec<(usize, u32)>,
    /// The executor ran dry with replicas still ready (the clock never
    /// crossed another tick): from here on each dry spell flushes them, and
    /// ticks no longer fire.
    draining: bool,
}

/// Submit, as one wave, the next segment of each `(replica, attempt)`.
fn submit_next_segments(
    core: &mut Core,
    ctx: &mut DriverCtx,
    replicas: Vec<(usize, u32)>,
) -> Result<(), String> {
    let wave = replicas
        .into_iter()
        .map(|(replica, attempt)| (replica, ctx.replicas[replica].segments_done, attempt))
        .collect();
    core.submit_md_wave(ctx, 0, wave)
}

impl Tick {
    /// Exchange the ready subset (adjacent-slot pairs within consecutive
    /// runs) and resume MD for all of them.
    fn flush(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<(), String> {
        self.rounds += 1;
        let round = self.rounds;
        let ready = std::mem::take(&mut self.ready);
        if ready.len() >= 2 && !ctx.cfg.no_exchange {
            let unit = ctx.ready_exchange_unit(round, &ready);
            let flight = Flight::Exchange { dim: 0, cycle: round, participants: ready.len() };
            core.submit(ctx, flight, unit)?;
        }
        // Resume MD for all ready replicas at the current slot assignment.
        // The exchange unit's swaps apply when its completion pops, so a
        // replica picks up its new parameters on the segment after next —
        // the relaxed consistency inherent to asynchronous exchange. The
        // attempt number comes from the retry counter so a segment that
        // failed under the Continue policy resubmits under a fresh
        // name/seed.
        let wave = ready
            .into_iter()
            .map(|replica| (replica, self.retry.get(&replica).copied().unwrap_or(0)))
            .collect();
        submit_next_segments(core, ctx, wave)
    }
}

impl Policy for Tick {
    // A flushed round resumes MD before its consistency point.
    const CHECKPOINTS_MID_FLIGHT: bool = true;

    fn steps(&self, _: &DriverCtx) -> u64 {
        self.rounds
    }

    /// Sorted for a deterministic encoding.
    fn checkpoint_state(&self, _: &DriverCtx, core: &Core) -> (SchedulerState, &[CycleReport]) {
        let mut state = AsyncSchedulerState {
            next_tick: self.next_tick,
            exchange_rounds: self.rounds,
            ready: self.ready.clone(),
            in_flight: core.md_in_flight().collect(),
            retry: self.retry.iter().map(|(&r, &a)| (r, a)).collect(),
        };
        state.ready.sort_unstable();
        state.in_flight.sort_unstable();
        state.retry.sort_unstable();
        (SchedulerState::Async(state), &[])
    }

    fn settled(
        &mut self,
        core: &mut Core,
        ctx: &mut DriverCtx,
        unit: Settled,
    ) -> Result<Flow, String> {
        match unit.flight {
            Flight::Md { replica, attempt, .. } => {
                if unit.ok {
                    self.retry.remove(&replica);
                } else {
                    self.retry.insert(replica, attempt + 1);
                }
                // Asynchronous recovery: nobody waits. A replica with
                // segments left — stale or not — rejoins through the ready
                // set; finished replicas retire.
                if !unit.relaunched && ctx.replicas[replica].segments_done < ctx.cfg.n_cycles {
                    self.ready.push(replica);
                }
            }
            // The swaps applied as soon as the unit completed; the
            // participants already resumed MD under their pre-swap
            // parameters (relaxed consistency, see `flush`). A failed round
            // exchanged nothing and leaves no window.
            Flight::Exchange { dim, cycle, participants } if unit.ok => {
                let (kind, start, end) = (ctx.dim_kind(dim).letter(), unit.start, unit.end);
                ctx.ledger.window(kind, dim, participants);
                let window = Event::ExchangeWindow { kind, dim, cycle, participants, start, end };
                core.record(ctx, window);
            }
            Flight::Exchange { .. } => {}
        }
        let now = ctx.pilot.executor.now().as_secs();
        if self.draining || now < self.next_tick || self.ready.len() < self.min_ready {
            return Ok(Flow::Continue);
        }
        while self.next_tick <= now {
            self.next_tick += self.tick;
        }
        self.flush(core, ctx)?;
        // Post-flush is the pattern's consistency point: the ready set is
        // empty and every incomplete replica is either in flight (with a
        // pre-segment snapshot stashed) or retired.
        core.consistency_point(ctx, self, Point::Boundary)
    }

    fn quiescent(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String> {
        if !self.to_submit.is_empty() {
            submit_next_segments(core, ctx, std::mem::take(&mut self.to_submit))?;
            return Ok(Flow::Continue);
        }
        if self.draining {
            core.consistency_point(ctx, self, Point::Drain)?;
        }
        if self.ready.is_empty() {
            // Trailing exchange completions merge acceptance after the last
            // flushed round, so the terminal snapshot — the one the
            // consistency proof compares against the final report — closes
            // only now that the loop has fully drained. Resuming from the
            // terminal checkpoint is a no-op.
            return core.consistency_point(ctx, self, Point::Final);
        }
        // Leftover ready replicas run their remaining segments without
        // waiting for a tick, failures handled exactly as before the drain.
        self.draining = true;
        self.flush(core, ctx)?;
        Ok(Flow::Continue)
    }
}

impl DriverCtx {
    /// Exchange unit over the ready subset: groups are maximal runs of
    /// consecutive occupied slots, so pairing stays nearest-neighbour.
    fn ready_exchange_unit(
        &self,
        round: u64,
        ready: &[usize],
    ) -> (UnitDescription, TaskWork<TaskResult>) {
        let mut slots: Vec<usize> = ready.iter().map(|&r| self.ledger.slot_of()[r]).collect();
        slots.sort_unstable();
        // Each participant's staged output is that of its last segment.
        let groups = slots
            .chunk_by(|a, b| *b == a + 1)
            .map(|run| self.group_input(0, run, |r| r.segments_done.saturating_sub(1)))
            .collect();
        let input = ExchangeInput {
            dim: 0,
            cycle: round,
            strategy: self.cfg.pairing,
            seed: self.cfg.seed ^ 0xA5A5_0000 ^ round,
            groups,
            staging: self.pilot.staging.clone(),
        };
        let duration = DurationSpec::Modeled {
            seconds: self.perf.exchange.exchange_seconds(self.dim_kind(0), ready.len()),
            sigma: self.perf.noise.exchange_sigma,
        };
        self.exchange_task(format!("exchange-async-r{round:05}"), 1, duration, input)
    }
}
