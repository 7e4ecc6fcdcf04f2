//! The one driver core: a single completion loop over the pilot's executor.
//!
//! Naming and seeding an MD attempt, accounting its completion, routing a
//! failure through the fault policy, applying an exchange result and closing
//! a consistency point are the same whatever the RE pattern, and live here
//! once. A pattern is a [`Policy`]: it decides *who exchanges when* by
//! reacting to the two things the loop reports — a unit settled, or the
//! executor ran dry. The event source is `executor.next_completion()` (on
//! the simulated backend, `hpc::EventQueue` popping in virtual-time order,
//! FIFO on ties); the loop adds no queue of its own.

use super::{attempt_seed, attempt_task_name, emit_live, DriverCtx};
use crate::checkpoint::SchedulerState;
use crate::config::FaultPolicy;
use crate::replica::lock_system;
use crate::report::CycleReport;
use crate::task::TaskResult;
use obs::Event;
use pilot::description::UnitDescription;
use pilot::executor::{CompletedUnit, TaskWork, UnitId};
use pilot::staging::Retired;
use std::collections::HashMap;

/// How many MD units of a wave the driver prepares and submits at a time, so
/// that at most one window of payload closures, descriptions and results
/// exists, however wide the wave. No window advances the clock: accounting
/// order, names, seeds and virtual times are those of the whole wave in one
/// batch. 512 and 1 024 cost no wall time against one batch on a 7 000-replica
/// wave; 256 read up to 17 % slower (DESIGN.md §15).
pub const WINDOW: usize = 512;

/// An in-flight unit, keyed by the id the executor gave it. Everything is
/// captured at *submission*: slot ownership can change while a segment is
/// in flight (an exchange result may land first), so reading the walk
/// (`ctx.ledger`) at completion time would blame the wrong replica.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Flight {
    Md {
        slot: usize,
        replica: usize,
        attempt: u32,
        cycle: u64,
        dim: usize,
    },
    /// `cycle` is the barrier's cycle or the tick policy's round.
    Exchange {
        dim: usize,
        cycle: u64,
        participants: usize,
    },
}

/// A [`Flight`] as the in-flight table holds it, one per unit in flight:
/// the same fields in 24 bytes instead of 40 (`slot` is an exchange's
/// `participants`).
#[derive(Debug, Clone, Copy)]
struct Packed {
    cycle: u64,
    slot: u32,
    replica: u32,
    attempt: u32,
    dim: u16,
    md: bool,
}

impl From<Flight> for Packed {
    fn from(flight: Flight) -> Self {
        let (md, slot, replica, attempt, cycle, dim) = match flight {
            Flight::Md { slot, replica, attempt, cycle, dim } => {
                (true, slot, replica, attempt, cycle, dim)
            }
            Flight::Exchange { dim, cycle, participants } => {
                (false, participants, 0, 0, cycle, dim)
            }
        };
        let narrow = |n: usize| u32::try_from(n).expect("fewer than 2^32 slots");
        let dim = u16::try_from(dim).expect("fewer than 2^16 dimensions");
        Packed { cycle, slot: narrow(slot), replica: narrow(replica), attempt, dim, md }
    }
}

impl From<Packed> for Flight {
    fn from(p: Packed) -> Self {
        let (slot, dim, cycle) = (p.slot as usize, usize::from(p.dim), p.cycle);
        if p.md {
            Flight::Md { slot, replica: p.replica as usize, attempt: p.attempt, cycle, dim }
        } else {
            Flight::Exchange { dim, cycle, participants: slot }
        }
    }
}

/// A unit ready for the executor.
pub(crate) type Unit = (UnitDescription, TaskWork<TaskResult>);

/// A unit the loop took off the executor, after the core's accounting.
pub(crate) struct Settled {
    pub flight: Flight,
    pub start: f64,
    pub end: f64,
    pub ok: bool,
    /// A failed MD attempt the fault policy has already resubmitted.
    pub relaunched: bool,
}

/// Whether the campaign keeps going after a policy callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    Continue,
    Finished,
}

/// Where in the campaign a consistency point falls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Point {
    /// A resumable boundary mid-campaign (cycle barrier, flushed round):
    /// checkpoint when due, honour a stop request or the cycle limit.
    Boundary,
    /// A round of the tick policy's final drain, which runs to completion:
    /// the telemetry window closes, nothing is checkpointed or stopped.
    Drain,
    /// The campaign is complete: terminal snapshot, terminal checkpoint.
    Final,
}

/// An RE pattern: who exchanges when.
pub(crate) trait Policy {
    /// Whether a consistency point can fall while MD is in flight. If so,
    /// every submission stashes a pre-segment restart snapshot: the
    /// executor runs payloads eagerly, so by checkpoint time an in-flight
    /// segment has already advanced its `System`.
    const CHECKPOINTS_MID_FLIGHT: bool;

    /// Completed cycles (barrier) or flushed rounds (tick): the unit of the
    /// checkpoint interval, `cycle_limit` and `progress_every`.
    fn steps(&self, ctx: &DriverCtx) -> u64;

    /// What a checkpoint written now must carry.
    fn checkpoint_state(&self, ctx: &DriverCtx, core: &Core) -> (SchedulerState, &[CycleReport]);

    fn settled(&mut self, _: &mut Core, _: &mut DriverCtx, _: Settled) -> Result<Flow, String> {
        Ok(Flow::Continue)
    }

    /// The executor ran dry: nothing is in flight. This is also how a
    /// campaign (or a resumed leg) starts.
    fn quiescent(&mut self, core: &mut Core, ctx: &mut DriverCtx) -> Result<Flow, String>;
}

/// Loop state shared by every policy.
pub(crate) struct Core {
    /// What each unit in flight is, under the id the executor gave it.
    flights: HashMap<UnitId, Packed>,
    /// Events since the last consistency point. Buffered rather than
    /// recorded one by one because the barrier derives its `CycleTiming`
    /// from exactly this window (one source of truth, so a report can never
    /// disagree with an exported trace). The Eq. 1 phase events are always
    /// here; the per-unit ones (`MdSegment`, `ExchangeOutcome`,
    /// `TaskRelaunch`) only when a recorder will receive them.
    pub events: Vec<Event>,
    failed_at_last_checkpoint: u64,
    /// `cycle_limit` as an absolute step count.
    limit: Option<u64>,
    snapshot_md: bool,
}

/// Drive `policy` until it reports the campaign (or this leg) finished.
pub(crate) fn run<P: Policy>(ctx: &mut DriverCtx, policy: &mut P) -> Result<(), String> {
    if ctx.cycle_limit == Some(0) {
        return Ok(());
    }
    let mut core = Core {
        flights: HashMap::new(),
        events: Vec::new(),
        failed_at_last_checkpoint: ctx.failed_tasks,
        limit: ctx.cycle_limit.map(|k| policy.steps(ctx).saturating_add(k)),
        snapshot_md: P::CHECKPOINTS_MID_FLIGHT && ctx.checkpoint.is_some(),
    };
    loop {
        let flow = match ctx.pilot.executor.next_completion() {
            Some(unit) => {
                let unit = core.settle(ctx, unit)?;
                policy.settled(&mut core, ctx, unit)?
            }
            None => {
                // Nothing is in flight: the drained wave's table goes (the
                // next wave reserves its own), so the exchange that follows
                // runs beside no table sized for a wave.
                debug_assert!(core.flights.is_empty(), "a unit never completed");
                core.flights = HashMap::new();
                policy.quiescent(&mut core, ctx)?
            }
        };
        if flow == Flow::Finished {
            return Ok(());
        }
    }
}

impl Core {
    /// In-flight MD work as (replica, attempt).
    pub fn md_in_flight(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.flights.values().filter_map(|&f| match f.into() {
            Flight::Md { replica, attempt, .. } => Some((replica, attempt)),
            Flight::Exchange { .. } => None,
        })
    }

    /// Build attempt `attempt` of `replica`'s segment `(cycle, dim)` at the
    /// slot it occupies now, and stage its inputs. The unit's payload drops
    /// `retired` (see [`retire`]) on the slot that runs it.
    fn prepare_md(
        &self,
        ctx: &mut DriverCtx,
        (replica, cycle, attempt): (usize, u64, u32),
        dim: usize,
        retired: Retired,
    ) -> Result<(Flight, Unit), String> {
        let slot = ctx.ledger.slot_of()[replica];
        let mut spec = ctx.md_spec(slot, cycle, dim);
        // A retry runs an independent trajectory under a fresh unit name.
        spec.seed = attempt_seed(spec.seed, slot, attempt);
        if self.snapshot_md {
            let state = lock_system(&ctx.replicas[replica].system).state.clone();
            ctx.preseg_snapshots.insert(replica, (state, cycle));
        }
        let name = attempt_task_name(replica, cycle, dim, attempt);
        let unit = crate::amm::prepare_md(&ctx.amm, spec, name, &ctx.pilot.staging, retired)?;
        Ok((Flight::Md { slot, replica, attempt, cycle, dim }, unit))
    }

    /// Submit a wave of MD segments in dimension pass `dim`, one
    /// `(replica, cycle, attempt)` each, in batches of [`WINDOW`] units: the
    /// replicas are independent until the next exchange, so the executor may
    /// run a window's payloads concurrently.
    ///
    /// The replicas' previous files ([`retire`]) leave the staging area one
    /// window ahead: the first window's are freed here, and each later
    /// window's go to the units of the window before it, whose payloads free
    /// them on the slots that run them. So no window holds its replicas' old
    /// files while it stages their new inputs, and no consistency point
    /// falls in between: what the area holds at each is what it held when
    /// the whole wave retired its files before any payload ran.
    pub fn submit_md_wave(
        &mut self,
        ctx: &mut DriverCtx,
        dim: usize,
        wave: Vec<(usize, u64, u32)>,
    ) -> Result<(), String> {
        self.flights.reserve(wave.len());
        for &unit in &wave[..wave.len().min(WINDOW)] {
            drop(retire(ctx, dim, unit));
        }
        let mut windows = wave.chunks(WINDOW).peekable();
        while let Some(window) = windows.next() {
            let mut ahead = windows.peek().copied().unwrap_or_default().iter();
            let mut flights = Vec::with_capacity(window.len());
            let mut units = Vec::with_capacity(window.len());
            for &unit in window {
                let retired = ahead.next().map_or_else(Retired::default, |&u| retire(ctx, dim, u));
                let (flight, unit) = self.prepare_md(ctx, unit, dim, retired)?;
                flights.push(Packed::from(flight));
                units.push(unit);
            }
            let ids = ctx.pilot.executor.submit_batch(units)?;
            debug_assert_eq!(ids.len(), flights.len());
            self.flights.extend(ids.into_iter().zip(flights));
        }
        Ok(())
    }

    /// Submit a single unit.
    pub fn submit(
        &mut self,
        ctx: &mut DriverCtx,
        flight: Flight,
        (desc, work): Unit,
    ) -> Result<(), String> {
        let id = ctx.pilot.executor.submit(desc, work)?;
        self.flights.insert(id, flight.into());
        Ok(())
    }

    /// Fold one completion into the campaign state.
    fn settle(
        &mut self,
        ctx: &mut DriverCtx,
        unit: CompletedUnit<TaskResult>,
    ) -> Result<Settled, String> {
        let flight = self
            .flights
            .remove(&unit.id)
            .ok_or_else(|| format!("completion of unknown unit {}", unit.name))?
            .into();
        let (start, end) = (unit.start.as_secs(), unit.end.as_secs());
        let ok = unit.outcome.is_ok();
        let mut relaunched = false;
        if !ok {
            ctx.failed_tasks += 1;
        }
        if let Flight::Md { slot, replica, attempt, cycle, dim } = flight {
            // A failed exchange belongs to no replica; a failed segment to one.
            ctx.replicas[replica].failures += u32::from(!ok);
            ctx.preseg_snapshots.remove(&replica);
            if ctx.recorder.is_enabled() {
                self.events.push(Event::MdSegment {
                    replica,
                    slot,
                    cycle,
                    dim,
                    attempt,
                    cores: unit.cores,
                    start,
                    end,
                    ok,
                });
            }
        }
        match (flight, unit.outcome) {
            (Flight::Md { slot, replica, cycle, .. }, Ok(TaskResult::Md(md))) => {
                ctx.md_core_seconds += (unit.end - unit.start) * unit.cores as f64;
                ctx.record_samples_at(slot, cycle, &md.trace);
                let r = &mut ctx.replicas[replica];
                r.stale = false;
                r.segments_done += 1;
            }
            (Flight::Md { slot, replica, attempt, cycle, dim }, Err(_)) => {
                match ctx.cfg.fault_policy {
                    FaultPolicy::Relaunch { max_retries } if attempt < max_retries => {
                        ctx.relaunched_tasks += 1;
                        if ctx.recorder.is_enabled() {
                            self.events.push(Event::TaskRelaunch {
                                name: unit.name,
                                slot,
                                attempt: attempt + 1,
                                at: ctx.pilot.executor.now().as_secs(),
                            });
                        }
                        // One completion at a time: a relaunch is a
                        // single submission, not a wave.
                        // A retry has nothing to retire: attempt 0 did.
                        let retry = (replica, cycle, attempt + 1);
                        let (retry, unit) = self.prepare_md(ctx, retry, dim, Retired::default())?;
                        self.submit(ctx, retry, unit)?;
                        relaunched = true;
                    }
                    // Continue policy (or retries exhausted): the replica
                    // sits out acceptance in its next exchange, and when it
                    // runs again is the pattern's call. The simulation as a
                    // whole keeps running — the paper's core
                    // fault-tolerance property.
                    _ => ctx.replicas[replica].stale = true,
                }
            }
            (Flight::Exchange { dim, cycle, .. }, Ok(TaskResult::Exchange(report))) => {
                // One outcome event per Metropolis attempt (the exchange
                // task records pair_outcomes in lockstep with its
                // AcceptanceStats), before the covering window event, so
                // acceptance ratios are derivable from the trace alone.
                if ctx.recorder.is_enabled() {
                    for &(slot_lo, slot_hi, accepted) in &report.pair_outcomes {
                        self.events.push(Event::ExchangeOutcome {
                            dim,
                            cycle,
                            slot_lo,
                            slot_hi,
                            accepted,
                            at: end,
                        });
                    }
                }
                ctx.apply_swaps(dim, &report.pair_outcomes);
                ctx.record_pair_outcomes(&report.pair_outcomes);
            }
            // A failed exchange (injected fault) skips the swap; replicas
            // keep their parameters.
            (Flight::Exchange { .. }, Err(_)) => {}
            _ => return Err(format!("unit {} returned the wrong kind of result", unit.name)),
        }
        Ok(Settled { flight, start, end, ok, relaunched })
    }

    /// Close the window since the last consistency point: flush its events,
    /// emit one telemetry snapshot, checkpoint when one is due, render the
    /// progress line, and decide whether the leg ends here.
    pub fn consistency_point<P: Policy>(
        &mut self,
        ctx: &mut DriverCtx,
        policy: &P,
        point: Point,
    ) -> Result<Flow, String> {
        ctx.recorder.extend(std::mem::take(&mut self.events));
        let steps = policy.steps(ctx);
        // Emitting before the checkpoint write means the checkpoint's
        // telemetry cursor covers this snapshot, so a resumed leg re-emits
        // (identically, sync resume being bit-exact) rather than skips.
        let snapshot = emit_live(ctx, point == Point::Final)?;
        // A cooperative stop (campaign cancellation or service shutdown) is
        // honoured here and only here, so the final checkpoint it forces is
        // indistinguishable from a `--stop-after` one.
        let stop = point == Point::Boundary
            && (ctx.stop_requested() || self.limit.is_some_and(|limit| steps >= limit));
        let due = point != Point::Drain
            && ctx.checkpoint.as_ref().is_some_and(|ckpt| {
                ckpt.due(steps)
                    || ctx.failed_tasks > self.failed_at_last_checkpoint
                    || point == Point::Final
                    || stop
            });
        if due {
            let (scheduler, reports) = policy.checkpoint_state(ctx, self);
            crate::checkpoint::write_if_configured(ctx, scheduler, reports)?;
            self.failed_at_last_checkpoint = ctx.failed_tasks;
        }
        // The progress line renders straight off the snapshot bus — the
        // single source of truth shared with the exporters and `repex
        // watch` (equivalence with the old in-driver accounting is proven
        // in tests/it_telemetry.rs).
        if ctx.cfg.progress_every > 0 && steps.is_multiple_of(ctx.cfg.progress_every) {
            if let Some(snap) = &snapshot {
                eprintln!("{}", obs::render_progress_line(snap));
            }
        }
        Ok(if stop || point == Point::Final { Flow::Finished } else { Flow::Continue })
    }
}

/// Take the files of the segment before `(replica, cycle, attempt)`'s out of
/// the staging area, when that unit is the first to supersede them.
///
/// Staging retention: a segment's files are dead once the replica's next
/// segment is first submitted — every unit that named them as input has
/// settled by then (barrier: the exchange that read them drained before this
/// phase began; tick: `flush` submits the round's exchange, which the
/// simulated executor runs on the spot, before the wave). Dimension passes
/// of one cycle share a base, so only the first retires anything, and a
/// retry has nothing left to retire. What is left after a run is each
/// replica's last segment.
fn retire(ctx: &DriverCtx, dim: usize, (replica, cycle, attempt): (usize, u64, u32)) -> Retired {
    if attempt > 0 || dim > 0 || cycle == 0 {
        return Retired::default();
    }
    ctx.pilot.staging.take_prefix(crate::amm::file_name(replica, cycle - 1, ""))
}
