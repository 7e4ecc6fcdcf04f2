//! Per-layer probes: each times calls into one crate's public functions,
//! from outside, on inputs shaped like the workloads'. They are the same for
//! every workload (a layer's cost does not depend on who asks), fixed in
//! size so counts repeat exactly, and each timing is the median of a few
//! repeats of a loop long enough to dwarf the stopwatch.
//!
//! Build rule: nothing here names a third-party crate or calls a function
//! whose signature mentions one; randomness for inputs comes from
//! [`SplitMix`], seeded from `--seed`.

use crate::checks::{ensure, Checks};
use crate::json::{self, Value};
use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{Scale, WorkloadSpec};
use hpc::{CorePool, CoreTimeline, EventQueue, FaultModel, SimTime};
use mdsim::engine::SanderEngine;
use mdsim::models::{alanine_dipeptide, dipeptide_forcefield, solvated_alanine_dipeptide};
use mdsim::{EvalContext, MdEngine, MdJob, NeighborCache, SinglePointRequest, System, Vec3};
use obs::{Event, OverheadScope, Recorder};
use pilot::{DurationSpec, Executor, LocalExecutor, SimExecutor, StagingArea, UnitDescription};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Probe results by metric name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// SplitMix64: the harness's own input generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Probe sizes. `Quick` shrinks every loop so `--quick` finishes in seconds
/// while still running every check.
struct Sizes {
    solvated_atoms: usize,
    md_steps: u64,
    reps: usize,
    wide_units: usize,
    queue_small: usize,
    queue_large: usize,
    obs_ops: usize,
    obs_cycles: u64,
    obs_replicas: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Sizes {
        match scale {
            Scale::Full => Sizes {
                solvated_atoms: 2881,
                md_steps: 40,
                reps: 5,
                wide_units: 7000,
                queue_small: 10_000,
                queue_large: 100_000,
                obs_ops: 200_000,
                obs_cycles: 10,
                obs_replicas: 2000,
            },
            Scale::Quick => Sizes {
                solvated_atoms: 600,
                md_steps: 6,
                reps: 3,
                wide_units: 500,
                queue_small: 1000,
                queue_large: 4000,
                obs_ops: 5000,
                obs_cycles: 3,
                obs_replicas: 50,
            },
        }
    }
}

/// Median seconds of `reps` runs of `f`, each inside a span.
fn timed(spans: &mut Spans, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps).map(|_| spans.time(name, |_| f()).1).collect();
    median(&times)
}

pub fn run_all(spans: &mut Spans, checks: &mut Checks, seed: u64, scale: Scale) -> Metrics {
    let sizes = Sizes::of(scale);
    let mut m = Metrics::new();
    spans.time("probes.mdsim", |s| mdsim_probes(s, checks, seed, &sizes, &mut m));
    spans.time("probes.exchange", |s| exchange_probes(s, &sizes, &mut m));
    spans.time("probes.pilot", |s| pilot_probes(s, checks, seed, &sizes, &mut m));
    spans.time("probes.hpc", |s| hpc_probes(s, checks, seed, &sizes, &mut m));
    spans.time("probes.obs", |s| obs_probes(s, checks, &sizes, &mut m));
    m
}

fn job(steps: u64, seed: u64) -> MdJob {
    MdJob { steps, seed, ..MdJob::default() }
}

/// Maxwell-Boltzmann velocities at `t` K from the harness's own generator
/// (the crate's `assign_maxwell_boltzmann` takes a third-party `Rng`).
fn thermalise(sys: &mut System, t: f64, rng: &mut SplitMix) {
    let mut gauss = || {
        // Box-Muller; 1 - u keeps the logarithm finite.
        let r = (-2.0 * (1.0 - rng.next_f64()).ln()).sqrt();
        r * (std::f64::consts::TAU * rng.next_f64()).cos()
    };
    for (atom, v) in sys.topology.atoms.iter().zip(sys.state.velocities.iter_mut()) {
        let sigma = (mdsim::units::kbt(t) / atom.mass).sqrt();
        *v = Vec3::new(gauss(), gauss(), gauss()) * sigma;
    }
    sys.remove_com_motion();
}

fn mdsim_probes(spans: &mut Spans, checks: &mut Checks, seed: u64, sz: &Sizes, m: &mut Metrics) {
    let ff = dipeptide_forcefield();
    let engine = SanderEngine::new(ff.nonbonded);
    let mut sys = solvated_alanine_dipeptide(sz.solvated_atoms, seed);
    thermalise(&mut sys, 300.0, &mut SplitMix(seed));
    let n = sys.n_atoms();

    // A pair list built a few steps ago (atoms have moved, but within the
    // skin) against a list built fresh at the current coordinates.
    let mut ctx = EvalContext::new();
    let mut forces = vec![Vec3::ZERO; n];
    ff.energy_forces_ctx(&sys, &mut ctx, &mut forces);
    engine.run(&mut sys, &job(3, seed)).expect("stable short run");
    let cached = ff.energy_forces_ctx(&sys, &mut ctx, &mut forces);
    let mut fresh_forces = vec![Vec3::ZERO; n];
    let fresh = ff.energy_forces_ctx(&sys, &mut EvalContext::with_skin(0.0), &mut fresh_forces);
    checks.check("mdsim.cached_vs_fresh_energy", || {
        ensure(ctx.neighbors.reuses() == 1, || {
            "3 steps outran the skin; nothing was cached".into()
        })?;
        let tol = 1e-9 * fresh.total().abs().max(1.0);
        ensure((cached.total() - fresh.total()).abs() <= tol, || {
            format!("cached {} vs fresh {}", cached.total(), fresh.total())
        })
    });
    checks.check("mdsim.forces_finite", || {
        let finite = |f: &Vec3| f.x.is_finite() && f.y.is_finite() && f.z.is_finite();
        ensure(forces.iter().chain(&fresh_forces).all(finite), || {
            "non-finite force component".into()
        })
    });

    // Force kernel on fixed coordinates: every call reuses the pair list.
    let pairs = ctx.neighbors.pairs().len();
    let evals = 10;
    let force_s = timed(spans, "mdsim.force_eval", sz.reps, || {
        for _ in 0..evals {
            black_box(ff.energy_forces_ctx(black_box(&sys), &mut ctx, &mut forces));
        }
    }) / evals as f64;
    m.insert("mdsim.force_eval_us", force_s * 1e6);
    m.insert("mdsim.pairs", pairs as f64);
    m.insert("mdsim.force_ns_per_pair", force_s * 1e9 / pairs as f64);

    // Full neighbor-list build (cell list + exclusion filter).
    let mut cache = NeighborCache::new(NeighborCache::DEFAULT_SKIN);
    let build_s = timed(spans, "mdsim.neighbor_build", sz.reps, || {
        cache.invalidate();
        black_box(cache.ensure(black_box(&sys), ff.nonbonded.cutoff));
    });
    m.insert("mdsim.neighbor_build_us", build_s * 1e6);

    // Engine step cost: an (N+1)-step run minus a 1-step run cancels the
    // per-call fixed cost (input checks, first force evaluation, mdinfo).
    // The same subtraction on the process-wide rebuild counter gives the
    // pair-list rebuilds those N steps (one force evaluation each) caused.
    let steps = sz.md_steps;
    let mut scratch = sys.clone();
    let mut run_steps = |spans: &mut Spans, name, n_steps: u64, reps: usize| {
        let before = mdsim::neighbor::neighbor_cache_rebuilds();
        let s = timed(spans, name, reps, || {
            scratch.clone_from(&sys);
            black_box(engine.run(&mut scratch, &job(n_steps, seed)).expect("stable short run"));
        });
        (s, (mdsim::neighbor::neighbor_cache_rebuilds() - before) / reps as u64)
    };
    let (one_s, one_rebuilds) = run_steps(spans, "mdsim.run_1", 1, sz.reps);
    let (many_s, many_rebuilds) = run_steps(spans, "mdsim.run_n", steps + 1, 3);
    let step_s = (many_s - one_s) / steps as f64;
    m.insert("mdsim.step_us", step_s * 1e6);
    m.insert("mdsim.run_fixed_solvated_us", (one_s - step_s) * 1e6);
    let step_rebuilds = many_rebuilds - one_rebuilds;
    m.insert("mdsim.neighbor_rebuilds", step_rebuilds as f64);
    m.insert("mdsim.neighbor_reuses", (steps - step_rebuilds) as f64);
    m.insert("mdsim.neighbor_reuse_ratio", (steps - step_rebuilds) as f64 / steps as f64);

    // Single points on the solvated system: one at a time, and a batch of
    // eight on the same coordinates (S/U/pH exchange shares one pair list).
    let sp_s = timed(spans, "mdsim.single_point", sz.reps, || {
        black_box(engine.single_point(black_box(&sys), 0.5, &[]));
    });
    m.insert("mdsim.single_point_us", sp_s * 1e6);
    let salts: Vec<f64> = (0..8).map(|i| f64::from(i) / 8.0).collect();
    let requests: Vec<SinglePointRequest<'_>> =
        salts.iter().map(|s| SinglePointRequest::new(*s, 7.0, &[])).collect();
    let batch_s = timed(spans, "mdsim.single_points_batch8", sz.reps, || {
        black_box(engine.single_points_with(black_box(&sys), &requests));
    });
    m.insert("mdsim.single_points_batch8_us", batch_s * 1e6);

    // The 7-atom vacuum dipeptide the three wide workloads integrate.
    let small = alanine_dipeptide();
    let mut small_scratch = small.clone();
    let calls = 200;
    let fixed_s = timed(spans, "mdsim.run_fixed_small", sz.reps, || {
        for i in 0..calls {
            small_scratch.clone_from(&small);
            black_box(engine.run(&mut small_scratch, &job(1, seed ^ i)).expect("stable run"));
        }
    }) / calls as f64;
    m.insert("mdsim.run_fixed_us", fixed_s * 1e6);
    let small_steps = 50;
    let small_many_s = timed(spans, "mdsim.run_n_small", sz.reps, || {
        for i in 0..calls {
            small_scratch.clone_from(&small);
            let j = job(small_steps + 1, seed ^ i);
            black_box(engine.run(&mut small_scratch, &j).expect("stable run"));
        }
    }) / calls as f64;
    m.insert("mdsim.step_small_us", (small_many_s - fixed_s) / small_steps as f64 * 1e6);
    let sp_small_s = timed(spans, "mdsim.single_point_small", sz.reps, || {
        for _ in 0..calls {
            black_box(engine.single_point(black_box(&small), 0.5, &[]));
        }
    }) / calls as f64;
    m.insert("mdsim.single_point_small_us", sp_small_s * 1e6);

    m.insert("mdsim.system_bytes", system_bytes(&sys) as f64);
}

/// Heap bytes one replica's `System` holds, computed from its public parts
/// (not measured): what `peak_rss_mib` grows by per solvated replica.
fn system_bytes(sys: &System) -> usize {
    use std::mem::size_of_val;
    let t = &sys.topology;
    size_of_val(&sys.state.positions[..])
        + size_of_val(&sys.state.velocities[..])
        + size_of_val(&t.atoms[..])
        + size_of_val(&t.bonds[..])
        + size_of_val(&t.angles[..])
        + size_of_val(&t.torsions[..])
        + size_of_val(&t.named_dihedrals[..])
        + size_of_val(&t.titratable[..])
        + size_of_val(&t.exclusions[..])
}

fn exchange_probes(spans: &mut Spans, sz: &Sizes, m: &mut Metrics) {
    let grid = WorkloadSpec::find("tsu-mode2")
        .expect("catalogue workload")
        .config(0, Scale::Full)
        .build_grid()
        .expect("valid 12x12x12 grid");
    let sweeps = 20;
    let groups_s = timed(spans, "exchange.grid_groups", sz.reps, || {
        for _ in 0..sweeps {
            for d in 0..grid.n_dims() {
                black_box(grid.groups_for_dimension(black_box(d)));
            }
        }
    }) / (sweeps * grid.n_dims()) as f64;
    m.insert("exchange.grid_groups_us", groups_s * 1e6);
    let n = grid.n_slots();
    let index_s = timed(spans, "exchange.grid_index", sz.reps, || {
        for _ in 0..sweeps {
            for slot in 0..n {
                let coords = grid.coords_of(black_box(slot));
                black_box(grid.slot_of(&coords));
            }
        }
    }) / (sweeps * n) as f64;
    m.insert("exchange.grid_index_ns", index_s * 1e9);
}

fn unit_descriptions(prefix: &str, n: usize) -> Vec<UnitDescription> {
    (0..n)
        .map(|i| {
            UnitDescription::new(format!("{prefix}-r{i:05}-c000"), "noop", 1)
                .with_duration(DurationSpec::modeled(100.0 + (i % 7) as f64, 0.05))
                .with_replica(i)
        })
        .collect()
}

/// Submit every unit, drain every completion; seconds per unit.
fn sim_unit_seconds(
    spans: &mut Spans,
    name: &'static str,
    reps: usize,
    descs: &[UnitDescription],
    make: impl Fn() -> SimExecutor<u64>,
) -> f64 {
    timed(spans, name, reps, || {
        let mut ex = make();
        for (i, d) in descs.iter().enumerate() {
            ex.submit(d.clone(), Box::new(move || Ok(i as u64))).expect("unit fits the pilot");
        }
        let mut done = 0;
        while let Some(unit) = ex.next_completion() {
            black_box(&unit);
            done += 1;
        }
        assert_eq!(done, descs.len());
    }) / descs.len() as f64
}

fn pilot_probes(spans: &mut Spans, checks: &mut Checks, seed: u64, sz: &Sizes, m: &mut Metrics) {
    let wide = unit_descriptions("md", sz.wide_units);
    let cores = wide.len();
    let s =
        sim_unit_seconds(spans, "pilot.sim.unit", sz.reps, &wide, || SimExecutor::new(cores, seed));
    m.insert("pilot.sim.unit_us", s * 1e6);

    // Mode II: four waves of units per core.
    let mode2 = unit_descriptions("md", (sz.wide_units / 4).max(8));
    let mode2_cores = mode2.len() / 4;
    let s = sim_unit_seconds(spans, "pilot.sim.unit_mode2", sz.reps, &mode2, || {
        SimExecutor::new(mode2_cores, seed)
    });
    m.insert("pilot.sim.unit_mode2_us", s * 1e6);

    let fault = FaultModel::new(2000.0).expect("positive MTBF");
    let s = sim_unit_seconds(spans, "pilot.sim.faulty_unit", sz.reps, &wide, || {
        SimExecutor::new(cores, seed).with_faults(fault)
    });
    m.insert("pilot.sim.faulty_unit_us", s * 1e6);

    // Staging: one mdinfo-sized text file per replica, written then read.
    let names: Vec<String> = (0..sz.wide_units).map(|i| format!("replica_{i:05}.mdinfo")).collect();
    let body = "x".repeat(200);
    let s = timed(spans, "pilot.staging.put_get", sz.reps, || {
        let area = StagingArea::new();
        for name in &names {
            area.put_text(name.as_str(), body.as_str());
        }
        for name in &names {
            black_box(area.get_text(name));
        }
    }) / (2 * names.len()) as f64;
    m.insert("pilot.staging.put_get_ns", s * 1e9);

    // Real threads. No workload here uses the local backend; recorded so a
    // later local-backend workload has a baseline.
    let local_units = 200.min(sz.wide_units);
    let workers = crate::sys::nproc();
    let mut all_returned = true;
    let s = timed(spans, "pilot.local.unit", 3, || {
        let mut ex: LocalExecutor<u64> = LocalExecutor::new(workers);
        for i in 0..local_units {
            let d = UnitDescription::new(format!("noop-{i}"), "noop", 1);
            ex.submit(d, Box::new(move || Ok(i as u64))).expect("unit fits the pool");
        }
        let mut sum = 0;
        while let Some(unit) = ex.next_completion() {
            sum += unit.outcome.unwrap_or(u64::MAX);
        }
        all_returned &= sum == (0..local_units as u64).sum::<u64>();
    }) / local_units as f64;
    m.insert("pilot.local.unit_us", s * 1e6);
    checks.check("pilot.local_units_all_returned", || {
        ensure(all_returned, || "a local unit was lost or failed".into())
    });
}

fn hpc_probes(spans: &mut Spans, checks: &mut Checks, seed: u64, sz: &Sizes, m: &mut Metrics) {
    // Hold model: a queue kept at a fixed population; each operation removes
    // the earliest event and schedules a new one a random interval later.
    for (metric, span, population) in [
        ("hpc.event_queue.hold_10k_ns", "hpc.event_queue.hold_10k", sz.queue_small),
        ("hpc.event_queue.hold_100k_ns", "hpc.event_queue.hold_100k", sz.queue_large),
    ] {
        let mut rng = SplitMix(seed);
        let mut q: EventQueue<u32> = EventQueue::with_capacity(population);
        for i in 0..population {
            q.push(SimTime::seconds(rng.next_f64() * 100.0), i as u32);
        }
        let ops = 4 * sz.queue_large;
        let increments: Vec<f64> = (0..ops).map(|_| rng.next_f64() * 100.0).collect();
        let s = timed(spans, span, sz.reps, || {
            for dt in &increments {
                let now = q.peek_time().expect("population is fixed");
                black_box(q.pop_push(now + *dt, 0));
            }
        }) / ops as f64;
        m.insert(metric, s * 1e9);
    }

    let n = sz.queue_large;
    let mut rng = SplitMix(seed ^ 0x51);
    // A quarter of the times are duplicated so FIFO tie-breaking is exercised.
    let times: Vec<f64> =
        (0..n).map(|i| if i % 4 == 3 { 50.0 } else { rng.next_f64() * 100.0 }).collect();
    let mut order_ok = true;
    let s = timed(spans, "hpc.event_queue.push_pop", sz.reps, || {
        let mut q: EventQueue<u32> = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime::seconds(*t), i as u32);
        }
        let mut last = (f64::NEG_INFINITY, 0u32);
        while let Some((t, id)) = q.pop() {
            let key = (t.as_secs(), id);
            // Time-ordered, and push order among equal times.
            order_ok &= key.0 > last.0 || (key.0 == last.0 && key.1 > last.1);
            last = key;
        }
    }) / (2 * n) as f64;
    m.insert("hpc.event_queue.push_pop_ns", s * 1e9);
    checks.check("hpc.event_queue_time_ordered_fifo_ties", || {
        ensure(order_ok, || "pop order broke time order or FIFO ties".into())
    });

    // Mode I: one equal-width wave per cycle, then a barrier.
    let cores = sz.wide_units;
    let cycles = 10;
    let s = timed(spans, "hpc.timeline.schedule", sz.reps, || {
        let mut tl = CoreTimeline::new(cores);
        for _ in 0..cycles {
            for _ in 0..cores {
                black_box(tl.schedule(1, 139.6, SimTime::ZERO));
            }
            tl.barrier(tl.all_idle_at());
        }
    }) / (cycles * cores) as f64;
    m.insert("hpc.timeline.schedule_ns", s * 1e9);

    // Mode II: four tasks per core with uneven durations, so groups split.
    let mode2_cores = (cores / 16).max(2);
    let mut rng = SplitMix(seed ^ 0x7);
    let durations: Vec<f64> = (0..4 * mode2_cores).map(|_| 100.0 + rng.next_f64() * 80.0).collect();
    let s = timed(spans, "hpc.timeline.schedule_mode2", sz.reps, || {
        let mut tl = CoreTimeline::new(mode2_cores);
        for _ in 0..cycles {
            for d in &durations {
                black_box(tl.schedule(1, *d, SimTime::ZERO));
            }
            tl.barrier(tl.all_idle_at());
        }
    }) / (cycles * durations.len()) as f64;
    m.insert("hpc.timeline.schedule_mode2_ns", s * 1e9);

    // Service-scale pool: 64 tenants' pilots leased and released.
    let ids: Vec<String> = (0..64).map(|i| format!("campaign-{i:03}")).collect();
    let rounds = 50;
    let s = timed(spans, "hpc.core_pool.lease", sz.reps, || {
        let mut pool = CorePool::new(64 * 16);
        for _ in 0..rounds {
            for id in &ids {
                pool.try_lease(id, "tenant", 16).expect("pool sized for all leases");
            }
            for id in &ids {
                pool.release(id).expect("lease is live");
            }
        }
    }) / (2 * rounds * ids.len()) as f64;
    m.insert("hpc.core_pool.lease_ns", s * 1e9);
}

/// A synthetic sync-campaign event stream of fixed shape: per cycle one MD
/// phase, a segment per replica, a Metropolis outcome per neighbour pair,
/// and the exchange/data/overhead windows.
fn synthetic_events(cycles: u64, replicas: usize) -> Vec<Event> {
    let mut events = Vec::new();
    for cycle in 0..cycles {
        let t0 = cycle as f64 * 200.0;
        for r in 0..replicas {
            events.push(Event::MdSegment {
                replica: r,
                slot: r,
                cycle,
                dim: 0,
                attempt: 0,
                cores: 1,
                start: t0,
                end: t0 + 139.0 + (r % 13) as f64 * 0.1,
                ok: true,
            });
        }
        events.push(Event::MdPhase { cycle, dim: 0, start: t0, end: t0 + 141.0 });
        events.push(Event::DataStage {
            kind: 'T',
            dim: 0,
            cycle,
            start: t0 + 141.0,
            end: t0 + 143.0,
        });
        for lo in (0..replicas.saturating_sub(1)).step_by(2) {
            events.push(Event::ExchangeOutcome {
                dim: 0,
                cycle,
                slot_lo: lo,
                slot_hi: lo + 1,
                accepted: lo % 3 != 0,
                at: t0 + 150.0,
            });
        }
        events.push(Event::ExchangeWindow {
            kind: 'T',
            dim: 0,
            cycle,
            participants: replicas,
            start: t0 + 143.0,
            end: t0 + 153.0,
        });
        events.push(Event::Overhead {
            scope: OverheadScope::Repex,
            cycle,
            start: t0 + 153.0,
            end: t0 + 154.0,
        });
        events.push(Event::Overhead {
            scope: OverheadScope::Rp,
            cycle,
            start: t0 + 154.0,
            end: t0 + 157.0,
        });
    }
    events
}

fn obs_probes(spans: &mut Spans, checks: &mut Checks, sz: &Sizes, m: &mut Metrics) {
    let ops = sz.obs_ops;
    let segment = |i: usize| Event::MdSegment {
        replica: i,
        slot: i,
        cycle: 0,
        dim: 0,
        attempt: 0,
        cores: 1,
        start: 0.0,
        end: 139.6,
        ok: true,
    };
    let s = timed(spans, "obs.record", sz.reps, || {
        let rec = Recorder::enabled();
        for i in 0..ops {
            rec.record(segment(i));
        }
        black_box(rec.event_count());
    }) / ops as f64;
    m.insert("obs.record_ns", s * 1e9);
    let s = timed(spans, "obs.record_disabled", sz.reps, || {
        let rec = black_box(Recorder::disabled());
        for i in 0..ops {
            rec.record(segment(black_box(i)));
        }
    }) / ops as f64;
    m.insert("obs.record_disabled_ns", s * 1e9);
    let s = timed(spans, "obs.count", sz.reps, || {
        let rec = Recorder::enabled();
        for _ in 0..ops {
            rec.count("pilot.units_submitted", 1);
        }
        black_box(rec.counters());
    }) / ops as f64;
    m.insert("obs.count_ns", s * 1e9);

    let events = synthetic_events(sz.obs_cycles, sz.obs_replicas);
    let kevents = events.len() as f64 / 1000.0;
    let mut exported = String::new();
    let s = timed(spans, "obs.chrome_export", sz.reps, || {
        exported = obs::chrome_trace_json(black_box(&events));
    });
    m.insert("obs.chrome_export_us_per_kevent", s * 1e6 / kevents);
    m.insert("obs.chrome_export_bytes", exported.len() as f64);
    checks.check("obs.chrome_trace_reparses_to_same_event_count", || {
        let doc = json::parse(&exported)?;
        let entries =
            doc.get("traceEvents").and_then(Value::as_array).ok_or("no traceEvents array")?;
        // "M" entries are row metadata; every other entry is one event.
        let n = entries.iter().filter(|e| e.get("ph").and_then(Value::as_str) != Some("M")).count();
        ensure(n == events.len(), || format!("{n} of {} events", events.len()))
    });

    let s = timed(spans, "obs.cycle_breakdowns", sz.reps, || {
        black_box(obs::cycle_breakdowns(black_box(&events)));
    });
    m.insert("obs.cycle_breakdowns_us_per_kevent", s * 1e6 / kevents);
    let s = timed(spans, "obs.critical_path", sz.reps, || {
        black_box(obs::cycle_critical_paths(black_box(&events)));
    });
    m.insert("obs.critical_path_us_per_kevent", s * 1e6 / kevents);

    // Live plane: fold one cycle's events, then close the window.
    let live_cfg = obs::LiveConfig {
        campaign: "bench".into(),
        n_slots: sz.obs_replicas,
        ladder_len: sz.obs_replicas,
        dim_kinds: vec!['T'],
        ..Default::default()
    };
    let per_cycle = events.len() / sz.obs_cycles as usize;
    let mut fold_times = Vec::new();
    let mut emit_times = Vec::new();
    spans.time("obs.live", |spans| {
        let mut live = obs::LiveState::new(live_cfg);
        for (c, window) in events.chunks(per_cycle).enumerate() {
            let ((), fold_s) = spans.time("obs.live_fold", |_| {
                for e in window {
                    live.fold(black_box(e));
                }
            });
            fold_times.push(fold_s / window.len() as f64);
            let stats = obs::EmitStats {
                completed: c as u64 + 1,
                total: sz.obs_cycles,
                time: (c as f64 + 1.0) * 200.0,
                failed_tasks: 0,
                relaunched_tasks: 0,
                done: c as u64 + 1 == sz.obs_cycles,
            };
            let (snapshot, emit_s) = spans.time("obs.live_emit", |_| live.emit(&stats, 0, 0));
            black_box(snapshot);
            emit_times.push(emit_s);
        }
    });
    m.insert("obs.live_fold_ns", median(&fold_times) * 1e9);
    m.insert("obs.live_emit_us", median(&emit_times) * 1e6);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_in_range() {
        let mut a = SplitMix(9);
        let mut b = SplitMix(9);
        for _ in 0..1000 {
            let x = a.next_f64();
            assert_eq!(x, b.next_f64());
            assert!((0.0..1.0).contains(&x));
        }
        assert_ne!(SplitMix(1).next_u64(), SplitMix(2).next_u64());
    }

    #[test]
    fn synthetic_stream_has_the_documented_shape() {
        let events = synthetic_events(3, 10);
        // Per cycle: 10 segments + phase + data + 5 outcomes + window + 2 overheads.
        assert_eq!(events.len(), 3 * (10 + 1 + 1 + 5 + 1 + 2));
        let breakdowns = obs::cycle_breakdowns(&events);
        assert_eq!(breakdowns.len(), 3);
        assert!((breakdowns[0].total() - 157.0).abs() < 1e-9);
    }
}
