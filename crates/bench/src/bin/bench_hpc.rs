//! Discrete-event engine throughput: seed scheduler vs indexed event queue.
//!
//! Replays a synchronous replica-exchange workload — waves of 16-core MD
//! tasks followed by an exchange barrier at `all_idle_at() + overhead` — on
//! two scheduler implementations:
//!
//! - **seed**: the pre-rewrite `CoreTimeline` (one `BinaryHeap` entry per
//!   core, O(k log n) dispatch, drain-and-rebuild barrier, O(n)
//!   `all_idle_at`), inlined below verbatim as the measured "before";
//! - **indexed**: the current `hpc::timeline::CoreTimeline` backed by the
//!   pooled [`hpc::EventQueue`] of `(free_at, count)` core groups (O(g log g)
//!   dispatch in in-flight tasks, O(1) barrier and `all_idle_at`).
//!
//! Both engines must agree on the final makespan at every size — the bench
//! doubles as an equivalence check. Events/sec counts scheduler events
//! processed (task dispatches + barriers); each engine's wall time is the
//! best of three trials to damp shared-runner noise. Writes `BENCH_hpc.json` at the
//! repo root and `results/bench_hpc.txt`. Pass `--quick` for the reduced CI
//! sizes (10^3 and 10^4 cores).

use bench::output::{bench_meta, check, emit, write_bench_json};
use hpc::timeline::CoreTimeline;
use hpc::SimTime;
use obs::obj;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Write as _;
use std::time::Instant;

/// The seed's per-core-heap timeline, kept here as the measured baseline.
struct SeedTimeline {
    free_at: BinaryHeap<Reverse<SimTime>>,
    n_cores: usize,
}

impl SeedTimeline {
    fn new(n_cores: usize) -> Self {
        let mut free_at = BinaryHeap::with_capacity(n_cores);
        for _ in 0..n_cores {
            free_at.push(Reverse(SimTime::ZERO));
        }
        SeedTimeline { free_at, n_cores }
    }
}

/// The scheduler surface the workload exercises.
trait Engine {
    fn schedule(&mut self, cores: usize, duration: f64, earliest: SimTime) -> SimTime;
    fn all_idle_at(&self) -> SimTime;
    fn barrier(&mut self, t: SimTime);
}

impl Engine for SeedTimeline {
    fn schedule(&mut self, cores: usize, duration: f64, earliest: SimTime) -> SimTime {
        let mut grabbed = Vec::with_capacity(cores);
        for _ in 0..cores {
            grabbed.push(self.free_at.pop().expect("heap has n_cores entries").0);
        }
        let start = grabbed.iter().fold(earliest, |acc, t| acc.max(*t));
        let end = start + duration;
        for _ in 0..cores {
            self.free_at.push(Reverse(end));
        }
        end
    }

    fn all_idle_at(&self) -> SimTime {
        self.free_at.iter().map(|Reverse(t)| *t).fold(SimTime::ZERO, SimTime::max)
    }

    fn barrier(&mut self, t: SimTime) {
        let mut new_heap = BinaryHeap::with_capacity(self.n_cores);
        for Reverse(free) in self.free_at.drain() {
            new_heap.push(Reverse(free.max(t)));
        }
        self.free_at = new_heap;
    }
}

impl Engine for CoreTimeline {
    fn schedule(&mut self, cores: usize, duration: f64, earliest: SimTime) -> SimTime {
        CoreTimeline::schedule(self, cores, duration, earliest).end
    }

    fn all_idle_at(&self) -> SimTime {
        CoreTimeline::all_idle_at(self)
    }

    fn barrier(&mut self, t: SimTime) {
        CoreTimeline::barrier(self, t);
    }
}

const CORES_PER_TASK: usize = 16;

/// Synchronous RE pattern: each cycle dispatches one 16-core task per
/// replica, waits for the wave, charges a 1 s exchange barrier. Durations
/// are deterministic and slightly heterogeneous so waves stay ragged.
/// Returns (makespan, events processed, elapsed seconds).
fn run_workload<E: Engine>(engine: &mut E, cores: usize, cycles: usize) -> (f64, u64, f64) {
    let replicas = cores / CORES_PER_TASK;
    let mut events = 0u64;
    let mut now = SimTime::ZERO;
    let t0 = Instant::now();
    for cycle in 0..cycles {
        for replica in 0..replicas {
            let duration = 100.0 + ((replica * 37 + cycle * 11) % 17) as f64;
            engine.schedule(CORES_PER_TASK, duration, now);
            events += 1;
        }
        now = engine.all_idle_at() + 1.0;
        engine.barrier(now);
        events += 1;
    }
    (engine.all_idle_at().as_secs(), events, t0.elapsed().as_secs_f64())
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let sizes: &[(usize, usize)] = if quick {
        &[(1_000, 50), (10_000, 12)]
    } else {
        &[(1_000, 200), (10_000, 50), (100_000, 10)]
    };

    let mut out = String::new();
    let _ =
        writeln!(out, "DES engine — scheduler events/sec, seed per-core heap vs indexed groups\n");

    let mut rows = Vec::new();
    let mut speedup_ok = true;
    let mut makespans_ok = true;
    // Best-of-N wall time per engine: throughput benches on shared runners
    // see multi-x run-to-run noise, and the fastest trial is the least
    // contended one. Makespans and event counts are deterministic.
    const TRIALS: usize = 3;
    for &(cores, cycles) in sizes {
        let (mut mk_seed, mut ev, mut secs_seed) = (0.0, 0, f64::INFINITY);
        for _ in 0..TRIALS {
            let mut seed = SeedTimeline::new(cores);
            let (mk, e, secs) = run_workload(&mut seed, cores, cycles);
            (mk_seed, ev) = (mk, e);
            secs_seed = secs_seed.min(secs);
        }
        let (mut mk_idx, mut secs_idx) = (0.0, f64::INFINITY);
        for _ in 0..TRIALS {
            let mut indexed = CoreTimeline::new(cores);
            let (mk, ev2, secs) = run_workload(&mut indexed, cores, cycles);
            assert_eq!(ev, ev2);
            mk_idx = mk;
            secs_idx = secs_idx.min(secs);
        }
        let eps_seed = ev as f64 / secs_seed;
        let eps_idx = ev as f64 / secs_idx;
        let speedup = eps_idx / eps_seed;
        makespans_ok &= (mk_seed - mk_idx).abs() < 1e-6;
        if cores >= 10_000 {
            speedup_ok &= speedup >= 5.0;
        }
        let _ = writeln!(
            out,
            "cores={cores:6}  seed {eps_seed:10.0} ev/s  indexed {eps_idx:10.0} ev/s  (x{speedup:.1})  \
             makespan {mk_idx:.1}s"
        );
        rows.push(obj! {
            "cores" => cores,
            "cycles" => cycles,
            "events" => ev,
            "events_per_sec_seed" => eps_seed,
            "events_per_sec_indexed" => eps_idx,
            "speedup" => speedup,
            "makespan_secs" => mk_idx,
        });
    }

    let _ = writeln!(out);
    let _ = writeln!(out, "{}", check("indexed engine >= 5x events/sec at 10^4 cores", speedup_ok));
    let _ = writeln!(out, "{}", check("seed and indexed engines agree on makespan", makespans_ok));

    let payload = obj! {
        "bench" => "hpc_event_engine",
        "unit" => "events_per_sec",
        "status" => "measured",
        "quick" => quick,
        "meta" => bench_meta(),
        "sizes" => rows,
        "checks" => obj! {
            "indexed_speedup_ge_5_at_10k_cores" => speedup_ok,
            "makespans_agree" => makespans_ok,
        },
    };
    write_bench_json("BENCH_hpc.json", &payload);

    emit("bench_hpc", &out);
}
