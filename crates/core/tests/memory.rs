//! What a campaign costs per replica, in bytes held (at rest and at a wave's
//! peak) and in allocations made,
//! that what its replicas share is one allocation, and that a pilot slot
//! builds a segment's buffers once and frees them with the pilot. Campaign state must
//! stay O(replicas): a quadratic structure (the n × n visit matrix
//! `RoundTripTracker` used to carry cost 16 kB per replica at this size,
//! 56 kB at the paper's 7000) shows up here as bytes per replica; a private
//! copy of something shared (a topology was 1.2 kB in nine blocks) too.
//! Its own test binary, so nothing else allocates while it counts; the
//! tests take turns for the same reason.

use mdsim::engine::{EngineScratch, MdEngine, MdJob, SanderEngine};
use mdsim::models::{dipeptide_forcefield, solvated_alanine_dipeptide};
use mdsim::neighbor::{neighbor_cache_rebuilds, NeighborCache};
use repex::checkpoint::CampaignCheckpoint;
use repex::config::{SimulationConfig, Workload};
use repex::emm::sync::run_sync;
use repex::emm::DriverCtx;
use repex::replica::lock_system;
use repex::simulation::build_ctx;
use rng::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::Path;
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// The most `LIVE` has been since a test last set it.
static PEAK: AtomicIsize = AtomicIsize::new(0);
/// Allocations the process has made.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Blocks of `LARGE` bytes or more the process has allocated.
static LARGE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
const LARGE: usize = 128 << 10;
/// One counting test at a time: the counters are the process's.
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counters are statistics on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let size = layout.size() as isize;
        PEAK.fetch_max(LIVE.fetch_add(size, Ordering::Relaxed) + size, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        if layout.size() >= LARGE {
            LARGE_BLOCKS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn wide_cfg(n: usize) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(n, 600, 2);
    cfg.surrogate_steps = 10;
    cfg
}

#[test]
fn a_2000_replica_context_fits_a_per_replica_byte_budget() {
    const N: usize = 2000;
    /// Measured 2026-10-02: 682 B per replica — positions and velocities of
    /// the reduced dipeptide, the `Arc<Mutex<System>>` around them, the
    /// replica record and the slot's entry of the parameter table — plus a
    /// quarter. (1 799 B while every replica owned a topology.)
    const BUDGET_PER_REPLICA: isize = 850;
    let _turn = TURN.lock().unwrap();
    let before = LIVE.load(Ordering::Relaxed);
    let ctx = build_ctx(wide_cfg(N)).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(ctx.n_replicas(), N);
    let per_replica = held / N as isize;
    println!("build_ctx: {held} B for {N} replicas = {per_replica} B each");
    assert!(
        per_replica < BUDGET_PER_REPLICA,
        "build_ctx holds {held} B for {N} replicas = {per_replica} B each, budget {BUDGET_PER_REPLICA}"
    );
}

/// Every replica of a campaign runs on the same `Topology` allocation —
/// vacuum or solvated, built fresh or restored from a checkpoint — and on
/// its own state.
#[test]
fn the_replicas_of_a_campaign_share_one_topology() {
    // It counts nothing, but what it allocates would land in another
    // test's counts.
    let _turn = TURN.lock().unwrap();
    let shared = |ctx: &DriverCtx, row: &str| {
        let topology = |r: usize| Arc::clone(&lock_system(&ctx.replicas[r].system).topology);
        let (first, last) = (topology(0), topology(ctx.n_replicas() - 1));
        assert!(Arc::ptr_eq(&first, &last), "{row}");
        // The two handles here, and one per replica.
        assert_eq!(Arc::strong_count(&first), 2 + ctx.n_replicas(), "{row}");
        let positions = |r: usize| lock_system(&ctx.replicas[r].system).state.positions.as_ptr();
        assert_ne!(positions(0), positions(ctx.n_replicas() - 1), "{row}");
    };
    shared(&build_ctx(wide_cfg(16)).unwrap(), "vacuum");

    let mut solvated = wide_cfg(3);
    solvated.workload = Some(Workload::DipeptideSolvated { atoms: 900 });
    let ctx = build_ctx(solvated).unwrap();
    shared(&ctx, "solvated");
    // Same atoms, same box; the lattice jitter is per slot.
    let state = |r: usize| lock_system(&ctx.replicas[r].system).state.positions.clone();
    assert_ne!(state(0), state(2));

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/checkpoint-v1");
    shared(&CampaignCheckpoint::load(&fixture).unwrap().restore().unwrap(), "restored");
}

// Named to sort first: the first test to finish makes libtest's result
// channel allocate a 9.7 kB block on its thread after it released `TURN`,
// and `a_dropped_…`, which would otherwise often start second, counts it.
/// What a wave holds in flight, per replica: the most the heap holds above
/// a 2000-replica context while it runs two cycles. The wave is four
/// windows; at its peak the heap holds every replica's staged files (about
/// 1.3 kB with the map's nodes, by design), the executor's pending
/// completions and the in-flight table (one entry per replica), and one
/// window's payloads, descriptions and results.
#[test]
fn a_2000_replica_campaign_peaks_within_a_per_replica_byte_budget() {
    const N: usize = 2000;
    /// Measured 2026-10-19: 1 768–1 772 B on two slots, 1 757 B on one,
    /// plus a tenth. 1 994 B (1 993 on one slot) while a wave was prepared
    /// and submitted whole, its in-flight table keyed by a copy of each
    /// unit's name and every segment's event kept with no recorder to
    /// receive it.
    const BUDGET_PER_REPLICA: isize = 1950;
    let _turn = TURN.lock().unwrap();
    let mut ctx = build_ctx(wide_cfg(N)).unwrap();
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    run_sync(&mut ctx).unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    let per_replica = peak / N as isize;
    println!("run_sync: peak {peak} B above build_ctx for {N} replicas = {per_replica} B each");
    assert!(
        per_replica < BUDGET_PER_REPLICA,
        "a wave of {N} held {peak} B above build_ctx = {per_replica} B each, budget {BUDGET_PER_REPLICA}"
    );
}

/// Allocations per MD segment, whole process (set-up excluded): the driver
/// thread's names, files and bookkeeping, the payload's parse, engine and
/// renderings, the exchange's inputs.
#[test]
fn a_segment_makes_a_bounded_number_of_allocations() {
    const N: usize = 2000;
    /// Measured 2026-10-02: 45.5, on two worker threads or inline (59.5
    /// before units shared their slot's parameters and stopped carrying an
    /// executable string and two staging lists), plus a tenth. 46.5 since
    /// the pair list is two blocks, its runs reserved once, one per atom;
    /// 45.5 since a context keeps the kernel's block buffers (one block, no
    /// longer cleared on the stack per call) while the all-pairs list
    /// stopped copying reference positions it never reads and the LJ table
    /// stopped hashing its types (one fewer each). 37.5 since a pilot slot
    /// keeps the integrator's force buffer and evaluation context (the LJ
    /// table, the charges, the kernel's block and packed atoms, the list's
    /// runs and partners) from one segment to the next, plus a tenth. 29.5
    /// since the in-flight table is keyed by unit id instead of a copy of
    /// the name, a segment's event is made only for a recorder, the exchange
    /// names a slot's staged file only when it reads it, and a payload names
    /// the files it writes in one allocation each, plus a tenth.
    const BUDGET_PER_SEGMENT: f64 = 32.5;
    let _turn = TURN.lock().unwrap();
    let mut ctx = build_ctx(wide_cfg(N)).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let cycles = run_sync(&mut ctx).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(cycles.len(), 2);
    let segments: u64 = ctx.replicas.iter().map(|r| r.segments_done).sum();
    assert_eq!(segments, 2 * N as u64);
    let per_segment = made as f64 / segments as f64;
    println!("run_sync: {made} allocations for {segments} segments = {per_segment:.2} each");
    assert!(
        per_segment < BUDGET_PER_SEGMENT,
        "{made} allocations for {segments} segments = {per_segment:.1} each, budget {BUDGET_PER_SEGMENT}"
    );
}

/// A pilot slot builds a solvated segment's pair list once: the list (its
/// partners, ≈ 200 kB at 1100 atoms, are a `LARGE` block), the grid and the
/// force buffer stay in the slot's `EngineScratch`, so its second segment
/// allocates no `LARGE` block — though it rebuilds the list, as every
/// segment does, and again mid-run. A segment that made its own buffers
/// malloc'ed a list per segment.
#[test]
fn a_slots_second_solvated_segment_allocates_no_large_block() {
    const ATOMS: usize = 1100;
    let _turn = TURN.lock().unwrap();
    let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
    let mut sys = solvated_alanine_dipeptide(ATOMS, 3);
    sys.assign_maxwell_boltzmann(300.0, &mut Rng::seed(5));
    let job = MdJob { steps: 60, ..Default::default() };
    let mut agent = pilot::Agent::new();
    let mut segment = || {
        let run = |scratch: &mut EngineScratch| engine.run_in(&mut sys, &job, scratch).unwrap();
        agent.run_here(|| pilot::with_scratch(run));
    };
    LARGE_BLOCKS.store(0, Ordering::Relaxed);
    segment();
    assert!(LARGE_BLOCKS.load(Ordering::Relaxed) > 0, "the list of {ATOMS} atoms is a large block");
    let rebuilds = neighbor_cache_rebuilds();
    LARGE_BLOCKS.store(0, Ordering::Relaxed);
    segment();
    let rebuilds = neighbor_cache_rebuilds() - rebuilds;
    assert!(rebuilds >= 2, "{rebuilds} list build(s): the segment is too short to rebuild mid-run");
    assert_eq!(
        LARGE_BLOCKS.load(Ordering::Relaxed),
        0,
        "the second segment allocated a large block"
    );
}

/// The pilot frees its slots' scratch with itself: once a campaign's
/// context is dropped, the topology `Arc` the slots' evaluation contexts
/// were keyed on has one holder left, and the heap is back where it was.
#[test]
fn a_dropped_pilot_holds_no_engine_scratch_or_topology() {
    let _turn = TURN.lock().unwrap();
    let mut cfg = wide_cfg(4);
    cfg.workload = Some(Workload::DipeptideSolvated { atoms: 900 });
    let before = LIVE.load(Ordering::Relaxed);
    let mut ctx = build_ctx(cfg).unwrap();
    run_sync(&mut ctx).unwrap();
    let topology = Arc::clone(&lock_system(&ctx.replicas[0].system).topology);
    let replicas = ctx.n_replicas();
    assert!(Arc::strong_count(&topology) > 1 + replicas, "a slot's context keeps the topology");
    drop(ctx);
    assert_eq!(Arc::strong_count(&topology), 1, "a handle outlived the pilot");
    drop(topology);
    let left = LIVE.load(Ordering::Relaxed) - before;
    println!("after the campaign: {left} B still live");
    assert!(left < 4096, "{left} B outlived the campaign");
}

/// The Verlet list of the benchmark's system costs two bytes per pair — a
/// partner's index within its 65 536-atom page — and twelve per run of a
/// home atom on one page (at most one per atom: 2881 atoms are one page),
/// plus the eighth the partners are reserved over a uniform fluid's count;
/// what else a cache builds is per atom — reference positions (24 B) and the
/// cell grid's order and wrapped coordinates (28 B), with its cell offsets —
/// so a fresh cache's first build holds no more than that. A list of `u32`
/// partners held four bytes per pair and fails here, a flat list of `(u32,
/// u32)` pairs eight.
#[test]
fn a_solvated_pair_list_holds_two_bytes_a_pair() {
    const ATOMS: usize = 2881;
    let _turn = TURN.lock().unwrap();
    let sys = solvated_alanine_dipeptide(ATOMS, 7);
    let mut cache = NeighborCache::default();
    let before = LIVE.load(Ordering::Relaxed);
    cache.ensure(&sys, dipeptide_forcefield().nonbonded.cutoff);
    let held = (LIVE.load(Ordering::Relaxed) - before) as usize;
    let pairs = cache.pairs().len();
    let list = 2 * pairs * 9 / 8 + 12 * ATOMS;
    let per_atom = 64 * ATOMS;
    println!("NeighborCache::ensure: {held} B for {pairs} pairs of {ATOMS} atoms");
    assert!(held <= list + per_atom, "{held} B held for {pairs} pairs, budget {list} + {per_atom}");
}
