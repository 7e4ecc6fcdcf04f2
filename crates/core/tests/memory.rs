//! Campaign state must stay O(replicas): a quadratic structure (the n × n
//! visit matrix `RoundTripTracker` used to carry cost 16 kB per replica at
//! this size, 56 kB at the paper's 7000) shows up here as bytes per replica.
//! Its own test binary, so nothing else allocates while it counts.

use repex::config::SimulationConfig;
use repex::simulation::build_ctx;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Live heap bytes of the process.
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to the system allocator, which
// upholds the `GlobalAlloc` contract; the counter is a statistic on the side.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
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

#[test]
fn a_2000_replica_context_fits_a_per_replica_byte_budget() {
    const N: usize = 2000;
    /// Measured 2026-09-30: 1.8 kB per replica (the reduced dipeptide
    /// `System`, its topology and the replica record).
    const BUDGET_PER_REPLICA: isize = 4_000;
    let mut cfg = SimulationConfig::t_remd(N, 600, 2);
    cfg.surrogate_steps = 10;
    let before = LIVE.load(Ordering::Relaxed);
    let ctx = build_ctx(cfg).unwrap();
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(ctx.n_replicas(), N);
    let per_replica = held / N as isize;
    assert!(
        per_replica < BUDGET_PER_REPLICA,
        "build_ctx holds {held} B for {N} replicas = {per_replica} B each, budget {BUDGET_PER_REPLICA}"
    );
}
