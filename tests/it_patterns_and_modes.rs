//! RE patterns × Execution Modes: the four combinations the paper's design
//! space spans, checked for consistent physics and the expected timing
//! relationships.

use integration::quick_tremd;
use repex::config::Pattern;
use repex::simulation::RemdSimulation;

#[test]
fn mode_ii_slows_cycles_but_preserves_physics() {
    let n = 32;
    let run = |cores: Option<usize>| {
        let mut cfg = quick_tremd(n, 2);
        cfg.resource.cores = cores;
        RemdSimulation::new(cfg).unwrap().run().unwrap()
    };
    let mode1 = run(None);
    let mode2 = run(Some(8));
    assert_eq!(mode1.execution_mode, 1);
    assert_eq!(mode2.execution_mode, 2);
    // 4x fewer cores -> ~4x longer MD phase.
    let md1 = mode1.average_timing().t_md;
    let md2 = mode2.average_timing().t_md;
    assert!(md2 > 3.2 * md1 && md2 < 5.0 * md1, "md1={md1} md2={md2}");
    // Physics unchanged: exchanges still happen in both.
    assert!(mode1.acceptance[0].1.attempts > 0);
    assert!(mode2.acceptance[0].1.attempts > 0);
    // Mode II at scale: 512 replicas on 64 cores, by the core count alone.
    let mut cfg = quick_tremd(512, 1);
    cfg.resource.cores = Some(64);
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.execution_mode, 2, "512 replicas on 64 cores");
}

#[test]
fn async_pattern_avoids_the_global_barrier() {
    let n = 16;
    let run = |pattern| {
        let mut cfg = quick_tremd(n, 3);
        cfg.pattern = pattern;
        RemdSimulation::new(cfg).unwrap().run().unwrap()
    };
    let sync = run(Pattern::Synchronous);
    let asynch = run(Pattern::Asynchronous { tick_fraction: 0.25 });
    // Both complete the same number of MD segments per replica; async's
    // makespan cannot be wildly longer than sync's.
    assert!(asynch.makespan < 1.5 * sync.makespan, "{} vs {}", asynch.makespan, sync.makespan);
    assert!(asynch.acceptance[0].1.attempts > 0, "async exchanges happened");
}

#[test]
fn async_mode_ii_combination_works() {
    // The paper: "for large replica counts in Execution Mode II, the
    // asynchronous RE pattern will out-perform synchronous" — we at least
    // verify the combination runs and produces exchanges.
    let mut cfg = quick_tremd(24, 2);
    cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    cfg.resource.cores = Some(8);
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.execution_mode, 2);
    assert!(report.makespan > 0.0);
    assert!(report.acceptance[0].1.attempts > 0);
}

#[test]
fn async_outperforms_sync_under_heavy_stragglers_in_mode_ii() {
    // The quantitative version of the paper's conjecture, using the
    // straggler knob directly.
    use repex::simulation::build_ctx;
    let utilization = |pattern| {
        let mut cfg = quick_tremd(32, 3);
        cfg.pattern = pattern;
        cfg.resource.cores = Some(16);
        let mut ctx = build_ctx(cfg).unwrap();
        ctx.perf.noise.md_sigma = 0.35; // heavy performance mismatch
        match pattern {
            Pattern::Synchronous => repex::emm::sync::run_sync(&mut ctx).map(|_| ()),
            Pattern::Asynchronous { .. } => {
                repex::emm::asynchronous::run_async(&mut ctx).map(|_| ())
            }
        }
        .unwrap();
        let makespan = ctx.pilot.executor.now().as_secs();
        ctx.md_core_seconds / (ctx.pilot.cores() as f64 * makespan)
    };
    let sync_u = utilization(Pattern::Synchronous);
    let async_u = utilization(Pattern::Asynchronous { tick_fraction: 0.25 });
    assert!(
        async_u > sync_u,
        "async should win under heavy noise in Mode II: async {async_u:.3} vs sync {sync_u:.3}"
    );
}

#[test]
fn multicore_replicas_shorten_md_time() {
    let run = |cores_per_replica: usize| {
        let mut cfg = quick_tremd(8, 1);
        cfg.cost_atoms = Some(64_366);
        cfg.steps_per_cycle = 2000;
        cfg.resource.cores_per_replica = cores_per_replica;
        RemdSimulation::new(cfg).unwrap().run().unwrap().average_timing().t_md
    };
    let serial = run(1);
    let wide = run(16);
    assert!(wide < serial / 6.0, "16-core replicas must be much faster: {serial} vs {wide}");
}
