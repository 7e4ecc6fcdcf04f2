//! Cross-crate end-to-end tests: a full REMD simulation through config →
//! pilot → EMM/AMM/RAM → report, with invariants checked on the result.

use integration::quick_tremd;
use repex::simulation::RemdSimulation;

#[test]
fn sync_tremd_full_pipeline_invariants() {
    let report = RemdSimulation::new(quick_tremd(16, 4)).unwrap().run().unwrap();

    // Structure.
    assert_eq!(report.n_replicas, 16);
    assert_eq!(report.pilot_cores, 16);
    assert_eq!(report.execution_mode, 1);
    assert_eq!(report.cycles.len(), 4);

    // Eq. 1 consistency: every cycle's total equals the component sum.
    for c in &report.cycles {
        let t = &c.timing;
        let sum = t.t_md + t.t_ex_total() + t.t_data + t.t_repex_over + t.t_rp_over;
        assert!((t.total() - sum).abs() < 1e-9);
        assert!(t.t_md > 0.0);
    }

    // The virtual makespan must be at least the sum of per-cycle totals
    // (cycles are serialized by the barrier).
    let tc_sum: f64 = report.cycles.iter().map(|c| c.timing.total()).sum();
    assert!(report.makespan >= 0.95 * tc_sum, "{} vs {}", report.makespan, tc_sum);

    // Utilization is a sane percentage and reflects overheads.
    assert!(report.utilization_percent > 20.0 && report.utilization_percent < 100.0);

    // Exchange statistics exist and are consistent.
    let (letter, acc) = &report.acceptance[0];
    assert_eq!(*letter, 'T');
    assert!(acc.attempts > 0);
    assert!(acc.accepted <= acc.attempts);

    // Samples recorded under every window.
    assert_eq!(report.window_samples.len(), 16);
    assert!(report.window_samples.iter().all(|w| !w.samples.is_empty()));

    // No faults were injected.
    assert_eq!(report.failed_tasks, 0);
    assert_eq!(report.relaunched_tasks, 0);
}

#[test]
fn replica_microstates_evolve_and_stay_finite() {
    use repex::simulation::build_ctx;

    let mut ctx = build_ctx(quick_tremd(6, 3)).unwrap();
    let initial: Vec<_> =
        ctx.replicas.iter().map(|r| r.system.lock().unwrap().state.positions.clone()).collect();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    for (r, init) in ctx.replicas.iter().zip(&initial) {
        let sys = r.system.lock().unwrap();
        assert!(sys.state.is_finite());
        assert_ne!(&sys.state.positions, init, "replica {} never moved", r.id);
        assert_eq!(sys.state.step, 3 * 10, "3 cycles x 10 surrogate steps");
    }
}

#[test]
fn staging_area_holds_engine_files_after_run() {
    use repex::simulation::build_ctx;

    let mut ctx = build_ctx(quick_tremd(4, 2)).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    let staging = &ctx.pilot.staging;
    // Each replica's last segment stays staged — mdin + restart + mdinfo —
    // and nothing older: a segment's files are retired once the replica's
    // next segment is submitted.
    for r in 0..4 {
        let base = format!("r{r:05}_c0001");
        assert!(staging.contains(&format!("{base}.mdin")), "{base}.mdin");
        assert!(staging.contains(&format!("{base}.rst7")), "{base}.rst7");
        assert!(staging.contains(&format!("{base}.mdinfo")), "{base}.mdinfo");
    }
    assert_eq!(staging.len(), 3 * 4, "files per segment x replicas");
    // And the staged files parse with the real format parsers.
    let mdin = staging.get_text("r00000_c0001.mdin").unwrap();
    let ctl = mdsim::io::mdin::MdinControl::parse(&mdin).unwrap();
    assert_eq!(ctl.nstlim, 600);
    let info = staging.get_text("r00000_c0001.mdinfo").unwrap();
    assert!(mdsim::io::mdinfo::MdInfo::parse(&info).is_ok());
    let rst = staging.get_text("r00003_c0001.rst7").unwrap();
    let state = mdsim::io::restart::read_restart(&rst).unwrap();
    assert_eq!(state.n_atoms(), mdsim::models::BACKBONE_ATOMS);
}

#[test]
fn slot_assignment_stays_a_permutation_under_many_exchanges() {
    use repex::simulation::build_ctx;

    let mut cfg = quick_tremd(12, 12);
    cfg.steps_per_cycle = 400;
    let mut ctx = build_ctx(cfg).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    let owner = ctx.ledger.owner();
    let mut owners = owner.to_vec();
    owners.sort_unstable();
    assert_eq!(owners, (0..12).collect::<Vec<_>>());
    // The walk and its inverse agree.
    for (slot, &replica) in owner.iter().enumerate() {
        assert_eq!(ctx.ledger.slot_of()[replica], slot);
    }
    // With 12 cycles on a 12-rung ladder and the reduced model's high
    // acceptance, the assignment must have changed from the identity.
    assert_ne!(owner, (0..12).collect::<Vec<_>>(), "no exchange ever moved a replica");
}

#[test]
fn rung_history_is_recorded_and_analyzable() {
    let mut cfg = quick_tremd(6, 8);
    cfg.steps_per_cycle = 400;
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.rung_history.len(), 6);
    for walk in &report.rung_history {
        assert_eq!(walk.len(), 8, "one rung per cycle");
        assert!(walk.iter().all(|&r| r < 6));
    }
    // Each cycle's rung assignment is a permutation of 0..6.
    for cycle in 0..8 {
        let mut rungs: Vec<usize> = report.rung_history.iter().map(|w| w[cycle]).collect();
        rungs.sort_unstable();
        assert_eq!(rungs, (0..6).collect::<Vec<_>>());
    }
    // The analysis toolkit consumes the history directly.
    for walk in &report.rung_history {
        let _ = analysis::timeseries::round_trip_times(walk, 6);
    }
}

#[test]
fn minimize_first_lowers_starting_energy() {
    use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
    use repex::simulation::build_ctx;

    let mut cfg = quick_tremd(4, 1);
    cfg.minimize_first = true;
    let ctx = build_ctx(cfg).unwrap();
    let ff = dipeptide_forcefield();
    let raw = ff.energy(&alanine_dipeptide()).total();
    for r in &ctx.replicas {
        let sys = r.system.lock().unwrap();
        // Compare potential with velocities ignored: the minimized start
        // must be strictly below the raw builder geometry.
        let e = ff.energy(&sys).total();
        assert!(e < raw, "replica {} not minimized: {e} vs {raw}", r.id);
    }
}
