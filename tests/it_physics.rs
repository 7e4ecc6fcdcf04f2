//! Physics-level integration tests: the exchange machinery must preserve
//! and enhance the underlying statistical mechanics.

use integration::quick_tremd;
use repex::config::DimensionConfig;
use repex::simulation::RemdSimulation;

#[test]
fn temperature_ladder_produces_temperature_ordered_energies() {
    // After several cycles, time-averaged potential energy should increase
    // with the window temperature (equipartition across the ladder).
    let mut cfg = quick_tremd(6, 6);
    cfg.steps_per_cycle = 600;
    cfg.surrogate_steps = 150;
    cfg.dimensions = vec![DimensionConfig::Temperature { min_k: 250.0, max_k: 700.0, count: 6 }];
    cfg.no_exchange = true; // isolate per-window thermodynamics
    use repex::simulation::build_ctx;
    let mut ctx = build_ctx(cfg).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    // Measure final kinetic temperatures per slot.
    let mut temps = Vec::new();
    for slot in 0..6 {
        let replica = ctx.ledger.owner()[slot];
        let sys = ctx.replicas[replica].system.lock().unwrap();
        temps.push(sys.instantaneous_temperature());
    }
    // The hottest window should be measurably hotter than the coldest.
    assert!(temps[5] > temps[0] * 1.5, "ladder thermostats should separate: {temps:?}");
}

#[test]
fn exchange_detailed_balance_is_not_violated_grossly() {
    // Acceptance of forward and reverse swaps over many cycles should be
    // statistically symmetric: run long and check the acceptance ratio is
    // neither 0 nor 1 for a moderately spaced ladder.
    let mut cfg = quick_tremd(8, 25);
    cfg.steps_per_cycle = 600;
    cfg.surrogate_steps = 40;
    cfg.dimensions = vec![DimensionConfig::Temperature { min_k: 250.0, max_k: 900.0, count: 8 }];
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    let acc = report.acceptance[0].1;
    assert!(acc.attempts >= 75);
    let r = acc.ratio();
    assert!(r > 0.05 && r < 0.999, "acceptance {r} suspicious for a wide ladder");
}

#[test]
fn umbrella_windows_keep_their_dihedrals_near_centers() {
    // U-REMD: after a few cycles each window's samples should concentrate
    // near its own center (stiff restraints).
    let mut cfg = quick_tremd(8, 4);
    cfg.steps_per_cycle = 600;
    cfg.surrogate_steps = 120;
    cfg.sample_stride = 20;
    cfg.sample_warmup = 60;
    cfg.dimensions =
        vec![DimensionConfig::Umbrella { dihedral: "phi".into(), count: 8, k_deg: 0.02 }];
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    let mut checked = 0;
    for w in &report.window_samples {
        let center = w.restraints[0].1;
        if w.samples.len() < 10 {
            continue;
        }
        // Circular mean of phi.
        let (s, c) =
            w.samples.iter().fold((0.0, 0.0), |(s, c), (phi, _)| (s + phi.sin(), c + phi.cos()));
        let mean = s.atan2(c).to_degrees();
        let dev = mdsim::units::angle_diff_deg(mean, center).abs();
        assert!(dev < 25.0, "window at {center}°: mean phi {mean}° ({dev}° off)");
        checked += 1;
    }
    assert!(checked >= 6, "most windows should have samples, checked {checked}");
}

#[test]
fn salt_dimension_changes_replica_energies() {
    // S-REMD: the same coordinates under different salt concentrations must
    // produce different single-point energies (otherwise S-exchange would
    // be vacuous).
    use mdsim::engine::{MdEngine, SanderEngine};
    use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
    let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
    let sys = alanine_dipeptide();
    let e0 = engine.single_point(&sys, 0.0, &[]).total();
    let e1 = engine.single_point(&sys, 1.0, &[]).total();
    assert!((e0 - e1).abs() > 1e-9);

    // And a full S-REMD run exchanges successfully.
    let mut cfg = quick_tremd(6, 3);
    cfg.dimensions = vec![DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 6 }];
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert!(report.acceptance[0].1.attempts > 0);
}

#[test]
fn velocity_rescaling_on_t_swap_keeps_kinetic_energy_sane() {
    // After many T-exchanges, instantaneous temperatures must remain within
    // a physical band (no energy pump from repeated rescaling).
    use repex::simulation::build_ctx;
    let mut cfg = quick_tremd(8, 15);
    cfg.steps_per_cycle = 500;
    cfg.surrogate_steps = 30;
    let mut ctx = build_ctx(cfg).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    for r in &ctx.replicas {
        let sys = r.system.lock().unwrap();
        let t = sys.instantaneous_temperature();
        assert!(t > 30.0 && t < 2000.0, "replica {} at unphysical T {t}", r.id);
        assert!(sys.state.is_finite());
    }
}
