//! The four engines are one Langevin loop and one single-point path; an
//! engine is what it adds to them.

use mdsim::engine::{
    EngineError, GmxEngine, MdEngine, MdJob, NamdEngine, PmemdEngine, SanderEngine,
    SinglePointRequest,
};
use mdsim::integrator::LangevinBaoab;
use mdsim::io::mdinfo::MdInfo;
use mdsim::models::{alanine_dipeptide, dipeptide_forcefield, solvated_alanine_dipeptide};
use mdsim::{DihedralRestraint, EnergyBreakdown, ForceField, NonbondedParams, System};
use rng::Rng;

/// NAMD XORs this into the job seed ("NAMD"). Pinned here: changing it
/// changes every NAMD trajectory.
const NAMD_SEED_SALT: u64 = 0x4e41_4d44;

/// A system with thermal velocities: a short NAMD run on the cold model
/// draws them.
fn warm_system() -> System {
    let mut sys = alanine_dipeptide();
    let warm_up = MdJob { steps: 20, seed: 5, ..Default::default() };
    NamdEngine::new(dipeptide_forcefield().nonbonded)
        .run(&mut sys, &warm_up)
        .expect("the warm-up segment runs");
    assert!(sys.kinetic_energy() > 1e-9);
    sys
}

fn job(seed: u64) -> MdJob {
    MdJob {
        steps: 300,
        seed,
        salt_molar: 0.2,
        ph: 6.0,
        restraints: vec![DihedralRestraint::new("phi", 0.02, 60.0)],
        sample_stride: 25,
        sample_warmup: 50,
        ..Default::default()
    }
}

#[test]
fn engines_share_one_trajectory_up_to_their_preludes() {
    let base = dipeptide_forcefield().nonbonded;
    let run = |engine: &dyn MdEngine, mut sys: System, seed: u64| {
        let start = sys.state.step;
        let out = engine.run(&mut sys, &job(seed)).unwrap();
        assert_eq!(out.final_state, sys.state);
        assert_eq!(out.final_state.step, start + 300);
        assert_eq!(out.mdinfo.nstep, start + 300);
        assert_eq!(out.dihedral_trace.len(), 10, "steps 75, 100, .. 300");
        out
    };
    let sander = run(&SanderEngine::new(base), warm_system(), 33);

    // Same system, job and seed: GROMACS adds nothing to the loop.
    assert_eq!(run(&GmxEngine::new(base), warm_system(), 33), sander);

    // NAMD adds a seed salt and a velocity draw for a cold system, and
    // nothing else: under the same seed it is a different trajectory ...
    let namd = NamdEngine::new(base);
    let salted = run(&namd, warm_system(), 33);
    assert_ne!(salted.final_state.positions, sander.final_state.positions);
    // ... which is sander's under the salted seed when the system is warm,
    assert_eq!(salted, run(&SanderEngine::new(base), warm_system(), 33 ^ NAMD_SEED_SALT));
    // and on a cold system the draw comes first (sander leaves it to the
    // thermostat, and so starts from rest).
    let cold = run(&namd, alanine_dipeptide(), 33);
    assert_ne!(cold.final_state.positions, salted.final_state.positions);
    let from_rest = run(&SanderEngine::new(base), alanine_dipeptide(), 33 ^ NAMD_SEED_SALT);
    assert_ne!(cold.final_state.positions, from_rest.final_state.positions);

    // pmemd.MPI is the same loop with the evaluation on four threads: the
    // same trajectory up to summation order (and, on these 21 pairs, one
    // chunk).
    let pmemd = run(&PmemdEngine::new(base, 4), warm_system(), 33);
    for (a, b) in pmemd.final_state.positions.iter().zip(&sander.final_state.positions) {
        assert!((*a - *b).norm() < 1e-6, "{a:?} vs {b:?}");
    }
    assert!((pmemd.mdinfo.eptot - sander.mdinfo.eptot).abs() < 1e-6);
}

/// `mdinfo` is the energy at the final coordinates and costs no evaluation
/// of its own: a segment reports what its last step computed, and only a
/// segment of no steps evaluates its input.
#[test]
fn mdinfo_is_the_last_steps_breakdown_or_the_inputs_energy_when_no_step_ran() {
    let base = dipeptide_forcefield().nonbonded;
    let forcefield = |job: &MdJob| {
        let mut ff =
            ForceField::new(NonbondedParams { salt_molar: job.salt_molar, ph: job.ph, ..base });
        ff.set_restraints(job.restraints.clone());
        ff
    };
    let mdinfo = |sys: &System, e: &EnergyBreakdown| {
        let (t, ke) = (sys.instantaneous_temperature(), sys.kinetic_energy());
        MdInfo::from_breakdown(sys.state.step, sys.state.time_ps, t, ke, e)
    };
    let still = MdJob { steps: 0, ..job(7) };
    let ff = forcefield(&still);

    // sander: nothing moves, and the record is the input's energy.
    let mut sys = warm_system();
    let before = sys.clone();
    let out = SanderEngine::new(base).run(&mut sys, &still).unwrap();
    assert_eq!(sys.state, before.state);
    assert_eq!(out.final_state, before.state);
    assert_eq!(out.mdinfo, mdinfo(&before, &ff.energy(&before)));
    assert!(out.mdinfo.restraint > 0.0 && out.dihedral_trace.is_empty());

    // NAMD draws a cold system's velocities first; the coordinates, and so
    // the potential terms, are still the input's.
    let mut cold = alanine_dipeptide();
    let out = NamdEngine::new(base).run(&mut cold, &still).unwrap();
    assert!(cold.kinetic_energy() > 1e-9);
    assert_eq!(cold.state.positions, alanine_dipeptide().state.positions);
    assert_eq!(out.mdinfo, mdinfo(&cold, &ff.energy(&alanine_dipeptide())));

    // Steps, on a system whose pair list is cached across them: the loop an
    // engine runs, by hand.
    let moving = MdJob { steps: 12, ..job(7) };
    let ff = forcefield(&moving);
    let mut sys = solvated_alanine_dipeptide(600, 2);
    let mut by_hand = sys.clone();
    let out = SanderEngine::new(base).run(&mut sys, &moving).unwrap();
    let mut integ = LangevinBaoab::new(moving.dt_ps, moving.temperature, moving.gamma_ps);
    let mut rng = Rng::seed(moving.seed);
    let mut last = EnergyBreakdown::default();
    for _ in 0..moving.steps {
        last = integ.step(&mut by_hand, &ff, 1, &mut rng);
    }
    assert_eq!(out.final_state, by_hand.state);
    assert_eq!(out.mdinfo, mdinfo(&by_hand, &last));
}

#[test]
fn four_cores_are_four_cores_whatever_the_host_is_doing() {
    // 2881 atoms: the pair list really splits in four. The partition reads
    // the pair count and the core count, never the host, so the run alone
    // and four runs at once (an MD wave: sixteen threads on however many
    // CPUs there are — one under the suite's `taskset -c 0` pass) are the
    // same bits.
    let base = dipeptide_forcefield().nonbonded;
    let job = MdJob { steps: 5, seed: 3, ..Default::default() };
    let run = |engine: &dyn MdEngine| {
        let mut sys = solvated_alanine_dipeptide(2881, 9);
        engine.run(&mut sys, &job).unwrap()
    };
    let pmemd = PmemdEngine::new(base, 4);
    let alone = run(&pmemd);
    let wave: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..4).map(|_| s.spawn(|| run(&pmemd))).collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    for out in &wave {
        assert_eq!(out, &alone);
    }
    // And sander's trajectory up to summation order.
    let sander = run(&SanderEngine::new(base));
    assert_ne!(alone.mdinfo.eptot, sander.mdinfo.eptot, "four chunks, not one");
    for (a, b) in alone.final_state.positions.iter().zip(&sander.final_state.positions) {
        assert!((*a - *b).norm() < 1e-6, "{a:?} vs {b:?}");
    }
    assert!((alone.mdinfo.eptot - sander.mdinfo.eptot).abs() < 1e-6 * sander.mdinfo.eptot.abs());
}

#[test]
fn pmemd_refuses_one_core_and_rejected_jobs_leave_the_system_alone() {
    let base = dipeptide_forcefield().nonbonded;
    let mut sys = warm_system();
    let before = sys.state.clone();
    let err = PmemdEngine::new(base, 1).run(&mut sys, &job(1)).unwrap_err();
    assert_eq!(err, EngineError::BadCoreCount { engine: "pmemd.MPI", requested: 1, minimum: 2 });
    assert_eq!(sys.state, before);

    // An unknown restraint is rejected before NAMD's cold-start draw.
    let mut cold = alanine_dipeptide();
    let bad = MdJob { restraints: vec![DihedralRestraint::new("omega", 0.02, 0.0)], ..job(1) };
    let engines: [&dyn MdEngine; 4] = [
        &SanderEngine::new(base),
        &PmemdEngine::new(base, 2),
        &NamdEngine::new(base),
        &GmxEngine::new(base),
    ];
    for engine in engines {
        assert!(matches!(engine.run(&mut cold, &bad), Err(EngineError::BadInput(_))));
        assert_eq!(cold.kinetic_energy(), 0.0);
    }
}

#[test]
fn batched_single_points_equal_individual_ones_for_every_engine() {
    let base = dipeptide_forcefield().nonbonded;
    let sys = warm_system();
    let rs = vec![DihedralRestraint::new("phi", 0.02, 45.0)];
    let requests = [
        SinglePointRequest::new(0.0, 7.0, &[]),
        SinglePointRequest::new(0.5, 7.0, &[]),
        SinglePointRequest::new(0.5, 5.0, &rs),
        SinglePointRequest::new(2.0, 7.0, &rs),
    ];
    let engines: [&dyn MdEngine; 4] = [
        &SanderEngine::new(base),
        &PmemdEngine::new(base, 4),
        &NamdEngine::new(base),
        &GmxEngine::new(base),
    ];
    let reference = engines[0].single_points_with(&sys, &requests);
    for engine in engines {
        let batched = engine.single_points_with(&sys, &requests);
        assert_eq!(batched.len(), requests.len());
        for ((b, r), reference) in batched.iter().zip(&requests).zip(&reference) {
            let single = engine.single_point_with(&sys, r.salt_molar, r.ph, r.restraints);
            assert_eq!(b.total(), single.total(), "batched vs individual");
            // The physics is shared: every engine reports the same energy.
            assert!((b.total() - reference.total()).abs() < 1e-9);
        }
        let neutral = engine.single_point(&sys, 0.5, &rs);
        assert_eq!(neutral.total(), engine.single_point_with(&sys, 0.5, 7.0, &rs).total());
    }
}
