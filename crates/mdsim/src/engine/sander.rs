//! `sander`-analogue: the serial reference engine.

use super::MdEngine;
use crate::forcefield::NonbondedParams;

/// Serial MD engine (one core per replica), Amber `sander` analogue.
#[derive(Debug, Clone, Default)]
pub struct SanderEngine {
    /// Base nonbonded parameters (job parameters override salt).
    pub base: NonbondedParams,
}

impl SanderEngine {
    pub fn new(base: NonbondedParams) -> Self {
        SanderEngine { base }
    }
}

impl MdEngine for SanderEngine {
    fn base(&self) -> &NonbondedParams {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineError, MdJob};
    use crate::forcefield::DihedralRestraint;
    use crate::models::{alanine_dipeptide, dipeptide_forcefield};
    use crate::system::System;
    use rng::Rng;

    fn prepared_system(seed: u64, t: f64) -> System {
        let mut sys = alanine_dipeptide();
        let mut rng = Rng::seed(seed);
        sys.assign_maxwell_boltzmann(t, &mut rng);
        sys
    }

    #[test]
    fn run_produces_consistent_output() {
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        let mut sys = prepared_system(1, 300.0);
        let job = MdJob { steps: 500, sample_stride: 50, ..Default::default() };
        let out = engine.run(&mut sys, &job).unwrap();
        assert_eq!(out.final_state.step, 500);
        assert_eq!(out.dihedral_trace.len(), 10);
        assert_eq!(out.mdinfo.nstep, 500);
        assert!(out.final_state.is_finite());
        // mdinfo matches a fresh single-point at the final state.
        let sp = engine.single_point(&sys, job.salt_molar, &job.restraints);
        assert!((sp.total() - out.mdinfo.eptot).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        let job = MdJob { steps: 200, seed: 33, ..Default::default() };
        let mut a = prepared_system(5, 300.0);
        let mut b = prepared_system(5, 300.0);
        let oa = engine.run(&mut a, &job).unwrap();
        let ob = engine.run(&mut b, &job).unwrap();
        assert_eq!(oa.final_state.positions, ob.final_state.positions);
    }

    #[test]
    fn different_seed_different_trajectory() {
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        let mut a = prepared_system(5, 300.0);
        let mut b = prepared_system(5, 300.0);
        let oa = engine.run(&mut a, &MdJob { steps: 200, seed: 1, ..Default::default() }).unwrap();
        let ob = engine.run(&mut b, &MdJob { steps: 200, seed: 2, ..Default::default() }).unwrap();
        assert_ne!(oa.final_state.positions, ob.final_state.positions);
    }

    #[test]
    fn restraint_biases_sampling() {
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        let mut sys = prepared_system(9, 300.0);
        let target = 90.0;
        let job = MdJob {
            steps: 6000,
            dt_ps: 0.001,
            sample_stride: 20,
            restraints: vec![DihedralRestraint::new("phi", 0.02, target)],
            ..Default::default()
        };
        let out = engine.run(&mut sys, &job).unwrap();
        // Circular mean of phi over the second half of the trace should sit
        // near the restraint center (plain averaging is wrong across the
        // ±180° wrap).
        let half = out.dihedral_trace.len() / 2;
        let (mut s, mut c) = (0.0, 0.0);
        for (phi, _) in &out.dihedral_trace[half..] {
            s += phi.sin();
            c += phi.cos();
        }
        let mean_phi = s.atan2(c).to_degrees();
        assert!(
            (mean_phi - target).abs() < 30.0,
            "restrained mean phi {mean_phi}° far from {target}°"
        );
    }

    #[test]
    fn unknown_restraint_is_rejected() {
        let engine = SanderEngine::default();
        let mut sys = prepared_system(1, 300.0);
        let job = MdJob {
            restraints: vec![DihedralRestraint::new("nonexistent", 0.1, 0.0)],
            ..Default::default()
        };
        assert!(matches!(engine.run(&mut sys, &job), Err(EngineError::BadInput(_))));
    }

    #[test]
    fn huge_timestep_blows_up_and_is_detected() {
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        let mut sys = prepared_system(2, 300.0);
        let job = MdJob { steps: 5000, dt_ps: 0.5, ..Default::default() };
        match engine.run(&mut sys, &job) {
            Err(EngineError::NumericalBlowup { .. }) => {}
            other => panic!("expected blow-up, got {other:?}"),
        }
    }

    /// Whatever the force kernel makes of a non-finite coordinate (it screens
    /// the atom's pairs out), the segment fails on the coordinate itself —
    /// through the all-pairs list and through the cell search.
    #[test]
    fn a_nan_coordinate_fails_the_segment() {
        use crate::models::solvated_alanine_dipeptide;
        let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
        for mut sys in [prepared_system(4, 300.0), solvated_alanine_dipeptide(900, 3)] {
            sys.state.positions[4].y = f64::NAN;
            let job = MdJob { steps: 5, ..Default::default() };
            let err = engine.run(&mut sys, &job).unwrap_err();
            assert!(matches!(err, EngineError::NumericalBlowup { step: 5 }), "{err:?}");
        }
    }

    #[test]
    fn salt_parameter_reaches_energy() {
        let engine = SanderEngine::new(NonbondedParams {
            cutoff: 12.0,
            dielectric: 10.0,
            salt_molar: 0.0,
            ph: 7.0,
        });
        let sys = prepared_system(3, 300.0);
        let e0 = engine.single_point(&sys, 0.0, &[]).coulomb;
        let e1 = engine.single_point(&sys, 2.0, &[]).coulomb;
        assert!((e0 - e1).abs() > 1e-12);
    }
}
