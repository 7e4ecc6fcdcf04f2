//! NAMD-analogue engine.
//!
//! A second, independently-shaped engine demonstrating the framework's
//! engine-independence (Section 4.3 of the paper). Differences from the
//! Amber family are intentional and mirror real NAMD conventions:
//!
//! * configuration arrives as a NAMD-style config file ([`NamdConfig`]),
//!   with the time step in **femtoseconds**;
//! * the `temperature` keyword (re)assigns Maxwell-Boltzmann velocities at
//!   the start of the run when the system is cold, as `namd2` does;
//! * restraints are configured colvars-style (name, center, k) instead of a
//!   DISANG file.

use super::{run_langevin, EngineError, EngineScratch, MdEngine, MdJob, MdOutput};
use crate::forcefield::{DihedralRestraint, NonbondedParams};
use crate::io::namdconf::NamdConfig;
use crate::system::System;
use rng::Rng;

/// NAMD-analogue MD engine.
#[derive(Debug, Clone, Default)]
pub struct NamdEngine {
    pub base: NonbondedParams,
}

impl NamdEngine {
    pub fn new(base: NonbondedParams) -> Self {
        NamdEngine { base }
    }

    /// Translate a NAMD config into the engine-neutral job description
    /// (no sampling: the config has no keyword for it).
    pub fn job_from_config(cfg: &NamdConfig) -> MdJob {
        MdJob {
            steps: cfg.numsteps,
            dt_ps: cfg.dt_ps(),
            temperature: cfg.temperature,
            gamma_ps: cfg.langevin_damping,
            seed: cfg.seed,
            salt_molar: cfg.salt_concentration,
            ph: cfg.solvent_ph,
            restraints: DihedralRestraint::from_triples(&cfg.restraints),
            sample_stride: 0,
            sample_warmup: 0,
        }
    }
}

impl MdEngine for NamdEngine {
    fn base(&self) -> &NonbondedParams {
        &self.base
    }

    fn run_in(
        &self,
        system: &mut System,
        job: &MdJob,
        scratch: &mut EngineScratch,
    ) -> Result<MdOutput, EngineError> {
        run_langevin(system, job, &self.base, 1, scratch, |system| {
            // Its own noise stream, not the Amber family's under the same
            // seed: salted with "NAMD".
            let mut rng = Rng::seed(job.seed ^ 0x4e41_4d44);
            // NAMD semantics: the `temperature` keyword initializes
            // velocities when the system has (near-)zero kinetic energy.
            if system.kinetic_energy() < 1e-9 {
                system.assign_maxwell_boltzmann(job.temperature, &mut rng);
            }
            rng
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SanderEngine;
    use crate::models::{alanine_dipeptide, dipeptide_forcefield};

    #[test]
    fn cold_start_assigns_velocities() {
        let engine = NamdEngine::new(dipeptide_forcefield().nonbonded);
        let mut sys = alanine_dipeptide(); // zero velocities
        assert!(sys.kinetic_energy() < 1e-12);
        let job = MdJob { steps: 10, temperature: 300.0, ..Default::default() };
        engine.run(&mut sys, &job).unwrap();
        assert!(sys.kinetic_energy() > 0.0);
    }

    #[test]
    fn energies_agree_with_amber_family() {
        // Same force field, same coordinates: the two engine families must
        // report identical single-point energies (the physics is shared).
        let base = dipeptide_forcefield().nonbonded;
        let namd = NamdEngine::new(base);
        let sander = SanderEngine::new(base);
        let sys = alanine_dipeptide();
        let a = namd.single_point(&sys, 0.1, &[]);
        let b = sander.single_point(&sys, 0.1, &[]);
        assert!((a.total() - b.total()).abs() < 1e-10);
    }

    #[test]
    fn config_translation_units() {
        let cfg = NamdConfig { numsteps: 4000, timestep_fs: 2.0, ..Default::default() };
        let job = NamdEngine::job_from_config(&cfg);
        assert_eq!(job.steps, 4000);
        assert!((job.dt_ps - 0.002).abs() < 1e-12);
    }
}
