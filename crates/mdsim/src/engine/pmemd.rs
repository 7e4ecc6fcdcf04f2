//! `pmemd.MPI`-analogue: the parallel Amber-family engine.
//!
//! The one force evaluation on `cores` threads (scoped workers over a pair
//! partition that depends on the pair count and `cores` only, so a replica's
//! energies do not depend on the host; see [`crate::forcefield`]). Like the
//! real `pmemd.MPI` (and as the paper notes in the Fig. 12 experiment), it
//! cannot run on a single core — RepEx switches executables between `sander`
//! and `pmemd.MPI` based on the cores-per-replica setting, and our AMM does
//! the same.

use super::{run_langevin, EngineError, EngineScratch, MdEngine, MdJob, MdOutput};
use crate::forcefield::NonbondedParams;
use crate::system::System;
use rng::Rng;

/// Fewest cores `pmemd.MPI` runs on.
const MIN_CORES: usize = 2;

/// Parallel MD engine (≥ 2 cores per replica), Amber `pmemd.MPI` analogue.
#[derive(Debug, Clone)]
pub struct PmemdEngine {
    pub base: NonbondedParams,
    /// Cores per replica: the thread count of every evaluation.
    pub cores: usize,
}

impl PmemdEngine {
    pub fn new(base: NonbondedParams, cores: usize) -> Self {
        PmemdEngine { base, cores }
    }
}

impl MdEngine for PmemdEngine {
    fn base(&self) -> &NonbondedParams {
        &self.base
    }

    fn threads(&self) -> usize {
        self.cores
    }

    fn run_in(
        &self,
        system: &mut System,
        job: &MdJob,
        scratch: &mut EngineScratch,
    ) -> Result<MdOutput, EngineError> {
        if self.cores < MIN_CORES {
            return Err(EngineError::BadCoreCount {
                engine: "pmemd.MPI",
                requested: self.cores,
                minimum: MIN_CORES,
            });
        }
        run_langevin(system, job, &self.base, self.cores, scratch, |_| Rng::seed(job.seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SanderEngine;
    use crate::models::{dipeptide_forcefield, solvated_alanine_dipeptide};

    #[test]
    fn refuses_single_core() {
        let engine = PmemdEngine::new(NonbondedParams::default(), 1);
        let mut sys = solvated_alanine_dipeptide(300, 1);
        let err = engine.run(&mut sys, &MdJob::default()).unwrap_err();
        assert!(matches!(err, EngineError::BadCoreCount { minimum: 2, .. }));
    }

    #[test]
    fn matches_sander_energies_at_single_point() {
        let base = dipeptide_forcefield().nonbonded;
        let pmemd = PmemdEngine::new(base, 4);
        let sander = SanderEngine::new(base);
        let mut sys = solvated_alanine_dipeptide(450, 2);
        let mut rng = Rng::seed(8);
        sys.assign_maxwell_boltzmann(300.0, &mut rng);
        let a = sander.single_point(&sys, 0.2, &[]);
        let b = pmemd.single_point(&sys, 0.2, &[]);
        assert!((a.total() - b.total()).abs() < 1e-8, "{} vs {}", a.total(), b.total());
    }

    #[test]
    fn runs_solvated_system() {
        let engine = PmemdEngine::new(dipeptide_forcefield().nonbonded, 4);
        let mut sys = solvated_alanine_dipeptide(500, 3);
        let mut rng = Rng::seed(5);
        sys.assign_maxwell_boltzmann(300.0, &mut rng);
        let job = MdJob { steps: 50, dt_ps: 0.001, ..Default::default() };
        let out = engine.run(&mut sys, &job).unwrap();
        assert!(out.final_state.is_finite());
        assert_eq!(out.final_state.step, 50);
    }
}
