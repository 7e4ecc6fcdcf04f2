//! GROMACS-analogue engine (`gmx mdrun`), the third engine family —
//! implementing the paper's Section 5 extension "support for additional MD
//! simulation engines might be introduced".
//!
//! Conventions kept genuinely GROMACS-shaped:
//!
//! * run parameters arrive as an `.mdp` file ([`MdpConfig`]): `dt` in ps,
//!   `tau-t` instead of a friction constant (γ = 1/τ), cutoffs in nm;
//! * the `sd` integrator (GROMACS's Langevin) is the only supported one.

use super::{MdEngine, MdJob};
use crate::forcefield::{DihedralRestraint, NonbondedParams};
use crate::io::mdp::MdpConfig;

/// GROMACS-analogue MD engine.
#[derive(Debug, Clone, Default)]
pub struct GmxEngine {
    pub base: NonbondedParams,
}

impl GmxEngine {
    pub fn new(base: NonbondedParams) -> Self {
        GmxEngine { base }
    }

    /// Translate `.mdp` parameters into the engine-neutral job description
    /// (no sampling: the `.mdp` has no key for it).
    pub fn job_from_mdp(cfg: &MdpConfig) -> MdJob {
        MdJob {
            steps: cfg.nsteps,
            dt_ps: cfg.dt,
            temperature: cfg.ref_t,
            gamma_ps: cfg.gamma_ps(),
            seed: cfg.ld_seed,
            salt_molar: cfg.salt_concentration,
            ph: cfg.solvent_ph,
            restraints: DihedralRestraint::from_triples(&cfg.dihres),
            sample_stride: 0,
            sample_warmup: 0,
        }
    }
}

impl MdEngine for GmxEngine {
    fn base(&self) -> &NonbondedParams {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SanderEngine;
    use crate::models::{alanine_dipeptide, dipeptide_forcefield};

    #[test]
    fn mdp_units_translate() {
        let cfg = MdpConfig { tau_t: 0.25, ..Default::default() };
        let job = GmxEngine::job_from_mdp(&cfg);
        assert!((job.gamma_ps - 4.0).abs() < 1e-12, "gamma = 1/tau");
    }

    #[test]
    fn energies_agree_with_other_families() {
        let base = dipeptide_forcefield().nonbonded;
        let gmx = GmxEngine::new(base);
        let sander = SanderEngine::new(base);
        let sys = alanine_dipeptide();
        let a = gmx.single_point_with(&sys, 0.2, 6.0, &[]);
        let b = sander.single_point_with(&sys, 0.2, 6.0, &[]);
        assert!((a.total() - b.total()).abs() < 1e-10);
    }
}
