//! GROMACS dialect — the third engine family (the paper's Section 5
//! extension "support for additional MD simulation engines might be
//! introduced"): one `.mdp` file, `tau-t` for friction, cutoffs in nm;
//! restart is `.gro`. This file is what adding an engine costs.

use super::{Amm, MdSpec};
use mdsim::engine::{GmxEngine, MdEngine, MdJob};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdp::MdpConfig;
use mdsim::{DihedralRestraint, System};
use pilot::staging::StagingArea;
use std::sync::{Arc, Mutex};

/// AMM for the GROMACS engine family.
pub struct GromacsAmm {
    engine: Arc<GmxEngine>,
}

impl GromacsAmm {
    pub fn new(base: NonbondedParams) -> Self {
        GromacsAmm { engine: Arc::new(GmxEngine::new(base)) }
    }
}

impl Amm for GromacsAmm {
    fn engine(&self, _cores: usize) -> Arc<dyn MdEngine> {
        Arc::clone(&self.engine) as Arc<dyn MdEngine>
    }

    fn restart_format(&self) -> (&'static str, &'static str) {
        ("gro", "gmx ")
    }

    fn render(&self, spec: &MdSpec, base: &str) -> Result<Vec<(String, String)>, String> {
        let cfg = MdpConfig {
            nsteps: spec.steps,
            dt: spec.dt_ps,
            ref_t: spec.params.temperature,
            // GROMACS couples via tau-t; our job carries gamma = 1/tau.
            tau_t: 1.0 / spec.gamma_ps.max(1e-6),
            ld_seed: spec.seed,
            // Å -> nm.
            rcoulomb_nm: self.engine.base.cutoff / 10.0,
            salt_concentration: spec.params.salt_molar,
            solvent_ph: spec.params.ph,
            dihres: DihedralRestraint::to_triples(&spec.params.restraints),
        };
        Ok(vec![(format!("{base}.mdp"), cfg.render())])
    }

    fn parse(
        &self,
        staging: &StagingArea,
        control: &str,
        _system: &Mutex<System>,
    ) -> Result<MdJob, String> {
        let cfg = staging.read_text(control, MdpConfig::parse)?.map_err(|e| e.to_string())?;
        Ok(GmxEngine::job_from_mdp(&cfg))
    }
}
