//! NAMD dialect: one `.conf` file, the time step in femtoseconds,
//! restraints named colvars-style; restart is `.coor`.

use super::{Amm, MdSpec};
use mdsim::engine::{MdEngine, MdJob, NamdEngine};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::namdconf::NamdConfig;
use mdsim::{DihedralRestraint, System};
use pilot::staging::StagingArea;
use std::sync::{Arc, Mutex};

/// AMM for the NAMD engine.
pub struct NamdAmm {
    engine: Arc<NamdEngine>,
}

impl NamdAmm {
    pub fn new(base: NonbondedParams) -> Self {
        NamdAmm { engine: Arc::new(NamdEngine::new(base)) }
    }
}

impl Amm for NamdAmm {
    fn engine(&self, _cores: usize) -> Arc<dyn MdEngine> {
        Arc::clone(&self.engine) as Arc<dyn MdEngine>
    }

    fn restart_format(&self) -> (&'static str, &'static str) {
        ("coor", "namd ")
    }

    fn render(&self, spec: &MdSpec, base: &str) -> Result<Vec<(String, String)>, String> {
        let cfg = NamdConfig {
            numsteps: spec.steps,
            timestep_fs: spec.dt_ps * 1000.0,
            temperature: spec.params.temperature,
            langevin_damping: spec.gamma_ps,
            seed: spec.seed,
            cutoff: self.engine.base.cutoff,
            salt_concentration: spec.params.salt_molar,
            solvent_ph: spec.params.ph,
            output_energies: spec.steps.max(1),
            restraints: DihedralRestraint::to_triples(&spec.params.restraints),
        };
        Ok(vec![(format!("{base}.conf"), cfg.render())])
    }

    fn parse(
        &self,
        staging: &StagingArea,
        control: &str,
        _system: &Mutex<System>,
    ) -> Result<MdJob, String> {
        let cfg = staging.read_text(control, NamdConfig::parse)?.map_err(|e| e.to_string())?;
        Ok(NamdEngine::job_from_config(&cfg))
    }
}
