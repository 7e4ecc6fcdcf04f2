//! Amber-family dialect: `.mdin` control file plus a DISANG (`.RST`)
//! restraint file naming atoms by 1-based index; `sander` for single-core
//! replicas, `pmemd.MPI` for multi-core ones (the executable switch the
//! paper makes in Fig. 12).

use super::{dihedral_atoms_1based, dihedral_name_from_1based, Amm, MdSpec};
use crate::replica::lock_system;
use mdsim::engine::{MdEngine, MdJob, PmemdEngine, SanderEngine};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdin::{parse_disang, render_disang, DisangRestraint, MdinControl};
use mdsim::{DihedralRestraint, System};
use pilot::staging::StagingArea;
use std::sync::{Arc, Mutex};

/// AMM for the Amber engine family.
pub struct AmberAmm {
    sander: Arc<SanderEngine>,
}

impl AmberAmm {
    pub fn new(base: NonbondedParams) -> Self {
        AmberAmm { sander: Arc::new(SanderEngine::new(base)) }
    }
}

impl Amm for AmberAmm {
    fn engine(&self, cores: usize) -> Arc<dyn MdEngine> {
        if cores > 1 {
            Arc::new(PmemdEngine::new(self.sander.base, cores))
        } else {
            Arc::clone(&self.sander) as Arc<dyn MdEngine>
        }
    }

    fn restart_format(&self) -> (&'static str, &'static str) {
        ("rst7", "")
    }

    fn render(&self, spec: &MdSpec, base: &str) -> Result<Vec<(String, String)>, String> {
        let restraints = &spec.params.restraints;
        let disang = (!restraints.is_empty()).then(|| format!("{base}.RST"));
        let ctl = MdinControl {
            nstlim: spec.steps,
            dt: spec.dt_ps,
            temp0: spec.params.temperature,
            gamma_ln: spec.gamma_ps,
            ig: spec.seed,
            saltcon: spec.params.salt_molar,
            solvph: spec.params.ph,
            cut: self.sander.base.cutoff,
            ntpr: spec.steps.max(1),
            disang: disang.clone(),
        };
        let title = format!("replica {} cycle {}", spec.replica, spec.cycle);
        let mut files = vec![(format!("{base}.mdin"), ctl.render(&title))];
        if let Some(name) = disang {
            let sys = lock_system(&spec.system);
            let records: Vec<DisangRestraint> = restraints
                .iter()
                .map(|r| {
                    Ok(DisangRestraint {
                        iat: dihedral_atoms_1based(&sys, &r.dihedral)?,
                        r2: r.center_deg,
                        rk2: r.k_deg,
                    })
                })
                .collect::<Result<_, String>>()?;
            files.push((name, render_disang(&records)));
        }
        Ok(files)
    }

    fn parse(
        &self,
        staging: &StagingArea,
        control: &str,
        system: &Mutex<System>,
    ) -> Result<MdJob, String> {
        let ctl = staging.read_text(control, MdinControl::parse)?.map_err(|e| e.to_string())?;
        let restraints: Vec<DihedralRestraint> = match &ctl.disang {
            Some(f) => {
                let records = staging.read_text(f, parse_disang)?.map_err(|e| e.to_string())?;
                let sys = lock_system(system);
                records
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let name = dihedral_name_from_1based(&sys, d.iat)
                            .map_err(|e| format!("{f}, &rst record {}: {e}", i + 1))?;
                        Ok(DihedralRestraint::new(name, d.rk2, d.r2))
                    })
                    .collect::<Result<_, String>>()?
            }
            None => Vec::new(),
        };
        Ok(MdJob {
            steps: ctl.nstlim,
            dt_ps: ctl.dt,
            temperature: ctl.temp0,
            gamma_ps: ctl.gamma_ln,
            seed: ctl.ig,
            salt_molar: ctl.saltcon,
            ph: ctl.solvph,
            restraints,
            sample_stride: 0,
            sample_warmup: 0,
        })
    }
}
