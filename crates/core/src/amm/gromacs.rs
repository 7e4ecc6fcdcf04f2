//! GROMACS AMM — the third engine family (the paper's Section 5 extension
//! "support for additional MD simulation engines might be introduced").
//! Demonstrates what the AMM abstraction buys: adding an engine touches
//! only input preparation and output staging; EMM/RAM are untouched.

use super::{Amm, MdSpec};
use crate::task::{MdTaskReport, TaskResult};
use mdsim::engine::{GmxEngine, MdEngine};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdp::MdpConfig;
use mdsim::io::restart::write_restart;
use pilot::description::UnitDescription;
use pilot::executor::TaskWork;
use pilot::staging::StagingArea;
use std::sync::Arc;

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
    fn family(&self) -> &'static str {
        "gromacs"
    }

    fn executable(&self, _cores: usize) -> &'static str {
        "gmx mdrun"
    }

    fn exchange_engine(&self) -> Arc<dyn MdEngine> {
        Arc::clone(&self.engine) as Arc<dyn MdEngine>
    }

    fn prepare_md(
        &self,
        spec: MdSpec,
        staging: &StagingArea,
    ) -> Result<(UnitDescription, TaskWork<TaskResult>), String> {
        let base = spec.file_base();
        let cfg = MdpConfig {
            nsteps: spec.steps,
            dt: spec.dt_ps,
            ref_t: spec.params.temperature,
            // GROMACS couples via tau-t; our job carries gamma = 1/tau.
            tau_t: 1.0 / spec.gamma_ps.max(1e-6),
            ld_seed: spec.seed,
            rcoulomb_nm: 0.9,
            salt_concentration: spec.params.salt_molar,
            solvent_ph: spec.params.ph,
            dihres: spec
                .params
                .restraints
                .iter()
                .map(|r| (r.dihedral.clone(), r.center_deg, r.k_deg))
                .collect(),
        };
        let mdp_name = format!("{base}.mdp");
        staging.put_text(&mdp_name, cfg.render());

        let desc = UnitDescription::new(format!("md-{base}"), "gmx mdrun", spec.cores)
            .with_replica(spec.replica)
            .with_duration(spec.duration)
            .with_staging(
                vec![mdp_name.clone()],
                vec![format!("{base}.gro"), format!("{base}.mdinfo")],
            );

        let staging = staging.clone();
        let system = spec.system;
        let engine = Arc::clone(&self.engine);
        let (replica, slot, cycle) = (spec.replica, spec.slot, spec.cycle);
        let (run_steps, sample_stride, sample_warmup) =
            (spec.run_steps, spec.sample_stride, spec.sample_warmup);
        let work: TaskWork<TaskResult> = Box::new(move || {
            let cfg = staging.read_text(&mdp_name, MdpConfig::parse)?.map_err(|e| e.to_string())?;
            let mut job = GmxEngine::job_from_mdp(&cfg, sample_stride);
            job.steps = run_steps;
            job.sample_warmup = sample_warmup;
            let mut sys = system.lock();
            let out = engine.run(&mut sys, &job).map_err(|e| e.to_string())?;
            staging.put_text(
                format!("{base}.gro"),
                write_restart(&format!("gmx replica {replica} cycle {cycle}"), &out.final_state),
            );
            staging.put_text(format!("{base}.mdinfo"), out.mdinfo.render());
            Ok(TaskResult::Md(MdTaskReport {
                replica,
                slot,
                cycle,
                potential: out.mdinfo.eptot,
                physical_potential: out.mdinfo.physical_potential(),
                measured_temperature: out.mdinfo.temperature,
                trace: out.dihedral_trace,
            }))
        });
        Ok((desc, work))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::SlotParams;
    use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
    use parking_lot::Mutex;
    use pilot::description::DurationSpec;

    fn spec() -> MdSpec {
        MdSpec {
            replica: 2,
            slot: 2,
            cycle: 0,
            params: SlotParams { temperature: 310.0, salt_molar: 0.1, ph: 6.0, restraints: vec![] },
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            steps: 1000,
            run_steps: 30,
            dt_ps: 0.002,
            gamma_ps: 5.0,
            seed: 9,
            sample_stride: 10,
            sample_warmup: 0,
            cores: 1,
            gpu: false,
            duration: DurationSpec::Measured,
        }
    }

    #[test]
    fn prepare_run_stage_back() {
        let amm = GromacsAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let (desc, work) = amm.prepare_md(spec(), &staging).unwrap();
        assert_eq!(desc.executable, "gmx mdrun");
        let mdp = staging.get_text("r00002_c0000.mdp").unwrap();
        assert!(mdp.contains("integrator          = sd"));
        assert!(mdp.contains("tau-t               = 0.2"), "gamma 5 -> tau 0.2:\n{mdp}");
        assert!(mdp.contains("solvent-ph          = 6"));

        let result = work().unwrap();
        let md = result.as_md().unwrap();
        assert_eq!(md.replica, 2);
        assert_eq!(md.trace.len(), 3);
        assert!(staging.contains("r00002_c0000.gro"));
        assert!(staging.contains("r00002_c0000.mdinfo"));
    }

    #[test]
    fn corrupted_mdp_fails_task() {
        let amm = GromacsAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let (_, work) = amm.prepare_md(spec(), &staging).unwrap();
        staging.put_text("r00002_c0000.mdp", "integrator = md\n");
        assert!(work().is_err());
    }
}
