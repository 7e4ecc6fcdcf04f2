//! NAMD AMM: same framework contract, genuinely different input format.

use super::{Amm, MdSpec};
use crate::task::{MdTaskReport, TaskResult};
use mdsim::engine::{MdEngine, NamdEngine};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::namdconf::NamdConfig;
use mdsim::io::restart::write_restart;
use pilot::description::UnitDescription;
use pilot::executor::TaskWork;
use pilot::staging::StagingArea;
use std::sync::Arc;

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
    fn family(&self) -> &'static str {
        "namd"
    }

    fn executable(&self, _cores: usize) -> &'static str {
        "namd2"
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
        let cfg = NamdConfig {
            numsteps: spec.steps,
            timestep_fs: spec.dt_ps * 1000.0,
            temperature: spec.params.temperature,
            langevin_damping: spec.gamma_ps,
            seed: spec.seed,
            cutoff: 9.0,
            salt_concentration: spec.params.salt_molar,
            solvent_ph: spec.params.ph,
            output_energies: spec.steps.max(1),
            restraints: spec
                .params
                .restraints
                .iter()
                .map(|r| (r.dihedral.clone(), r.center_deg, r.k_deg))
                .collect(),
        };
        let conf_name = format!("{base}.conf");
        staging.put_text(&conf_name, cfg.render());

        let desc = UnitDescription::new(format!("md-{base}"), "namd2", spec.cores)
            .with_replica(spec.replica)
            .with_duration(spec.duration)
            .with_staging(
                vec![conf_name.clone()],
                vec![format!("{base}.coor"), format!("{base}.mdinfo")],
            );

        let staging = staging.clone();
        let system = spec.system;
        let engine = Arc::clone(&self.engine);
        let (replica, slot, cycle) = (spec.replica, spec.slot, spec.cycle);
        let (run_steps, sample_stride) = (spec.run_steps, spec.sample_stride);
        let sample_warmup = spec.sample_warmup;
        let work: TaskWork<TaskResult> = Box::new(move || {
            let cfg =
                staging.read_text(&conf_name, NamdConfig::parse)?.map_err(|e| e.to_string())?;
            let mut job = NamdEngine::job_from_config(&cfg, sample_stride);
            job.steps = run_steps;
            job.sample_warmup = sample_warmup;
            let mut sys = system.lock();
            let out = engine.run(&mut sys, &job).map_err(|e| e.to_string())?;
            staging.put_text(
                format!("{base}.coor"),
                write_restart(&format!("namd replica {replica} cycle {cycle}"), &out.final_state),
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
    use mdsim::DihedralRestraint;
    use parking_lot::Mutex;
    use pilot::description::DurationSpec;

    fn spec() -> MdSpec {
        MdSpec {
            replica: 9,
            slot: 9,
            cycle: 2,
            params: SlotParams {
                temperature: 350.0,
                salt_molar: 0.0,
                ph: 7.0,
                restraints: vec![DihedralRestraint::new("psi", 0.02, -120.0)],
            },
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            steps: 4000,
            run_steps: 40,
            dt_ps: 0.002,
            gamma_ps: 5.0,
            seed: 5,
            sample_stride: 20,
            sample_warmup: 0,
            cores: 1,
            gpu: false,
            duration: DurationSpec::Measured,
        }
    }

    #[test]
    fn prepare_run_and_stage_back() {
        let amm = NamdAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let (desc, work) = amm.prepare_md(spec(), &staging).unwrap();
        assert_eq!(desc.executable, "namd2");
        let conf = staging.get_text("r00009_c0002.conf").unwrap();
        assert!(conf.contains("timestep            2"), "fs units in the file:\n{conf}");
        assert!(conf.contains("harmonicDihedral    psi -120 0.02"));

        let result = work().unwrap();
        let md = result.as_md().unwrap();
        assert_eq!(md.replica, 9);
        assert_eq!(md.trace.len(), 2);
        assert!(staging.contains("r00009_c0002.coor"));
        assert!(staging.contains("r00009_c0002.mdinfo"));
    }

    #[test]
    fn engine_family_markers() {
        let amm = NamdAmm::new(dipeptide_forcefield().nonbonded);
        assert_eq!(amm.family(), "namd");
        assert_eq!(amm.executable(64), "namd2");
        assert_eq!(amm.exchange_engine().executable(), "namd2");
    }

    #[test]
    fn corrupted_config_fails_task() {
        let amm = NamdAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let (_, work) = amm.prepare_md(spec(), &staging).unwrap();
        staging.put_text("r00009_c0002.conf", "explodeNow yes\n");
        assert!(work().is_err());
    }
}
