//! Amber-family AMM: `sander` for single-core replicas, `pmemd.MPI` for
//! multi-core replicas (the executable switch the paper makes in Fig. 12).

use super::{dihedral_atoms_1based, dihedral_name_from_1based, Amm, MdSpec};
use crate::task::{MdTaskReport, TaskResult};
use mdsim::engine::{MdEngine, MdJob, PmemdEngine, SanderEngine};
use mdsim::forcefield::NonbondedParams;
use mdsim::io::mdin::{parse_disang, render_disang, DisangRestraint, MdinControl};
use mdsim::io::mdinfo::MdInfo;
use mdsim::io::restart::write_restart;
use mdsim::DihedralRestraint;
use pilot::description::UnitDescription;
use pilot::executor::TaskWork;
use pilot::staging::StagingArea;
use std::sync::Arc;

/// AMM for the Amber engine family.
pub struct AmberAmm {
    sander: Arc<SanderEngine>,
    pmemd_base: NonbondedParams,
}

impl AmberAmm {
    pub fn new(base: NonbondedParams) -> Self {
        AmberAmm { sander: Arc::new(SanderEngine::new(base)), pmemd_base: base }
    }
}

impl Amm for AmberAmm {
    fn family(&self) -> &'static str {
        "amber"
    }

    fn executable(&self, cores: usize) -> &'static str {
        if cores > 1 {
            "pmemd.MPI"
        } else {
            "sander"
        }
    }

    fn exchange_engine(&self) -> Arc<dyn MdEngine> {
        Arc::clone(&self.sander) as Arc<dyn MdEngine>
    }

    fn prepare_md(
        &self,
        spec: MdSpec,
        staging: &StagingArea,
    ) -> Result<(UnitDescription, TaskWork<TaskResult>), String> {
        let base = spec.file_base();
        // Render this cycle's control file with the replica's *current*
        // parameters — the translation step the AMM exists for.
        let ctl = MdinControl {
            nstlim: spec.steps,
            dt: spec.dt_ps,
            temp0: spec.params.temperature,
            gamma_ln: spec.gamma_ps,
            ig: spec.seed,
            saltcon: spec.params.salt_molar,
            solvph: spec.params.ph,
            cut: self.pmemd_base.cutoff,
            ntpr: spec.steps.max(1),
            disang: (!spec.params.restraints.is_empty()).then(|| format!("{base}.RST")),
        };
        let mdin_name = format!("{base}.mdin");
        staging.put_text(
            &mdin_name,
            ctl.render(&format!("replica {} cycle {}", spec.replica, spec.cycle)),
        );
        if !spec.params.restraints.is_empty() {
            let sys = spec.system.lock();
            let records: Vec<DisangRestraint> = spec
                .params
                .restraints
                .iter()
                .map(|r| {
                    Ok(DisangRestraint {
                        iat: dihedral_atoms_1based(&sys, &r.dihedral)?,
                        r2: r.center_deg,
                        rk2: r.k_deg,
                    })
                })
                .collect::<Result<_, String>>()?;
            staging.put_text(format!("{base}.RST"), render_disang(&records));
        }

        let executable = if spec.gpu { "pmemd.cuda" } else { self.executable(spec.cores) };
        let desc = UnitDescription::new(format!("md-{base}"), executable, spec.cores)
            .with_replica(spec.replica)
            .with_duration(spec.duration)
            .with_staging(
                vec![mdin_name.clone()],
                vec![format!("{base}.rst7"), format!("{base}.mdinfo")],
            );

        // The payload re-reads and parses the staged input files — the same
        // round trip the real RAM makes on the cluster.
        let staging = staging.clone();
        let system = spec.system;
        let sander = Arc::clone(&self.sander);
        let pmemd_base = self.pmemd_base;
        let (replica, slot, cycle) = (spec.replica, spec.slot, spec.cycle);
        let (run_steps, sample_stride, cores) = (spec.run_steps, spec.sample_stride, spec.cores);
        let sample_warmup = spec.sample_warmup;
        let work: TaskWork<TaskResult> = Box::new(move || {
            let ctl =
                staging.read_text(&mdin_name, MdinControl::parse)?.map_err(|e| e.to_string())?;
            let restraints: Vec<DihedralRestraint> = match &ctl.disang {
                Some(f) => {
                    let records = staging.read_text(f, parse_disang)?;
                    let sys = system.lock();
                    records
                        .map_err(|e| e.to_string())?
                        .into_iter()
                        .map(|d| {
                            Ok(DihedralRestraint::new(
                                dihedral_name_from_1based(&sys, d.iat)?,
                                d.rk2,
                                d.r2,
                            ))
                        })
                        .collect::<Result<_, String>>()?
                }
                None => Vec::new(),
            };
            let job = MdJob {
                steps: run_steps,
                dt_ps: ctl.dt,
                temperature: ctl.temp0,
                gamma_ps: ctl.gamma_ln,
                seed: ctl.ig,
                salt_molar: ctl.saltcon,
                ph: ctl.solvph,
                restraints,
                sample_stride,
                sample_warmup,
            };
            let mut sys = system.lock();
            let out = if cores > 1 {
                PmemdEngine::new(pmemd_base, cores).run(&mut sys, &job)
            } else {
                sander.run(&mut sys, &job)
            }
            .map_err(|e| e.to_string())?;
            staging.put_text(
                format!("{base}.rst7"),
                write_restart(&format!("replica {replica} cycle {cycle}"), &out.final_state),
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

/// Parse a staged mdinfo file (used by the exchange phase).
pub fn read_staged_mdinfo(staging: &StagingArea, base: &str) -> Result<MdInfo, String> {
    staging.read_text(&format!("{base}.mdinfo"), MdInfo::parse)?
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::SlotParams;
    use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
    use parking_lot::Mutex;
    use pilot::description::DurationSpec;

    fn spec(restraints: Vec<DihedralRestraint>, cores: usize) -> MdSpec {
        MdSpec {
            replica: 3,
            slot: 3,
            cycle: 1,
            params: SlotParams { temperature: 320.0, salt_molar: 0.25, ph: 7.0, restraints },
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            steps: 6000,
            run_steps: 50,
            dt_ps: 0.002,
            gamma_ps: 5.0,
            seed: 11,
            sample_stride: 10,
            sample_warmup: 0,
            cores,
            gpu: false,
            duration: DurationSpec::Measured,
        }
    }

    #[test]
    fn prepare_and_run_roundtrip() {
        let amm = AmberAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let s = spec(vec![DihedralRestraint::new("phi", 0.02, 60.0)], 1);
        let (desc, work) = amm.prepare_md(s, &staging).unwrap();
        assert_eq!(desc.executable, "sander");
        assert!(staging.contains("r00003_c0001.mdin"));
        assert!(staging.contains("r00003_c0001.RST"));

        let result = work().unwrap();
        let md = result.as_md().unwrap();
        assert_eq!(md.replica, 3);
        assert_eq!(md.trace.len(), 5, "50 steps / stride 10");
        // Outputs staged back.
        assert!(staging.contains("r00003_c0001.rst7"));
        let info = read_staged_mdinfo(&staging, "r00003_c0001").unwrap();
        assert_eq!(info.nstep, 50);
        assert!(info.restraint >= 0.0);
        assert!((info.eptot - md.potential).abs() < 1e-3);
    }

    #[test]
    fn executable_switches_with_cores() {
        let amm = AmberAmm::new(dipeptide_forcefield().nonbonded);
        assert_eq!(amm.executable(1), "sander");
        assert_eq!(amm.executable(16), "pmemd.MPI");
        let staging = StagingArea::new();
        let (desc, work) = amm.prepare_md(spec(vec![], 4), &staging).unwrap();
        assert_eq!(desc.executable, "pmemd.MPI");
        assert_eq!(desc.cores, 4);
        assert!(work().is_ok());
    }

    #[test]
    fn mdin_carries_slot_parameters() {
        let amm = AmberAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let _unit = amm.prepare_md(spec(vec![], 1), &staging).unwrap();
        let ctl = MdinControl::parse(&staging.get_text("r00003_c0001.mdin").unwrap()).unwrap();
        assert_eq!(ctl.temp0, 320.0);
        assert_eq!(ctl.saltcon, 0.25);
        assert_eq!(ctl.nstlim, 6000, "nominal steps in the file");
    }

    #[test]
    fn missing_input_file_fails_the_task() {
        let amm = AmberAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let (_, work) = amm.prepare_md(spec(vec![], 1), &staging).unwrap();
        staging.delete("r00003_c0001.mdin");
        assert!(work().is_err());
    }

    #[test]
    fn unknown_restraint_dihedral_fails_preparation() {
        let amm = AmberAmm::new(dipeptide_forcefield().nonbonded);
        let staging = StagingArea::new();
        let s = spec(vec![DihedralRestraint::new("chi1", 0.02, 0.0)], 1);
        assert!(amm.prepare_md(s, &staging).is_err());
    }
}
