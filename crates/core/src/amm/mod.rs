//! Application Management Modules (AMM).
//!
//! The AMM is the engine-specific half of the framework: it translates a
//! replica's current parameters into the engine's input files, stages them,
//! and builds the compute unit whose payload runs the engine and stages the
//! outputs back (restart + mdinfo). "AMM is specific to a particular MD
//! engine, since input/output files and arguments for each MD engine are
//! different" (Section 3.3).

pub mod amber;
pub mod gromacs;
pub mod namd;

pub use amber::AmberAmm;
pub use gromacs::GromacsAmm;
pub use namd::NamdAmm;

use crate::replica::SlotParams;
use crate::task::TaskResult;
use mdsim::engine::MdEngine;
use mdsim::System;
use parking_lot::Mutex;
use pilot::description::{DurationSpec, UnitDescription};
use pilot::executor::TaskWork;
use pilot::staging::StagingArea;
use std::sync::Arc;

/// Everything needed to prepare one replica's MD segment.
#[derive(Clone)]
pub struct MdSpec {
    pub replica: usize,
    pub slot: usize,
    pub cycle: u64,
    pub params: SlotParams,
    pub system: Arc<Mutex<System>>,
    /// Nominal steps (written to the input file and charged to the cost
    /// model).
    pub steps: u64,
    /// Steps actually integrated (surrogate under the simulated backend;
    /// equal to `steps` under the local backend).
    pub run_steps: u64,
    pub dt_ps: f64,
    pub gamma_ps: f64,
    pub seed: u64,
    pub sample_stride: u64,
    pub sample_warmup: u64,
    pub cores: usize,
    /// Run this segment on a GPU (Amber family: `pmemd.cuda`).
    pub gpu: bool,
    pub duration: DurationSpec,
}

/// Base name of the files one replica's segment `cycle` stages; each engine
/// appends its own `.ext`s.
pub fn file_base(replica: usize, cycle: u64) -> String {
    format!("r{replica:05}_c{cycle:04}")
}

impl MdSpec {
    /// Base name for this replica/cycle's staged files.
    pub fn file_base(&self) -> String {
        file_base(self.replica, self.cycle)
    }
}

/// Engine-specific input preparation and task construction.
pub trait Amm: Send + Sync {
    /// Engine family name ("amber", "namd").
    fn family(&self) -> &'static str;

    /// Executable used at a given cores-per-replica count.
    fn executable(&self, cores: usize) -> &'static str;

    /// An engine handle for single-point energies in the exchange phase.
    fn exchange_engine(&self) -> Arc<dyn MdEngine>;

    /// Write the replica's input files to `staging` and return the unit
    /// description plus the payload that runs the engine.
    fn prepare_md(
        &self,
        spec: MdSpec,
        staging: &StagingArea,
    ) -> Result<(UnitDescription, TaskWork<TaskResult>), String>;
}

/// Shared helper: 1-based atom indices of a named dihedral (Amber files use
/// 1-based indexing).
pub(crate) fn dihedral_atoms_1based(system: &System, name: &str) -> Result<[u32; 4], String> {
    let d = system
        .topology
        .dihedral(name)
        .ok_or_else(|| format!("topology has no dihedral named {name:?}"))?;
    Ok([d.atoms[0] + 1, d.atoms[1] + 1, d.atoms[2] + 1, d.atoms[3] + 1])
}

/// Shared helper: map 1-based atom indices back to the named dihedral.
pub(crate) fn dihedral_name_from_1based(system: &System, iat: [u32; 4]) -> Result<String, String> {
    let zero = [iat[0] - 1, iat[1] - 1, iat[2] - 1, iat[3] - 1];
    system
        .topology
        .named_dihedrals
        .iter()
        .find(|d| d.atoms == zero)
        .map(|d| d.name.clone())
        .ok_or_else(|| format!("no named dihedral with atoms {iat:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::models::alanine_dipeptide;

    #[test]
    fn dihedral_index_roundtrip() {
        let sys = alanine_dipeptide();
        let iat = dihedral_atoms_1based(&sys, "phi").unwrap();
        assert_eq!(iat, [2, 3, 4, 5], "phi over atoms 1..4 zero-based");
        assert_eq!(dihedral_name_from_1based(&sys, iat).unwrap(), "phi");
        assert!(dihedral_atoms_1based(&sys, "omega").is_err());
        assert!(dihedral_name_from_1based(&sys, [1, 2, 3, 4]).is_err());
    }

    #[test]
    fn file_base_formatting() {
        let spec = MdSpec {
            replica: 42,
            slot: 7,
            cycle: 3,
            params: SlotParams { temperature: 300.0, salt_molar: 0.0, ph: 7.0, restraints: vec![] },
            system: Arc::new(Mutex::new(alanine_dipeptide())),
            steps: 6000,
            run_steps: 100,
            dt_ps: 0.002,
            gamma_ps: 5.0,
            seed: 1,
            sample_stride: 0,
            sample_warmup: 0,
            cores: 1,
            gpu: false,
            duration: DurationSpec::Measured,
        };
        assert_eq!(spec.file_base(), "r00042_c0003");
    }
}
