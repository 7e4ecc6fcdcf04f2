//! Application Management Modules (AMM).
//!
//! The AMM is the engine-specific half of the framework: "AMM is specific to
//! a particular MD engine, since input/output files and arguments for each
//! MD engine are different" (Section 3.3). What differs is a file dialect
//! and nothing else, so that is all an [`Amm`] supplies — how this segment's
//! input files read, how to parse them back into an [`MdJob`], what the
//! restart file is called, and the engine to run. Everything a segment does
//! with them is [`prepare_md`], once for every engine: stage the inputs,
//! describe the unit under the name its caller gives it, and build the
//! payload that re-reads the staged files, runs the engine on the scratch
//! of the pilot slot it lands on, and stages restart + `.mdinfo` back.

pub mod amber;
pub mod gromacs;
pub mod namd;

pub use amber::AmberAmm;
pub use gromacs::GromacsAmm;
pub use namd::NamdAmm;

use crate::replica::{lock_system, SlotParams};
use crate::task::{MdTaskReport, TaskResult};
use hpc::perfmodel::EngineKind;
use mdsim::engine::{EngineScratch, MdEngine, MdJob};
use mdsim::io::mdinfo::MdInfo;
use mdsim::io::restart::write_restart;
use mdsim::System;
use pilot::description::{DurationSpec, UnitDescription};
use pilot::executor::TaskWork;
use pilot::staging::{Retired, StagingArea};
use std::sync::{Arc, Mutex};

/// Everything needed to prepare one replica's MD segment.
#[derive(Clone)]
pub struct MdSpec {
    pub replica: usize,
    pub slot: usize,
    pub cycle: u64,
    /// The slot's entry of the campaign's table, shared, not copied.
    pub params: Arc<SlotParams>,
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
    /// The executable this segment is charged as and launched under
    /// ([`crate::config::SimulationConfig::engine_kind`]).
    pub engine: EngineKind,
    pub duration: DurationSpec,
}

/// Base name of the files one replica's segment `cycle` stages; each engine
/// appends its own `.ext`s.
pub fn file_base(replica: usize, cycle: u64) -> String {
    format!("r{replica:05}_c{cycle:04}")
}

/// The file `<base>.<ext>` of [`file_base`], in one allocation; an empty
/// `ext` gives the prefix every file of the segment starts with.
pub fn file_name(replica: usize, cycle: u64, ext: &str) -> String {
    use std::fmt::Write as _;
    let mut name = String::with_capacity(17 + ext.len());
    write!(name, "r{replica:05}_c{cycle:04}.{ext}").expect("writing to a String cannot fail");
    name
}

/// One engine family's file dialect.
pub trait Amm: Send + Sync {
    /// The engine that runs a segment on `cores` cores; `engine(1)` also
    /// serves the exchange phase's single-point energies.
    fn engine(&self, cores: usize) -> Arc<dyn MdEngine>;

    /// Extension of the restart file the engine writes, and the tag its
    /// title line opens with.
    fn restart_format(&self) -> (&'static str, &'static str);

    /// Render the input files of `spec`'s segment from the replica's
    /// *current* parameters — the translation step the AMM exists for — as
    /// `(name, text)` under `base`, the control file first.
    fn render(&self, spec: &MdSpec, base: &str) -> Result<Vec<(String, String)>, String>;

    /// Parse the staged control file (and whatever it references) back into
    /// the job it describes: nominal steps, no sampling. `system` resolves
    /// atom indices for dialects that name restraints by index.
    fn parse(
        &self,
        staging: &StagingArea,
        control: &str,
        system: &Mutex<System>,
    ) -> Result<MdJob, String>;
}

/// Stage `spec`'s input files and return the unit description, under the
/// caller's `name`, plus the payload that runs the engine — the whole MD
/// task path, for any dialect. What makes a name unique (the attempt, the
/// dimension pass) is the caller's bookkeeping. `retired` is files the
/// caller took out of `staging`; the payload drops them first thing, on the
/// slot that runs it.
pub fn prepare_md(
    amm: &Arc<dyn Amm>,
    spec: MdSpec,
    name: String,
    staging: &StagingArea,
    retired: Retired,
) -> Result<(UnitDescription, TaskWork<TaskResult>), String> {
    let base = file_base(spec.replica, spec.cycle);
    let inputs = amm.render(&spec, &base)?;
    let Some(control) = inputs.first().map(|(name, _)| name.clone()) else {
        return Err(format!("AMM rendered no input file for {name} ({base})"));
    };
    for (name, text) in inputs {
        staging.put_text(name, text);
    }
    let desc = UnitDescription::new(name, spec.engine.executable(), spec.cores)
        .with_replica(spec.replica)
        .with_duration(spec.duration);

    // The payload re-reads and parses the staged input files — the same
    // round trip the real RAM makes on the cluster. It holds what differs
    // between units; the rest it asks the AMM for when it runs.
    let amm = Arc::clone(amm);
    let staging = staging.clone();
    let MdSpec {
        replica, slot, cycle, system, run_steps, sample_stride, sample_warmup, cores, ..
    } = spec;
    let work: TaskWork<TaskResult> = Box::new(move || {
        drop(retired);
        let engine = amm.engine(cores);
        let job = MdJob {
            steps: run_steps,
            sample_stride,
            sample_warmup,
            ..amm.parse(&staging, &control, &system)?
        };
        let mut sys = lock_system(&system);
        // On the buffers the slot running this unit keeps between segments.
        let out = pilot::with_scratch(|scratch: &mut EngineScratch| {
            engine.run_in(&mut sys, &job, scratch)
        })
        .map_err(|e| e.to_string())?;
        // The exchange reads the `.mdinfo`: text now. No unit opens the
        // restart (the next segment continues from the live `System`): it is
        // staged as the state it says and rendered for whoever reads it.
        let (restart_ext, restart_tag) = amm.restart_format();
        let title = format!("{restart_tag}replica {replica} cycle {cycle}");
        let restart = file_name(replica, cycle, restart_ext);
        staging.put_text_with(restart, move || write_restart(&title, &out.final_state));
        staging.put_text(file_name(replica, cycle, "mdinfo"), out.mdinfo.render());
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

/// Parse the `.mdinfo` a segment staged back (the exchange phase reads its
/// energies from here, whichever engine wrote it).
pub fn read_staged_mdinfo(
    staging: &StagingArea,
    replica: usize,
    cycle: u64,
) -> Result<MdInfo, String> {
    staging.read_text(&file_name(replica, cycle, "mdinfo"), MdInfo::parse)?
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
    // An index of 0 is not 1-based: it maps to no atom, so to no dihedral.
    let zero = iat.map(|i| i.checked_sub(1));
    system
        .topology
        .named_dihedrals
        .iter()
        .find(|d| d.atoms.map(Some) == zero)
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
        assert!(dihedral_name_from_1based(&sys, [0, 2, 3, 4]).is_err(), "no panic on index 0");
    }

    #[test]
    fn file_base_formatting() {
        assert_eq!(file_base(42, 3), "r00042_c0003");
        assert_eq!(file_name(42, 3, "mdinfo"), format!("{}.mdinfo", file_base(42, 3)));
        assert_eq!(file_name(123_456, 12_345, ""), "r123456_c12345.");
    }
}
