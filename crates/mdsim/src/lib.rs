//! # mdsim — the molecular-dynamics substrate
//!
//! A from-scratch MD engine family standing in for Amber (`sander`,
//! `pmemd.MPI`) and NAMD in the RepEx reproduction. It provides:
//!
//! * a force field with harmonic bonds/angles, periodic torsions,
//!   Lennard-Jones, salt-screened Coulomb (Debye–Hückel) and harmonic
//!   dihedral (umbrella) restraints — the three exchange parameters of the
//!   paper (T, U, S) all act on real physics here;
//! * one integrator, Langevin BAOAB (velocity Verlet at zero friction);
//! * one force evaluation, run on one thread or on a replica's cores, and
//!   four engines over it behind the [`engine::MdEngine`] trait;
//! * the file formats the framework stages between tasks: Amber-style
//!   `mdin`/`DISANG`/restart/`mdinfo` and NAMD-style config files;
//! * ready-made systems: the reduced alanine dipeptide (with solvated
//!   variants at the paper's 2 881- and 64 366-atom cost scales) and an LJ
//!   fluid.
//!
//! ## Quick example
//!
//! ```
//! use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
//! use mdsim::engine::{MdEngine, MdJob, SanderEngine};
//!
//! let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
//! let mut system = alanine_dipeptide();
//! let job = MdJob { steps: 100, sample_stride: 10, ..Default::default() };
//! let out = engine.run(&mut system, &job).expect("stable short run");
//! assert_eq!(out.final_state.step, 100);
//! ```

pub mod engine;
pub mod forcefield;
pub mod integrator;
pub mod io;
pub mod minimize;
pub mod models;
pub mod neighbor;
pub mod system;
pub mod topology;
pub mod units;
pub mod vec3;

pub use engine::{EngineScratch, MdEngine, MdJob, MdOutput, SinglePointRequest};
pub use forcefield::{
    DihedralRestraint, EnergyBreakdown, EvalContext, ForceField, NonbondedParams,
};
pub use neighbor::NeighborCache;
pub use system::{PbcBox, State, System};
pub use topology::Topology;
pub use vec3::Vec3;
