//! Ready-made molecular systems used throughout the workspace.

mod dipeptide;
mod fluid;

pub use dipeptide::{
    alanine_dipeptide, alanine_dipeptide_on, dipeptide_forcefield, dipeptide_topology,
    min_solvated_atoms, solvated_alanine_dipeptide, solvated_alanine_dipeptide_on, BACKBONE_ATOMS,
};
pub use fluid::{lj_fluid, lj_forcefield};
