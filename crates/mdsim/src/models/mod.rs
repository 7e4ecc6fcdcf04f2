//! Ready-made molecular systems used throughout the workspace.

mod dipeptide;
mod fluid;

pub use dipeptide::{
    alanine_dipeptide, dipeptide_forcefield, min_solvated_atoms, solvated_alanine_dipeptide,
    BACKBONE_ATOMS,
};
pub use fluid::{lj_fluid, lj_forcefield};
