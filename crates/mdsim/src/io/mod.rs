//! File formats staged between framework tasks.

pub mod mdin;
pub mod mdinfo;
pub mod mdp;
pub mod namdconf;
pub mod restart;
