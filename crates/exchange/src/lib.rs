//! # exchange — replica-exchange algorithms
//!
//! The RE mathematics of the framework, independent of any MD engine:
//!
//! * [`param`] — exchange parameter types (T/U/S) and ladder construction;
//! * [`metropolis`] — acceptance criteria for temperature, umbrella and
//!   general Hamiltonian (salt) exchange;
//! * [`pairing`] — partner selection (alternating nearest-neighbour, random);
//! * [`multidim`] — parameter grids and per-dimension exchange groups for
//!   M-REMD with arbitrary dimension ordering;
//! * [`stats`] — acceptance ratios and round-trip mixing diagnostics;
//! * [`ladder_opt`] — adaptive temperature-ladder re-spacing from measured
//!   acceptances (the kind of algorithmic innovation the framework exists
//!   to enable).

pub mod ladder_opt;
pub mod metropolis;
pub mod multidim;
pub mod pairing;
pub mod param;
pub mod stats;

pub use ladder_opt::{respace_dimension, respace_temperature_ladder, PairAcceptance};
pub use metropolis::{
    acceptance_probability, hamiltonian_delta, metropolis_accept, temperature_delta, umbrella_delta,
};
pub use multidim::ParamGrid;
pub use pairing::{select_pairs, validate_pairs, PairingStrategy};
pub use param::{Dimension, ExchangeParam};
pub use stats::AcceptanceStats;
