//! # pilot — a pilot-job runtime (RADICAL-Pilot analogue)
//!
//! RepEx delegates resource allocation, task scheduling and data movement to
//! a pilot-job system. This crate implements the same abstractions:
//!
//! * [`description::PilotDescription`] / [`description::UnitDescription`] —
//!   the declarative API;
//! * [`states`] — the unit/pilot state machines;
//! * [`staging::StagingArea`] — the shared area tasks stage files through;
//! * [`executor::Executor`] — where units run, with two backends:
//!   [`sim::SimExecutor`] (virtual time on the DES cluster; payloads still
//!   execute, so exchange math is real) and [`local::LocalExecutor`]
//!   (measured durations);
//! * [`agent::Agent`] — the host threads both backends run payloads on;
//! * [`manager::PilotManager`] — queue wait + activation.

pub mod agent;
pub mod description;
pub mod executor;
pub mod local;
pub mod manager;
pub mod sim;
pub mod staging;
pub mod states;

pub use agent::{with_scratch, Agent, Permits};
pub use description::{DurationSpec, PilotDescription, UnitDescription};
pub use executor::{drain, CompletedUnit, Executor, TaskWork, UnitId};
pub use local::LocalExecutor;
pub use manager::{Backend, Pilot, PilotManager};
pub use sim::SimExecutor;
pub use staging::StagingArea;
pub use states::{PilotState, UnitState};
