//! # pilot — a pilot-job runtime (RADICAL-Pilot analogue)
//!
//! RepEx delegates resource allocation, task scheduling and data movement to
//! a pilot job: it acquires the cores once, and its agent runs every unit on
//! them. This crate holds that leg:
//!
//! * [`description::UnitDescription`] — what one compute unit asks for;
//! * [`staging::StagingArea`] — the shared area tasks stage files through;
//! * [`executor::Executor`] — where units run, with two backends:
//!   [`sim::SimExecutor`] (virtual time on the DES cluster; payloads still
//!   execute, so exchange math is real) and [`local::LocalExecutor`]
//!   (measured durations);
//! * [`executor::Pilot`] — one executor plus its staging area, which is what
//!   a campaign drives;
//! * [`agent::Agent`] — the host threads both backends run payloads on.

pub mod agent;
pub mod description;
pub mod executor;
pub mod local;
pub mod sim;
pub mod staging;

pub use agent::{with_scratch, Agent, Permits};
pub use description::{DurationSpec, UnitDescription};
pub use executor::{drain, CompletedUnit, Executor, Pilot, TaskWork, UnitId};
pub use local::LocalExecutor;
pub use sim::SimExecutor;
pub use staging::StagingArea;
