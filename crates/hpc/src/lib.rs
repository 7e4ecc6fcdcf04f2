//! # hpc — the virtual-cluster substrate
//!
//! A discrete-event model of the HPC resources the paper ran on (Stampede,
//! SuperMIC): core-occupancy timelines, a parallel-filesystem transfer
//! model, failure injection, stress scenarios, and task-duration models
//! calibrated to the paper's measured timings. A pilot's batch-queue wait
//! is not modelled: it is paid once, before the first cycle, and the
//! paper's per-cycle decomposition (Eq. 1) has no term for it.
//!
//! Orchestration behaviour (who waits for whom at barriers, how Execution
//! Mode II batches replicas onto scarce cores) is *computed exactly* by the
//! [`timeline::CoreTimeline`] list scheduler; only task durations come from
//! the calibrated [`perfmodel`] plus lognormal straggler noise.

pub mod cluster;
pub mod events;
pub mod fault;
pub mod perfmodel;
pub mod pool;
pub mod scenario;
pub mod time;
pub mod timeline;

pub use cluster::{ClusterSpec, FilesystemSpec};
pub use events::EventQueue;
pub use fault::{FaultModel, FaultModelError, HazardModel};
pub use perfmodel::{EngineKind, ExchangeKind, PerfModel};
pub use pool::{CorePool, PoolError};
pub use scenario::Scenario;
pub use time::SimTime;
pub use timeline::{CoreTimeline, Slot};
