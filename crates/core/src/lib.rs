//! # repex — a flexible framework for scalable replica-exchange MD
//!
//! A Rust reproduction of the RepEx framework (Treikalis et al., ICPP 2016):
//! replica-exchange molecular dynamics decoupled from the MD engine and from
//! resource management.
//!
//! The three module families mirror the paper's architecture:
//!
//! * **EMM** ([`emm`]) — execution management: the synchronous and
//!   asynchronous RE patterns over Execution Modes I/II, driving a pilot-job
//!   runtime;
//! * **AMM** ([`amm`]) — application management: per-engine (Amber, NAMD)
//!   input-file preparation and task construction;
//! * **RAM** ([`ram`]) — remote application modules: the exchange
//!   calculators that run as compute units.
//!
//! ## Quick start
//!
//! ```
//! use repex::config::SimulationConfig;
//! use repex::simulation::RemdSimulation;
//!
//! let mut cfg = SimulationConfig::t_remd(8, 600, 2);
//! cfg.surrogate_steps = 10; // integrate 10 real steps per segment
//! let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
//! assert_eq!(report.cycles.len(), 2);
//! println!("{}", report.summary());
//! ```

pub mod amm;
pub mod capabilities;
pub mod checkpoint;
pub mod config;
pub mod emm;
pub mod ram;
pub mod replica;
pub mod report;
pub mod simulation;
pub mod task;
pub mod timing;

pub use config::{
    cluster_preset, DimensionConfig, EngineChoice, FaultPolicy, Pattern, ResourceConfig,
    SimulationConfig, Workload,
};
pub use report::{CycleReport, SimulationReport};
pub use simulation::RemdSimulation;
pub use timing::{
    average_cycles, strong_efficiency, utilization_percent, weak_efficiency, CycleTiming,
};
