//! # svc — RepEx as a service
//!
//! A long-running multi-tenant campaign service: many REMD campaigns
//! multiplexed over **one** shared virtual cluster, the paper's pilot-job
//! decoupling pushed to its production conclusion. Four layers:
//!
//! * [`http`] — a deliberately tiny dependency-free HTTP/1.1 server and
//!   client over `std::net`, enough for a JSON control plane;
//! * [`queue`] — the durable spool: one directory per campaign, control
//!   records written with the same atomic tmp+rename discipline as
//!   `repex::checkpoint`, so a restarted service reconstructs its queue
//!   by scanning the spool;
//! * [`sched`] — weighted fair-share planning over an [`hpc::CorePool`]:
//!   tenants are charged normalized core-seconds, the least-charged tenant
//!   is served first, and head-of-line blocking keeps wide campaigns from
//!   starving;
//! * [`service`] — the orchestrator: lint-gated admission with typed
//!   `S0xx` diagnostics, sliced resumable runs (each slice checkpoints,
//!   releases its cores and re-queues), per-campaign cancellation that
//!   forces a final checkpoint, and the REST/JSON API
//!   (`POST /campaigns`, `GET /campaigns/:id`, `DELETE /campaigns/:id`,
//!   `GET /campaigns/:id/results`, `GET /metrics`).
//!
//! Campaign results are *bit-identical* to standalone `repex run` output:
//! the service never touches a campaign's configuration, all RNG in the
//! core is a pure function of checkpointable identity, and telemetry,
//! checkpointing and recording are side-effect-free on the virtual
//! execution (proven end to end in `tests/it_service.rs`).

pub mod http;
pub mod queue;
pub mod sched;
pub mod service;

pub use queue::{JobRecord, JobState};
pub use sched::{Candidate, FairShare};
pub use service::{CampaignService, ServiceConfig};
