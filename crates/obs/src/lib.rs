//! Structured tracing and metrics for the RepEx cost model.
//!
//! The paper's evaluation hangs off the per-cycle decomposition
//! `Tc = T_MD + T_EX + T_data + T_RepEx_over + T_RP_over` (Eq. 1) and off
//! per-replica timelines (Figs. 5-13). This crate provides the one source
//! of truth both are derived from: drivers emit typed [`Event`]s into a
//! [`Recorder`], and consumers either aggregate them into per-cycle
//! breakdowns ([`cycle_breakdowns`]) or export them as a Chrome-trace
//! timeline ([`chrome_trace_json`], read back by [`parse_chrome_trace`])
//! and a flat metrics JSON.
//!
//! The recorder is zero-cost when disabled: [`Recorder::disabled`] carries
//! no allocation and every call on it is a no-op, so instrumented hot paths
//! pay only a branch on an `Option`.
//!
//! The crate is intentionally std-only — it sits below every other crate in
//! the workspace and must not drag dependencies into their builds.

pub mod aggregate;
pub mod chrome;
pub mod critical_path;
pub mod diag;
pub mod event;
pub mod health;
pub mod json;
pub mod live;
pub mod metrics;
pub mod recorder;
pub mod stats;
pub mod timeline_stats;

pub use aggregate::{
    average_breakdown, cycle_breakdowns, md_busy_core_seconds, replica_spans, CycleBreakdown,
};
pub use chrome::{chrome_trace_json, parse_chrome_trace};
pub use critical_path::{critical_path, cycle_critical_paths, CriticalPath, CycleCriticalPath};
pub use diag::{Diagnostic, Severity};
pub use event::{Event, OverheadScope};
pub use health::{
    implied_slot_count, live_findings, trace_findings, DimExchangeHealth, ExchangeLedger,
    ACCEPTANCE_BAND,
};
pub use live::{
    merge_snapshots, render_progress_line, validate_campaign_id, CampaignIdError, DimSnapshot,
    EmitStats, HistSummary, LiveBaseline, LiveConfig, LiveState, TelemetrySnapshot,
    CAMPAIGN_ID_MAX_LEN,
};
pub use metrics::{
    campaign_label, prometheus_gauge, prometheus_labels, prometheus_text, sanitize_metric_name,
};
pub use recorder::Recorder;
pub use stats::LogHistogram;
pub use timeline_stats::{timeline_stats, StragglerPolicy, TimelineStats};
