//! The durable campaign spool: one directory per campaign under the spool
//! root, holding the job's control record, checkpoint directory, live
//! telemetry stream and final artifacts. Control records
//! are written with the same atomic tmp+rename discipline as
//! `repex::checkpoint`, so a crash never leaves a half-written record and
//! a restarted service reconstructs its queue by scanning the spool.
//!
//! ```text
//! spool/
//!   <campaign-id>/
//!     job.json        control record (atomic rewrite on every transition)
//!     checkpoint/     repex::checkpoint directory (slices + cancellation)
//!     snap.jsonl      live telemetry stream (repex watch tails it; its
//!                     last snapshot is the campaign's part of /metrics)
//!     trace.json      Chrome trace of the whole campaign (written at end)
//!     report.json     canonical report document (written when done)
//! ```

use obs::json::{self, Encode};
use obs::{json_enum, json_struct};
use repex::config::SimulationConfig;
use std::path::{Path, PathBuf};

/// Lifecycle of a campaign job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for cores (or re-queued between slices / after a
    /// service restart).
    Queued,
    /// Currently holding cores and running a slice.
    Running,
    /// All cycles completed; `report.json` is final.
    Done,
    /// Cancelled by the user; the final checkpoint is retained.
    Cancelled,
    /// The run errored; the message is in [`JobRecord::error`].
    Failed,
}

impl JobState {
    /// True for states a job never leaves.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled | JobState::Failed)
    }
}

json_enum!(JobState {
    Queued: "queued",
    Running: "running",
    Done: "done",
    Cancelled: "cancelled",
    Failed: "failed",
});

/// The durable control record of one campaign job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Campaign id: validated by `obs::validate_campaign_id` at admission,
    /// doubles as the spool directory name and the Prometheus `campaign`
    /// label.
    pub campaign: String,
    /// Tenant this job's usage is charged to.
    pub tenant: String,
    /// Fair-share weight of the tenant as submitted with this job.
    pub weight: f64,
    /// Higher runs first among equally-charged tenants (FIFO within a
    /// priority).
    pub priority: u8,
    /// Admission order — the FIFO tie-break and resume ordering.
    pub seq: u64,
    /// Pilot cores this campaign holds while running.
    pub cores: usize,
    /// Predicted cost (core·seconds, `lint::plan::predicted_core_seconds`)
    /// charged to the tenant up front at admission and credited back at
    /// the terminal state. Defaults to 0 for records written before the
    /// planner existed.
    pub predicted_core_seconds: f64,
    pub state: JobState,
    /// Error message (only for [`JobState::Failed`]).
    pub error: Option<String>,
    /// The submitted configuration, stored verbatim — the service never
    /// rewrites it, which is what makes results bit-identical to a
    /// standalone run.
    pub config: SimulationConfig,
}

json_struct!(JobRecord {
    campaign: "campaign",
    tenant: "tenant",
    weight: "weight",
    priority: "priority",
    seq: "seq",
    cores: "cores",
    predicted_core_seconds: "predicted-core-seconds" = 0.0,
    state: "state",
    error: "error",
    config: "config",
});

/// One job's paths inside the spool.
#[derive(Debug, Clone)]
pub struct JobDirs {
    pub dir: PathBuf,
}

impl JobDirs {
    pub fn new(spool: &Path, campaign: &str) -> Self {
        JobDirs { dir: spool.join(campaign) }
    }

    pub fn record(&self) -> PathBuf {
        self.dir.join("job.json")
    }

    pub fn checkpoint(&self) -> PathBuf {
        self.dir.join("checkpoint")
    }

    pub fn stream(&self) -> PathBuf {
        self.dir.join("snap.jsonl")
    }

    pub fn trace(&self) -> PathBuf {
        self.dir.join("trace.json")
    }

    pub fn report(&self) -> PathBuf {
        self.dir.join("report.json")
    }
}

/// Durably write `record` (atomic tmp+rename, like `checkpoint.rs`): a
/// reader never observes a partial record, and a crash between tmp-write
/// and rename leaves the previous record intact.
pub fn save_record(dirs: &JobDirs, record: &JobRecord) -> Result<(), String> {
    std::fs::create_dir_all(&dirs.dir)
        .map_err(|e| format!("cannot create {}: {e}", dirs.dir.display()))?;
    // No `error` key unless there is one.
    let body = record.encode().without_nulls().pretty();
    let target = dirs.record();
    let tmp = dirs.dir.join("job.json.tmp");
    std::fs::write(&tmp, body).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &target).map_err(|e| format!("cannot move job record into place: {e}"))
}

/// Load one job's control record.
pub fn load_record(dirs: &JobDirs) -> Result<JobRecord, String> {
    let path = dirs.record();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::from_str(&text).map_err(|e| format!("bad job record {}: {e}", path.display()))
}

/// Scan a spool root: every subdirectory with a parseable `job.json`, in
/// admission (`seq`) order. Directories without a record (or with an
/// unparseable one) are reported, not silently skipped.
pub fn scan_spool(spool: &Path) -> Result<Vec<JobRecord>, String> {
    let mut out = Vec::new();
    if !spool.exists() {
        return Ok(out);
    }
    let entries =
        std::fs::read_dir(spool).map_err(|e| format!("cannot scan {}: {e}", spool.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot scan {}: {e}", spool.display()))?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let dirs = JobDirs { dir: path };
        if !dirs.record().exists() {
            return Err(format!(
                "spool entry {} has no job.json (not a campaign directory?)",
                dirs.dir.display()
            ));
        }
        out.push(load_record(&dirs)?);
    }
    out.sort_by_key(|r| r.seq);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(campaign: &str, seq: u64) -> JobRecord {
        JobRecord {
            campaign: campaign.to_string(),
            tenant: "t".into(),
            weight: 1.0,
            priority: 0,
            seq,
            cores: 4,
            predicted_core_seconds: 0.0,
            state: JobState::Queued,
            error: None,
            config: SimulationConfig::t_remd(4, 600, 2),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repex-svc-queue-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_round_trips_and_leaves_no_tmp() {
        let spool = tmpdir("roundtrip");
        let dirs = JobDirs::new(&spool, "camp-a");
        let mut rec = record("camp-a", 3);
        rec.state = JobState::Running;
        save_record(&dirs, &rec).unwrap();
        assert!(!dirs.dir.join("job.json.tmp").exists(), "tmp file left behind");
        let loaded = load_record(&dirs).unwrap();
        assert_eq!(loaded.campaign, "camp-a");
        assert_eq!(loaded.state, JobState::Running);
        assert_eq!(loaded.seq, 3);
        assert_eq!(loaded.config.title, rec.config.title);
        // States encode kebab-case on the wire; no error, no `error` key.
        let text = std::fs::read_to_string(dirs.record()).unwrap();
        assert!(text.contains("\"running\""), "{text}");
        assert!(text.contains("\"predicted-core-seconds\": 0.0") && !text.contains("\"error\""));
        // A record from before the planner existed has no prediction.
        let old = text.replace("\"predicted-core-seconds\": 0.0,", "");
        assert_ne!(old, text);
        std::fs::write(dirs.record(), old).unwrap();
        assert_eq!(load_record(&dirs).unwrap().predicted_core_seconds, 0.0);
        rec.state = JobState::Failed;
        rec.error = Some("disk full".into());
        save_record(&dirs, &rec).unwrap();
        assert_eq!(load_record(&dirs).unwrap().error.as_deref(), Some("disk full"));
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn scan_orders_by_admission_seq() {
        let spool = tmpdir("scan");
        for (name, seq) in [("b", 2), ("a", 1), ("c", 0)] {
            save_record(&JobDirs::new(&spool, name), &record(name, seq)).unwrap();
        }
        let recs = scan_spool(&spool).unwrap();
        let names: Vec<&str> = recs.iter().map(|r| r.campaign.as_str()).collect();
        assert_eq!(names, vec!["c", "a", "b"]);
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn scan_reports_a_foreign_directory() {
        let spool = tmpdir("foreign");
        std::fs::create_dir_all(spool.join("not-a-job")).unwrap();
        let err = scan_spool(&spool).unwrap_err();
        assert!(err.contains("job.json"), "{err}");
        let _ = std::fs::remove_dir_all(&spool);
    }

    #[test]
    fn missing_spool_scans_empty() {
        let spool = std::env::temp_dir().join("repex-svc-queue-nonexistent");
        let _ = std::fs::remove_dir_all(&spool);
        assert!(scan_spool(&spool).unwrap().is_empty());
    }

    #[test]
    fn terminal_states() {
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert_eq!(JobState::Cancelled.name(), "cancelled");
    }
}
