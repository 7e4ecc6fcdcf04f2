//! Durable campaign checkpoints.
//!
//! A [`CampaignCheckpoint`] is everything needed to reconstruct a running
//! campaign after the process dies: the full [`SimulationConfig`], every
//! replica's microstate (serialized through the exact-round-trip restart
//! format in `mdsim::io::restart`, so positions and velocities survive
//! bit-for-bit), the exchange statistics, the virtual clock, the fault
//! counters and the pattern driver's scheduler state. Because every random
//! draw in the framework is a pure function of checkpointable identity
//! (config seed, unit name, `(slot, attempt)`), no RNG state needs to be
//! serialized: a resumed campaign re-derives the identical noise, failure
//! and exchange streams.
//!
//! Checkpoints are written atomically — serialized to `checkpoint.json.tmp`
//! in the target directory, then renamed over `checkpoint.json` — so a crash
//! mid-write leaves the previous checkpoint intact. The format is versioned;
//! readers reject versions they do not understand instead of guessing.
//!
//! Consistency contract (documented in DESIGN.md §11): for the synchronous
//! pattern, checkpoints land on cycle barriers and a resumed run is exactly
//! equal to an uninterrupted one. For the asynchronous pattern, in-flight MD
//! segments are recorded as (replica, attempt) plus a pre-segment microstate
//! snapshot and are resubmitted on resume; in-flight *exchange* rounds are
//! dropped, which under the pattern's relaxed consistency is equivalent to
//! an all-rejected round.

use crate::config::{Pattern, SimulationConfig};
use crate::emm::DriverCtx;
use crate::replica::lock_system;
use crate::report::CycleReport;
use exchange::stats::AcceptanceStats;
use mdsim::io::restart::write_restart_with_cycle;
use obs::health::RoundTripTracker;
use obs::json::{self, Decode, Encode, Value, Variant};
use obs::{json_struct, obj};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Format version written by this build; `load` rejects anything else.
pub const CHECKPOINT_VERSION: u32 = 1;

/// File name inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "checkpoint.json";

/// Where and how often a campaign writes checkpoints.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Directory the checkpoint file lives in (created on first save).
    pub dir: PathBuf,
    /// Write every N completed cycles (sync) or exchange rounds (async).
    /// Failures also trigger a write regardless of the interval.
    pub every: u64,
}

impl CheckpointPolicy {
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointPolicy { dir: dir.into(), every: every.max(1) }
    }

    /// Whether a checkpoint is due after `done` completed cycles/rounds.
    pub fn due(&self, done: u64) -> bool {
        done > 0 && done.is_multiple_of(self.every)
    }
}

/// One replica's durable state.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaCheckpoint {
    pub id: usize,
    /// Slot (parameter rung) the replica currently occupies.
    pub slot: usize,
    /// Failures charged against the replica so far.
    pub failures: u32,
    /// Whether a continue-policy run marked it stale.
    pub stale: bool,
    /// Full microstate in restart-file text; the header's cycle field
    /// carries `segments_done`.
    pub restart: String,
}

json_struct!(ReplicaCheckpoint {
    id: "id",
    slot: "slot",
    failures: "failures",
    stale: "stale",
    restart: "restart",
});

/// Async scheduler state: enough to restart the event loop mid-campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AsyncSchedulerState {
    /// Virtual time of the next exchange-criterion tick.
    pub next_tick: f64,
    /// Exchange rounds already flushed.
    pub exchange_rounds: u64,
    /// Replicas that finished a segment and are waiting for the criterion.
    pub ready: Vec<usize>,
    /// In-flight MD work at checkpoint time as (replica, attempt); resume
    /// resubmits each from its pre-segment snapshot at the replica's
    /// current slot.
    pub in_flight: Vec<(usize, u32)>,
    /// Per-replica monotonic retry counters (replica, next attempt) so a
    /// resumed retry perturbs its seed exactly as the interrupted run
    /// would have.
    pub retry: Vec<(usize, u32)>,
}

json_struct!(AsyncSchedulerState {
    next_tick: "next-tick",
    exchange_rounds: "exchange-rounds",
    ready: "ready",
    in_flight: "in-flight",
    retry: "retry",
});

/// Which pattern driver wrote the checkpoint, plus its loop position.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerState {
    Sync {
        /// Cycles fully completed (the resume loop starts here).
        cycles_done: u64,
    },
    Async(AsyncSchedulerState),
}

/// `{"sync": {"cycles_done": 2}}` or `{"async": {..}}`: the variant in
/// kebab-case, `cycles_done` under its own name.
impl Encode for SchedulerState {
    fn encode(&self) -> Value {
        match self {
            SchedulerState::Sync { cycles_done } => {
                Variant::encode(None, "sync", vec![("cycles_done", cycles_done.encode())])
            }
            SchedulerState::Async(state) => obj! { "async" => state },
        }
    }
}

impl Decode for SchedulerState {
    fn decode(v: &Value) -> Result<Self, json::Error> {
        let variant = Variant::of(v, None)?;
        match variant.name {
            "sync" => Ok(SchedulerState::Sync { cycles_done: variant.field("cycles_done")? }),
            "async" => AsyncSchedulerState::decode(variant.body)
                .map(SchedulerState::Async)
                .map_err(|e| e.under("async")),
            _ => Err(variant.unknown(&["sync", "async"])),
        }
    }
}

/// A complete, versioned snapshot of a running campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    pub version: u32,
    pub config: SimulationConfig,
    /// Virtual clock at checkpoint time; resume fast-forwards to it.
    pub clock_seconds: f64,
    /// MD busy core-seconds accumulated so far (utilization, Eq. 4).
    pub md_core_seconds: f64,
    pub failed_tasks: u64,
    pub relaunched_tasks: u64,
    /// slot index -> replica id.
    pub slot_owner: Vec<usize>,
    /// Per-dimension acceptance statistics.
    pub acceptance: Vec<AcceptanceStats>,
    /// Per-neighbour-pair acceptance (1-D ladders).
    pub pair_acceptance: Vec<AcceptanceStats>,
    pub round_trips: Option<RoundTripTracker>,
    /// `rung_history[replica][cycle]` (1-D ladders).
    pub rung_history: Vec<Vec<usize>>,
    /// Per-slot (phi, psi) samples, sorted by slot for a stable encoding.
    pub window_samples: Vec<(usize, Vec<(f64, f64)>)>,
    /// Cycle reports from the interrupted leg (the resumed run prepends
    /// them so the final report covers the whole campaign).
    pub cycle_reports: Vec<CycleReport>,
    pub replicas: Vec<ReplicaCheckpoint>,
    pub scheduler: SchedulerState,
    /// Sequence number of the last telemetry snapshot emitted before this
    /// checkpoint, so a resumed leg continues the snapshot stream with
    /// strictly increasing seqs. Defaults to 0 when reading checkpoints
    /// written before the live telemetry plane existed (same version).
    pub telemetry_seq: u64,
}

json_struct!(CampaignCheckpoint {
    version: "version",
    config: "config",
    clock_seconds: "clock-seconds",
    md_core_seconds: "md-core-seconds",
    failed_tasks: "failed-tasks",
    relaunched_tasks: "relaunched-tasks",
    slot_owner: "slot-owner",
    acceptance: "acceptance",
    pair_acceptance: "pair-acceptance",
    round_trips: "round-trips",
    rung_history: "rung-history",
    window_samples: "window-samples",
    cycle_reports: "cycle-reports",
    replicas: "replicas",
    scheduler: "scheduler",
    telemetry_seq: "telemetry-seq" = 0,
});

impl CampaignCheckpoint {
    /// Snapshot a live campaign. For replicas with an in-flight segment the
    /// async driver stashes the pre-segment microstate in
    /// `ctx.preseg_snapshots`; everyone else serializes their current one.
    pub fn capture(
        ctx: &DriverCtx,
        scheduler: SchedulerState,
        cycle_reports: &[CycleReport],
    ) -> CampaignCheckpoint {
        let replicas = ctx
            .replicas
            .iter()
            .map(|r| {
                let title = format!("replica {}", r.id);
                let restart = match ctx.preseg_snapshots.get(&r.id) {
                    Some((state, cycle)) => write_restart_with_cycle(&title, state, *cycle),
                    None => {
                        let sys = lock_system(&r.system);
                        write_restart_with_cycle(&title, &sys.state, r.segments_done)
                    }
                };
                ReplicaCheckpoint {
                    id: r.id,
                    slot: ctx.ledger.slot_of()[r.id],
                    failures: r.failures,
                    stale: r.stale,
                    restart,
                }
            })
            .collect();
        let mut window_samples: Vec<(usize, Vec<(f64, f64)>)> =
            ctx.window_samples.iter().map(|(&slot, v)| (slot, v.clone())).collect();
        window_samples.sort_by_key(|&(slot, _)| slot);
        CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            config: ctx.cfg.clone(),
            clock_seconds: ctx.pilot.executor.now().as_secs(),
            md_core_seconds: ctx.md_core_seconds,
            failed_tasks: ctx.failed_tasks,
            relaunched_tasks: ctx.relaunched_tasks,
            slot_owner: ctx.ledger.owner().to_vec(),
            acceptance: ctx.ledger.dims().iter().map(AcceptanceStats::from).collect(),
            pair_acceptance: ctx.pair_acceptance.clone(),
            round_trips: ctx.ledger.round_trips().cloned(),
            rung_history: ctx.rung_history.clone(),
            window_samples,
            cycle_reports: cycle_reports.to_vec(),
            replicas,
            scheduler,
            telemetry_seq: ctx.telemetry_seq,
        }
    }

    /// Write atomically into `dir` (serialize to a sibling temp file, then
    /// rename over the real one).
    pub fn save(&self, dir: &Path) -> Result<(), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("checkpoint: cannot create {}: {e}", dir.display()))?;
        let text = self.encode().compact();
        let tmp = dir.join(format!("{CHECKPOINT_FILE}.tmp"));
        let fin = dir.join(CHECKPOINT_FILE);
        std::fs::write(&tmp, text)
            .map_err(|e| format!("checkpoint: cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &fin)
            .map_err(|e| format!("checkpoint: cannot rename into {}: {e}", fin.display()))?;
        Ok(())
    }

    /// Read and version-check the checkpoint in `dir`.
    pub fn load(dir: &Path) -> Result<CampaignCheckpoint, String> {
        let path = dir.join(CHECKPOINT_FILE);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("checkpoint: cannot read {}: {e}", path.display()))?;
        let cp: CampaignCheckpoint =
            json::from_str(&text).map_err(|e| format!("checkpoint decode: {e}"))?;
        if cp.version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {} is not supported (this build reads version {})",
                cp.version, CHECKPOINT_VERSION
            ));
        }
        Ok(cp)
    }

    /// Rebuild a [`DriverCtx`] that continues this campaign: construct a
    /// fresh context from the stored config, then overwrite replica
    /// microstates, statistics, counters and the virtual clock. The exchange
    /// state is checked once, here ([`obs::ExchangeLedger::resume`], then
    /// each replica's `slot`): one that does not fit the grid is refused.
    pub fn restore(self) -> Result<DriverCtx, String> {
        let CampaignCheckpoint {
            version,
            config,
            clock_seconds,
            md_core_seconds,
            failed_tasks,
            relaunched_tasks,
            slot_owner,
            acceptance,
            pair_acceptance,
            round_trips,
            rung_history,
            window_samples,
            cycle_reports,
            replicas,
            scheduler,
            telemetry_seq,
        } = self;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version {version} is not supported (this build reads version {CHECKPOINT_VERSION})"
            ));
        }
        let cfg_async = matches!(config.pattern, Pattern::Asynchronous { .. });
        let cp_async = matches!(scheduler, SchedulerState::Async(_));
        if cfg_async != cp_async {
            return Err(format!(
                "checkpoint scheduler state ({}) does not match the config's pattern ({})",
                if cp_async { "async" } else { "sync" },
                if cfg_async { "async" } else { "sync" },
            ));
        }
        let mut ctx = crate::simulation::build_ctx(config)?;
        if replicas.len() != ctx.replicas.len() {
            let (held, built) = (replicas.len(), ctx.replicas.len());
            return Err(format!("checkpoint holds {held} replicas but the config builds {built}"));
        }
        let counts: Vec<_> = acceptance.iter().map(|a| (a.attempts, a.accepted)).collect();
        ctx.ledger
            .resume(&counts, slot_owner, round_trips)
            .map_err(|e| format!("checkpoint {e}"))?;
        for (i, (rc, r)) in replicas.iter().zip(&mut ctx.replicas).enumerate() {
            let ((id, slot), held) = ((rc.id, rc.slot), ctx.ledger.slot_of()[i]);
            if (id, slot) != (i, held) {
                let want = format!("replica {i} in slot {held}, as slot-owner says");
                return Err(format!(
                    "checkpoint replicas[{i}] is replica {id} in slot {slot}, not {want}"
                ));
            }
            let (state, cycle) = mdsim::io::restart::read_restart_with_cycle(&rc.restart)
                .map_err(|e| format!("checkpoint replica {i}: {e}"))?;
            {
                let mut sys = lock_system(&r.system);
                if sys.state.n_atoms() != state.n_atoms() {
                    return Err(format!(
                        "checkpoint replica {} has {} atoms but the config builds {}",
                        rc.id,
                        state.n_atoms(),
                        sys.state.n_atoms()
                    ));
                }
                sys.state = state;
            }
            r.failures = rc.failures;
            r.stale = rc.stale;
            r.segments_done = cycle;
        }
        ctx.pair_acceptance = pair_acceptance;
        ctx.rung_history = rung_history;
        ctx.window_samples = window_samples.into_iter().collect::<HashMap<_, _>>();
        ctx.md_core_seconds = md_core_seconds;
        ctx.failed_tasks = failed_tasks;
        ctx.relaunched_tasks = relaunched_tasks;
        ctx.prior_cycle_reports = cycle_reports;
        ctx.telemetry_seq = telemetry_seq;
        ctx.pilot.executor.fast_forward(clock_seconds);
        match scheduler {
            SchedulerState::Sync { cycles_done } => ctx.completed_cycles = cycles_done,
            SchedulerState::Async(st) => ctx.async_resume = Some(st),
        }
        Ok(ctx)
    }
}

/// Write a checkpoint for `ctx` if a policy is configured. Drivers call this
/// at their consistency points; errors surface as strings so a full disk
/// aborts the run loudly instead of silently dropping durability.
pub(crate) fn write_if_configured(
    ctx: &DriverCtx,
    scheduler: SchedulerState,
    cycle_reports: &[CycleReport],
) -> Result<(), String> {
    let Some(policy) = &ctx.checkpoint else {
        return Ok(());
    };
    let dir = policy.dir.clone();
    CampaignCheckpoint::capture(ctx, scheduler, cycle_reports).save(&dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::build_ctx;

    fn small_cfg() -> SimulationConfig {
        let mut cfg = SimulationConfig::t_remd(4, 100, 2);
        cfg.surrogate_steps = 10;
        cfg
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("repex-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn policy_clamps_interval_and_reports_due() {
        let p = CheckpointPolicy::new("/tmp/x", 0);
        assert_eq!(p.every, 1);
        assert!(!p.due(0));
        assert!(p.due(1));
        let p = CheckpointPolicy::new("/tmp/x", 3);
        assert!(!p.due(2));
        assert!(p.due(3));
        assert!(p.due(6));
    }

    #[test]
    fn capture_save_load_restore_round_trip() {
        let dir = tempdir("roundtrip");
        let mut ctx = build_ctx(small_cfg()).unwrap();
        // Perturb state so the round trip proves something.
        ctx.failed_tasks = 3;
        ctx.relaunched_tasks = 2;
        ctx.md_core_seconds = 123.5;
        ctx.ledger.outcome(0, 0, 1, true);
        ctx.ledger.outcome(0, 2, 3, false);
        ctx.ledger.window('T', 0, 4);
        ctx.replicas[2].failures = 4;
        ctx.replicas[3].stale = true;
        ctx.replicas[3].segments_done = 7;
        ctx.telemetry_seq = 9;
        ctx.record_samples_at(1, 0, &[(0.25, -0.5)]);
        {
            let mut sys = lock_system(&ctx.replicas[2].system);
            sys.state.positions[0] = mdsim::Vec3::new(0.1 + 0.2, -7.25, 1e-9);
            sys.state.step = 4242;
        }
        ctx.pilot.executor.charge_overhead(55.0);

        let cp = CampaignCheckpoint::capture(&ctx, SchedulerState::Sync { cycles_done: 5 }, &[]);
        cp.save(&dir).unwrap();
        assert!(!dir.join(format!("{CHECKPOINT_FILE}.tmp")).exists(), "tmp renamed away");

        let back = CampaignCheckpoint::load(&dir).unwrap().restore().unwrap();
        assert_eq!(back.failed_tasks, 3);
        assert_eq!(back.relaunched_tasks, 2);
        assert_eq!(back.md_core_seconds, 123.5);
        assert_eq!(back.ledger, ctx.ledger, "acceptance, the walk and the tracker");
        assert_eq!(back.ledger.slot_of()[0], 1);
        assert_eq!((back.ledger.dims()[0].attempts, back.ledger.dims()[0].accepted), (2, 1));
        assert_eq!(back.replicas[2].failures, 4);
        assert!(back.replicas[3].stale);
        assert_eq!(back.replicas[3].segments_done, 7);
        assert_eq!(back.window_samples.get(&1).map(Vec::len), Some(1));
        assert_eq!(back.completed_cycles, 5);
        assert_eq!(back.telemetry_seq, 9, "snapshot cursor survives resume");
        // Microstate round-trips bit-exactly, clock fast-forwards.
        let sys = lock_system(&back.replicas[2].system);
        assert_eq!(sys.state.positions[0].x, 0.1 + 0.2);
        assert_eq!(sys.state.step, 4242);
        drop(sys);
        assert_eq!(back.pilot.executor.now().as_secs(), 55.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Version-1 checkpoints written before `RoundTripTracker` dropped its
    /// n × n visit matrix carry a `visits` array inside `round-trips`; they
    /// keep loading (unknown fields are ignored), and new ones omit it.
    #[test]
    fn old_checkpoint_with_a_visits_matrix_still_loads() {
        let dir = tempdir("visits");
        let mut ctx = build_ctx(small_cfg()).unwrap();
        let mut tracker = RoundTripTracker::new(4, 4);
        for rung in [0, 3, 0] {
            tracker.record(2, rung);
        }
        ctx.ledger.resume(&[(0, 0)], (0..4).collect(), Some(tracker)).unwrap();
        CampaignCheckpoint::capture(&ctx, SchedulerState::Sync { cycles_done: 1 }, &[])
            .save(&dir)
            .unwrap();
        let path = dir.join(CHECKPOINT_FILE);
        let new = std::fs::read_to_string(&path).unwrap();
        assert!(!new.contains("visits"), "a new checkpoint carries no visit matrix");
        let old = new.replacen(
            r#""round-trips":{"#,
            r#""round-trips":{"visits":[[1,0,0,0],[0,1,0,0],[2,0,0,1],[0,0,0,1]],"#,
            1,
        );
        assert_ne!(old, new, "the tracker object was found");
        std::fs::write(&path, old).unwrap();
        let back = CampaignCheckpoint::load(&dir).unwrap().restore().unwrap();
        let tracker = back.ledger.round_trips().unwrap();
        assert_eq!(tracker.total_round_trips(), 1);
        assert_eq!(back.completed_cycles, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_checkpoint_resume_completes_the_campaign() {
        use crate::emm::asynchronous::run_async;
        let dir = tempdir("async-resume");
        let mut cfg = SimulationConfig::t_remd(8, 600, 4);
        cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        cfg.surrogate_steps = 10;
        let mut ctx = build_ctx(cfg).unwrap();
        ctx.checkpoint = Some(CheckpointPolicy::new(&dir, 1));
        ctx.cycle_limit = Some(2);
        let out1 = run_async(&mut ctx).unwrap();
        assert_eq!(out1.exchange_rounds, 2, "stopped at the round limit");
        assert!(
            ctx.replicas.iter().any(|r| r.segments_done < 4),
            "interruption left the campaign incomplete"
        );
        let mut resumed = CampaignCheckpoint::load(&dir).unwrap().restore().unwrap();
        resumed.checkpoint = Some(CheckpointPolicy::new(&dir, 1));
        let out2 = run_async(&mut resumed).unwrap();
        for r in &resumed.replicas {
            assert_eq!(r.segments_done, 4, "replica {} incomplete after resume", r.id);
        }
        assert!(out2.exchange_rounds >= out1.exchange_rounds);
        assert!(out2.makespan > out1.makespan, "the clock resumes where it stopped");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_version_is_rejected() {
        let dir = tempdir("version");
        let mut ctx = build_ctx(small_cfg()).unwrap();
        ctx.failed_tasks = 0;
        let mut cp =
            CampaignCheckpoint::capture(&ctx, SchedulerState::Sync { cycles_done: 0 }, &[]);
        cp.version = 99;
        cp.save(&dir).unwrap();
        let err = CampaignCheckpoint::load(&dir).unwrap_err();
        assert!(err.contains("version 99"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scheduler_pattern_mismatch_is_rejected() {
        let ctx = build_ctx(small_cfg()).unwrap();
        let cp = CampaignCheckpoint::capture(
            &ctx,
            SchedulerState::Async(AsyncSchedulerState::default()),
            &[],
        );
        // Config is synchronous; an async scheduler record cannot resume it.
        let err = cp.restore().err().expect("restore must refuse");
        assert!(err.contains("does not match"), "{err}");
    }

    /// A checkpoint whose exchange state the config's grid cannot hold is
    /// refused, naming the field at fault, before anything runs.
    #[test]
    fn inconsistent_checkpoints_are_refused_by_name() {
        let mut ctx = build_ctx(small_cfg()).unwrap();
        ctx.ledger.outcome(0, 0, 1, true);
        ctx.ledger.window('T', 0, 4);
        let clean = CampaignCheckpoint::capture(&ctx, SchedulerState::Sync { cycles_done: 1 }, &[]);
        assert_eq!(
            (clean.slot_owner.as_slice(), clean.replicas[0].slot),
            ([1, 0, 2, 3].as_slice(), 1)
        );
        assert!(clean.clone().restore().is_ok());
        type Mutation = fn(&mut CampaignCheckpoint);
        let cases: [(Mutation, &str); 7] = [
            (|cp| cp.replicas.truncate(3), "checkpoint holds 3 replicas but the config builds 4"),
            (|cp| cp.slot_owner.truncate(3), "slot-owner has 3 slots but the grid has 4"),
            (|cp| cp.slot_owner[0] = 99, "slot-owner[0] = 99 is not a replica of 0..4"),
            (
                |cp| cp.slot_owner[0] = cp.slot_owner[1],
                "slot-owner puts replica 0 in slots 0 and 1",
            ),
            (
                |cp| cp.replicas[0].slot = 0,
                "replicas[0] is replica 0 in slot 0, not replica 0 in slot 1, as slot-owner says",
            ),
            (|cp| cp.acceptance.clear(), "acceptance has 0 rows for 1 dimensions"),
            (
                |cp| cp.round_trips = Some(RoundTripTracker::new(3, 4)),
                "round-trips must track 4 replicas on 4 rungs",
            ),
        ];
        for (mutate, why) in cases {
            let mut cp = clean.clone();
            mutate(&mut cp);
            let err = cp.restore().err().expect("restore must refuse");
            assert!(err.starts_with("checkpoint ") && err.contains(why), "{why}: {err}");
        }
    }
}
