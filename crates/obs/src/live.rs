//! The live telemetry plane: a bounded snapshot bus layered on the
//! [`Recorder`](crate::Recorder).
//!
//! Post-hoc analysis (`repex analyze`) re-reads a finished trace; a
//! multi-day campaign needs the same health signals *while it runs*. This
//! module folds the recorder's event stream incrementally into a
//! [`LiveState`] — cumulative and windowed counters, windowed
//! [`LogHistogram`] percentiles, and an [`ExchangeLedger`] for acceptance
//! and round trips — and periodically emits a
//! campaign-labeled [`TelemetrySnapshot`]. A snapshot goes through
//! [`crate::json`] both ways — one compact JSONL line each (a tailer —
//! `repex watch` — never sees a torn record because the sink appends each
//! line with a single write) that decodes back into the same value — and
//! renders as Prometheus text exposition ([`crate::metrics`]), alone or
//! beside other campaigns'.
//! Every snapshot carries the W2xx findings of
//! [`crate::health::live_findings`], the live half of the run-health
//! catalog (W201 ↔ A101, W202 ↔ A104, W203 ↔ L401).
//!
//! Consistency contract: the fold uses the *same* accumulation code as the
//! post-hoc aggregators — per-cycle Tc via the [`CycleBreakdown`] match
//! arms, acceptance, the slot walk and round trips via the
//! [`ExchangeLedger`] that `repex analyze` folds a trace into, seeded with
//! a clone of the driver's own ledger ([`LiveBaseline::ledger`]) — so the
//! merged snapshot stream reproduces the end-of-run report (asserted to
//! 1e-9, and exactly for integer counters, in `tests/it_telemetry.rs`).
//!
//! Window semantics: `window_*` fields cover events folded since the
//! previous emitted snapshot; cumulative twins cover the whole campaign
//! (seeded from a [`LiveBaseline`] on `--resume`, so windows telescope:
//! summing every deduplicated snapshot's window equals the last snapshot's
//! cumulative value): a window count is the cumulative one less its value
//! at the previous emission. `seq` increments once per emission and survives
//! resume through the checkpoint's telemetry cursor; a tailer merging a
//! stream that spans a kill keeps the *last* record per `seq`.

use crate::diag::Diagnostic;
use crate::event::Event;
use crate::health::{live_findings, DimExchangeHealth, ExchangeLedger, RoundTripTracker};
use crate::json::{self, Decode, Encode, Value};
use crate::stats::LogHistogram;
use crate::timeline_stats::{timeline_stats, StragglerPolicy};
use crate::{json_fields, json_struct, CycleBreakdown};
use std::collections::BTreeMap;

/// How the live fold is configured when the plane is enabled.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Campaign label baked into every snapshot and Prometheus sample — the
    /// multi-tenant namespacing seed.
    pub campaign: String,
    /// Number of ladder slots (0 disables the slot walk / round trips). With
    /// the next two, the shape of a fresh ledger when the baseline has none.
    pub n_slots: usize,
    /// Ladder length of the single dimension; round trips are counted only
    /// when `>= 2` and the layout is 1-D (`n_slots == ladder_len`).
    pub ladder_len: usize,
    /// Dimension kind letters in dimension order (so snapshots carry every
    /// configured dimension even before its first exchange outcome).
    pub dim_kinds: Vec<char>,
    /// The run's state when the fold starts.
    pub baseline: LiveBaseline,
}

/// The run's state when the fold starts: the driver's exchange ledger, and
/// on a resume the cumulative counters restored from the checkpoint, so a
/// resumed leg's cumulative fields continue where the interrupted leg
/// stopped.
#[derive(Debug, Clone, Default)]
pub struct LiveBaseline {
    /// Snapshot cursor: the last `seq` emitted before the interruption.
    pub seq: u64,
    /// Work units completed at resume (cycles for sync, ok segments for
    /// async) — the ETA rate estimator's origin.
    pub completed: u64,
    /// Virtual clock at resume.
    pub sim_time: f64,
    pub failed_tasks: u64,
    pub relaunched_tasks: u64,
    /// Successful MD segments completed before the resume.
    pub md_segments: u64,
    /// A clone of the driver's exchange ledger (acceptance, the walk, round
    /// trips) to fold on from; `None` starts a fresh one for the config.
    pub ledger: Option<ExchangeLedger>,
}

/// Driver-supplied facts at emission time (the counters the drivers own
/// directly rather than deriving from events — e.g. failed *exchange* units
/// leave no event, so `failed_tasks` cannot be replayed from the stream).
#[derive(Debug, Clone, Copy)]
pub struct EmitStats {
    /// Work units completed so far (cycles for sync, ok segments for async).
    pub completed: u64,
    /// Total work units in the campaign (denominator of the ETA).
    pub total: u64,
    /// Virtual clock seconds at emission.
    pub time: f64,
    pub failed_tasks: u64,
    pub relaunched_tasks: u64,
    /// Final snapshot of the campaign (tailers stop here).
    pub done: bool,
}

/// Summary of a [`LogHistogram`] at snapshot time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    pub count: u64,
    pub sum: f64,
    pub mean: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
}

impl HistSummary {
    pub fn of(h: &LogHistogram) -> Self {
        HistSummary {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            min: h.min(),
            max: h.max(),
            p50: h.p50(),
            p90: h.p90(),
            p99: h.p99(),
        }
    }
}

json_struct!(HistSummary {
    count: "count",
    sum: "sum",
    mean: "mean",
    min: "min",
    max: "max",
    p50: "p50",
    p90: "p90",
    p99: "p99",
});

/// Per-dimension exchange acceptance, cumulative and windowed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DimSnapshot {
    pub dim: usize,
    pub kind: char,
    pub attempts: u64,
    pub accepted: u64,
    pub window_attempts: u64,
    pub window_accepted: u64,
}

impl DimSnapshot {
    /// The cumulative counters as the acceptance row `repex analyze`
    /// derives from a trace.
    pub fn health(&self) -> DimExchangeHealth {
        let (dim, kind, attempts, accepted) = (self.dim, self.kind, self.attempts, self.accepted);
        DimExchangeHealth { dim, kind, attempts, accepted }
    }

    /// Cumulative acceptance ratio (0 when no attempts — never NaN).
    pub fn ratio(&self) -> f64 {
        self.health().ratio()
    }
}

/// The derived `ratio` is written after the counters and ignored on read.
impl Encode for DimSnapshot {
    fn encode(&self) -> Value {
        json_fields!(self; dim, kind, attempts, accepted, window_attempts, window_accepted)
            .with("ratio", self.ratio())
    }
}

impl Decode for DimSnapshot {
    fn decode(v: &Value) -> Result<Self, json::Error> {
        Ok(DimSnapshot {
            dim: v.field("dim", None)?,
            kind: v.field("kind", None)?,
            attempts: v.field("attempts", None)?,
            accepted: v.field("accepted", None)?,
            window_attempts: v.field("window_attempts", None)?,
            window_accepted: v.field("window_accepted", None)?,
        })
    }
}

/// One emission of the snapshot bus: everything a tailer needs to render a
/// health line, plus the cumulative truth the consistency proof folds over.
/// Its JSON object, written compact, is one line of a `--metrics-stream`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Monotonic emission counter; survives resume (checkpoint cursor).
    pub seq: u64,
    pub campaign: String,
    /// Virtual clock seconds at emission.
    pub time: f64,
    /// Work units completed / total (cycles for sync, segments for async).
    pub completed: u64,
    pub total: u64,
    /// Seconds to the projected makespan (0 when the rate is unknown).
    pub eta_seconds: f64,
    /// Final snapshot of the campaign.
    pub done: bool,
    /// Pilot-level unit counters at emission time.
    pub units_submitted: u64,
    pub units_completed: u64,
    pub failed_tasks: u64,
    pub window_failed: u64,
    pub relaunched_tasks: u64,
    pub window_relaunched: u64,
    /// Successful MD segments.
    pub md_segments: u64,
    pub window_md_segments: u64,
    pub round_trips: u64,
    pub window_round_trips: u64,
    /// Straggler flags this leg (per-window timeline stats, accumulated).
    pub stragglers: u64,
    pub window_stragglers: u64,
    pub dims: Vec<DimSnapshot>,
    /// Per-cycle Tc histogram over this leg (sync only; empty for async).
    pub tc: HistSummary,
    pub window_tc: HistSummary,
    /// MD segment durations in this window (ok and failed attempts).
    pub window_seg: HistSummary,
    pub findings: Vec<Diagnostic>,
}

json_struct!(TelemetrySnapshot {
    seq: "seq",
    campaign: "campaign",
    time: "time",
    completed: "completed",
    total: "total",
    eta_seconds: "eta_seconds",
    done: "done",
    units_submitted: "units_submitted",
    units_completed: "units_completed",
    failed_tasks: "failed_tasks",
    window_failed: "window_failed",
    relaunched_tasks: "relaunched_tasks",
    window_relaunched: "window_relaunched",
    md_segments: "md_segments",
    window_md_segments: "window_md_segments",
    round_trips: "round_trips",
    window_round_trips: "window_round_trips",
    stragglers: "stragglers",
    window_stragglers: "window_stragglers",
    dims: "dims",
    tc: "tc",
    window_tc: "window_tc",
    window_seg: "window_seg",
    findings: "findings",
});

/// Render the snapshot as the classic `--progress` run-health line. The
/// format (and every number in it) matches the line the sync driver used to
/// compute from its ad-hoc in-driver accounting — the snapshot bus is now
/// the single source of truth, and `tests/it_telemetry.rs` proves the
/// equivalence against an independent replay of the old algorithm.
pub fn render_progress_line(s: &TelemetrySnapshot) -> String {
    let mut acc = String::new();
    for d in &s.dims {
        acc.push_str(&format!(" acc[{}] {:.2}", d.kind, d.ratio()));
    }
    format!(
        "[repex] cycle {}/{}  Tc p50 {:.2}s p99 {:.2}s {} stragglers {}",
        s.completed, s.total, s.tc.p50, s.tc.p99, acc, s.stragglers
    )
}

/// Maximum length accepted by [`validate_campaign_id`].
pub const CAMPAIGN_ID_MAX_LEN: usize = 64;

/// Why [`validate_campaign_id`] rejected an id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignIdError {
    /// The id is the empty string.
    Empty,
    /// The id exceeds [`CAMPAIGN_ID_MAX_LEN`] characters.
    TooLong { len: usize },
    /// The first character is not ASCII alphanumeric.
    BadStart { ch: char },
    /// A character outside `[A-Za-z0-9._-]` appears at `index`.
    BadChar { ch: char, index: usize },
}

impl std::fmt::Display for CampaignIdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignIdError::Empty => write!(f, "campaign id is empty"),
            CampaignIdError::TooLong { len } => write!(
                f,
                "campaign id is {len} characters, longer than the {CAMPAIGN_ID_MAX_LEN}-character cap"
            ),
            CampaignIdError::BadStart { ch } => write!(
                f,
                "campaign id must start with an ASCII letter or digit, not {ch:?}"
            ),
            CampaignIdError::BadChar { ch, index } => write!(
                f,
                "campaign id contains {ch:?} at position {index}; allowed characters are [A-Za-z0-9._-]"
            ),
        }
    }
}

/// Validate a campaign id: 1..=64 characters of `[A-Za-z0-9._-]`, starting
/// with an ASCII alphanumeric. These are exactly the ids for which
/// [`campaign_label`](crate::campaign_label) is the identity, so a valid id renders unescaped in
/// Prometheus label values, survives a JSONL round trip unchanged, and is
/// safe as a spool/checkpoint directory name. The campaign service and the
/// exporter share this one gate instead of each sanitizing its own way.
pub fn validate_campaign_id(id: &str) -> Result<(), CampaignIdError> {
    let mut chars = id.chars();
    let Some(first) = chars.next() else {
        return Err(CampaignIdError::Empty);
    };
    let len = id.chars().count();
    if len > CAMPAIGN_ID_MAX_LEN {
        return Err(CampaignIdError::TooLong { len });
    }
    if !first.is_ascii_alphanumeric() {
        return Err(CampaignIdError::BadStart { ch: first });
    }
    for (index, ch) in id.chars().enumerate().skip(1) {
        if !(ch.is_ascii_alphanumeric() || matches!(ch, '.' | '_' | '-')) {
            return Err(CampaignIdError::BadChar { ch, index });
        }
    }
    Ok(())
}

/// Deduplicate and order a parsed snapshot stream: one record per `seq`,
/// keeping the *last* occurrence in file order (a resumed leg re-emits any
/// seq the killed leg wrote past its checkpoint; the later record wins),
/// sorted by `seq` ascending.
pub fn merge_snapshots(snapshots: Vec<TelemetrySnapshot>) -> Vec<TelemetrySnapshot> {
    let mut by_seq: BTreeMap<u64, TelemetrySnapshot> = BTreeMap::new();
    for s in snapshots {
        by_seq.insert(s.seq, s);
    }
    by_seq.into_values().collect()
}

/// The fold: events stream in through [`LiveState::fold`], snapshots come
/// out of [`LiveState::emit`]. Memory is bounded — the only event buffer is
/// the current window (cleared at each emission), and the pending per-cycle
/// breakdown map is drained at each emission too.
#[derive(Debug)]
pub struct LiveState {
    cfg: LiveConfig,
    seq: u64,
    ledger: ExchangeLedger,
    md_ok: u64,
    // The cumulative counts at the previous emission: a window is the
    // difference.
    dims_at_emit: Vec<DimExchangeHealth>,
    round_trips_at_emit: u64,
    md_ok_at_emit: u64,
    // Per-cycle Tc accumulation (sync; async cycles never see an MdPhase
    // and are discarded at emit).
    pending: BTreeMap<u64, (CycleBreakdown, bool)>,
    leg_tc: LogHistogram,
    win_tc: LogHistogram,
    win_seg: LogHistogram,
    window_events: Vec<Event>,
    stragglers: u64,
    idle_windows: u32,
    last_failed: u64,
    last_relaunched: u64,
}

impl LiveState {
    pub fn new(mut cfg: LiveConfig) -> Self {
        let ledger =
            cfg.baseline.ledger.take().unwrap_or_else(|| {
                ExchangeLedger::new(&cfg.dim_kinds, cfg.n_slots, cfg.ladder_len)
            });
        let round_trips_at_emit =
            ledger.round_trips().map_or(0, RoundTripTracker::total_round_trips);
        let base = &cfg.baseline;
        let (seq, md_ok) = (base.seq, base.md_segments);
        let (last_failed, last_relaunched) = (base.failed_tasks, base.relaunched_tasks);
        LiveState {
            seq,
            dims_at_emit: ledger.dims().to_vec(),
            ledger,
            md_ok,
            round_trips_at_emit,
            md_ok_at_emit: md_ok,
            pending: BTreeMap::new(),
            leg_tc: LogHistogram::new(),
            win_tc: LogHistogram::new(),
            win_seg: LogHistogram::new(),
            window_events: Vec::new(),
            stragglers: 0,
            idle_windows: 0,
            last_failed,
            last_relaunched,
            cfg,
        }
    }

    /// The last emitted snapshot sequence number (the checkpoint cursor).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Fold one event into the rolling window and cumulative state.
    pub fn fold(&mut self, event: &Event) {
        let pending = &mut self.pending;
        CycleBreakdown::absorb(event, |cycle| {
            let entry = pending
                .entry(cycle)
                .or_insert_with(|| (CycleBreakdown { cycle, ..Default::default() }, false));
            entry.1 |= matches!(event, Event::MdPhase { .. });
            &mut entry.0
        });
        self.ledger.fold(event);
        if let Event::MdSegment { start, end, ok, .. } = *event {
            self.win_seg.record(end - start);
            self.md_ok += u64::from(ok);
        }
        self.window_events.push(event.clone());
    }

    /// Close the current window: finalize completed cycles, evaluate the
    /// rule engine, and produce the snapshot.
    pub fn emit(
        &mut self,
        stats: &EmitStats,
        units_submitted: u64,
        units_completed: u64,
    ) -> TelemetrySnapshot {
        self.seq += 1;
        // Finalize every pending cycle that saw an MdPhase (sync cycles
        // complete within one window; async rounds never emit MdPhase and
        // their partial breakdowns are discarded — Tc has no meaning
        // without global cycles).
        let pending = std::mem::take(&mut self.pending);
        for (_, (breakdown, saw_md_phase)) in pending {
            if saw_md_phase {
                let tc = breakdown.total();
                self.leg_tc.record(tc);
                self.win_tc.record(tc);
            }
        }
        let win_stragglers =
            timeline_stats(&self.window_events, StragglerPolicy::default()).straggler_count as u64;
        self.stragglers += win_stragglers;
        let round_trips = self.ledger.round_trips().map_or(0, RoundTripTracker::total_round_trips);
        let eta_seconds = {
            let base = &self.cfg.baseline;
            if stats.completed > base.completed && stats.total > stats.completed {
                let rate = (stats.time - base.sim_time) / (stats.completed - base.completed) as f64;
                rate.max(0.0) * (stats.total - stats.completed) as f64
            } else {
                0.0
            }
        };
        if self.md_ok == self.md_ok_at_emit && !stats.done {
            self.idle_windows += 1;
        } else {
            self.idle_windows = 0;
        }
        let mut snap = TelemetrySnapshot {
            seq: self.seq,
            campaign: self.cfg.campaign.clone(),
            time: stats.time,
            completed: stats.completed,
            total: stats.total,
            eta_seconds,
            done: stats.done,
            units_submitted,
            units_completed,
            failed_tasks: stats.failed_tasks,
            window_failed: stats.failed_tasks.saturating_sub(self.last_failed),
            relaunched_tasks: stats.relaunched_tasks,
            window_relaunched: stats.relaunched_tasks.saturating_sub(self.last_relaunched),
            md_segments: self.md_ok,
            window_md_segments: self.md_ok - self.md_ok_at_emit,
            round_trips,
            window_round_trips: round_trips - self.round_trips_at_emit,
            stragglers: self.stragglers,
            window_stragglers: win_stragglers,
            dims: self
                .ledger
                .dims()
                .iter()
                .map(|d| {
                    let prev = self.dims_at_emit.iter().find(|p| p.dim == d.dim);
                    DimSnapshot {
                        dim: d.dim,
                        kind: d.kind,
                        attempts: d.attempts,
                        accepted: d.accepted,
                        window_attempts: d.attempts - prev.map_or(0, |p| p.attempts),
                        window_accepted: d.accepted - prev.map_or(0, |p| p.accepted),
                    }
                })
                .collect(),
            tc: HistSummary::of(&self.leg_tc),
            window_tc: HistSummary::of(&self.win_tc),
            window_seg: HistSummary::of(&self.win_seg),
            findings: Vec::new(),
        };
        snap.findings = live_findings(&snap, self.idle_windows);
        // Reset the window.
        self.win_tc = LogHistogram::new();
        self.win_seg = LogHistogram::new();
        self.window_events.clear();
        self.dims_at_emit = self.ledger.dims().to_vec();
        self.round_trips_at_emit = round_trips;
        self.md_ok_at_emit = self.md_ok;
        self.last_failed = stats.failed_tasks;
        self.last_relaunched = stats.relaunched_tasks;
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{campaign_label, prometheus_text, sanitize_metric_name};

    fn seg(cycle: u64, replica: usize, start: f64, end: f64, ok: bool) -> Event {
        Event::MdSegment {
            replica,
            slot: replica,
            cycle,
            dim: 0,
            attempt: 0,
            cores: 1,
            start,
            end,
            ok,
        }
    }

    fn outcome(lo: usize, hi: usize, accepted: bool) -> Event {
        Event::ExchangeOutcome { dim: 0, cycle: 0, slot_lo: lo, slot_hi: hi, accepted, at: 1.0 }
    }

    fn window(cycle: u64, participants: usize, start: f64, end: f64) -> Event {
        Event::ExchangeWindow { kind: 'T', dim: 0, cycle, participants, start, end }
    }

    fn stats(completed: u64, total: u64, time: f64) -> EmitStats {
        EmitStats { completed, total, time, failed_tasks: 0, relaunched_tasks: 0, done: false }
    }

    fn state(n: usize) -> LiveState {
        LiveState::new(LiveConfig {
            campaign: "test".into(),
            n_slots: n,
            ladder_len: n,
            dim_kinds: vec!['T'],
            baseline: LiveBaseline::default(),
        })
    }

    #[test]
    fn fold_counts_acceptance_like_exchange_health() {
        let mut st = state(4);
        let events = vec![
            seg(0, 0, 0.0, 1.0, true),
            seg(0, 1, 0.0, 1.1, true),
            outcome(0, 1, true),
            outcome(2, 3, false),
            window(0, 4, 1.2, 1.4),
        ];
        for e in &events {
            st.fold(e);
        }
        let snap = st.emit(&stats(1, 4, 1.4), 0, 0);
        assert_eq!(snap.dims.len(), 1);
        assert_eq!(snap.dims[0].attempts, 2);
        assert_eq!(snap.dims[0].accepted, 1);
        assert_eq!(snap.dims[0].window_attempts, 2);
        let ledger = ExchangeLedger::from_trace(&events);
        assert_eq!(ledger.dims()[0], snap.dims[0].health());
        assert_eq!(snap.md_segments, 2);
        assert_eq!(snap.seq, 1);
    }

    #[test]
    fn windows_reset_and_cumulatives_persist() {
        let mut st = state(4);
        st.fold(&outcome(0, 1, true));
        st.fold(&window(0, 4, 0.0, 0.1));
        let s1 = st.emit(&stats(1, 4, 1.0), 0, 0);
        assert_eq!(s1.dims[0].window_attempts, 1);
        st.fold(&outcome(1, 2, false));
        st.fold(&window(1, 4, 1.0, 1.1));
        let s2 = st.emit(&stats(2, 4, 2.0), 0, 0);
        assert_eq!(s2.dims[0].window_attempts, 1);
        assert_eq!(s2.dims[0].attempts, 2, "cumulative keeps counting");
        assert_eq!(s2.seq, 2);
        // Windows telescope: sum of window attempts == final cumulative.
        assert_eq!(s1.dims[0].window_attempts + s2.dims[0].window_attempts, s2.dims[0].attempts);
    }

    #[test]
    fn round_trips_match_replay_slot_walk_semantics() {
        // 2-slot ladder: one accepted swap moves both replicas across the
        // whole ladder; swapping back and forth yields half-trips exactly as
        // the in-process tracker counts them.
        let mut st = state(2);
        let mut events = Vec::new();
        for i in 0..4u64 {
            events.push(outcome(0, 1, true));
            events.push(window(i, 2, i as f64, i as f64 + 0.1));
        }
        for e in &events {
            st.fold(e);
        }
        let snap = st.emit(&stats(4, 4, 4.0), 0, 0);
        // Walk: each swap alternates both replicas between rungs 0 and 1.
        // First window fixes last_end; three subsequent alternations = 3
        // half-trips each = 1 round trip each.
        assert_eq!(snap.round_trips, 2, "both replicas complete one round trip");
        let replayed = ExchangeLedger::from_trace(&events);
        assert_eq!(replayed.round_trips().map(RoundTripTracker::total_round_trips), Some(2));
    }

    #[test]
    fn baseline_seeds_cumulative_state() {
        // Replica 0: three half-trips, last at the top; replica 1: two, last
        // at the bottom.
        let mut tracker = RoundTripTracker::new(2, 2);
        for (replica, rung) in [(0, 0), (0, 1), (0, 0), (0, 1), (1, 0), (1, 1), (1, 0)] {
            tracker.record(replica, rung);
        }
        let mut ledger = ExchangeLedger::new(&['T'], 2, 2);
        ledger.resume(&[(10, 4)], vec![1, 0], Some(tracker)).unwrap();
        let mut st = LiveState::new(LiveConfig {
            campaign: "resumed".into(),
            n_slots: 2,
            ladder_len: 2,
            dim_kinds: vec!['T'],
            baseline: LiveBaseline {
                seq: 7,
                completed: 3,
                sim_time: 30.0,
                failed_tasks: 2,
                relaunched_tasks: 1,
                md_segments: 6,
                ledger: Some(ledger),
            },
        });
        st.fold(&outcome(0, 1, true));
        st.fold(&window(3, 2, 30.0, 30.1));
        let snap = st.emit(
            &EmitStats {
                completed: 4,
                total: 8,
                time: 40.0,
                failed_tasks: 2,
                relaunched_tasks: 1,
                done: false,
            },
            0,
            0,
        );
        assert_eq!(snap.seq, 8, "cursor continues after the baseline");
        assert_eq!(snap.dims[0].attempts, 11);
        assert_eq!(snap.dims[0].accepted, 5);
        assert_eq!(snap.dims[0].window_attempts, 1, "window covers only the new leg");
        assert_eq!(snap.window_failed, 0, "baseline failures are not re-windowed");
        assert_eq!(snap.md_segments, 6);
        // ETA: 1 unit took 10 s, 4 remain.
        assert!((snap.eta_seconds - 40.0).abs() < 1e-9, "{}", snap.eta_seconds);
        // rt baseline: replica0 had 3 half-trips ending top, replica1 had 2
        // ending bottom; the swap moves r0 to bottom (4 half) and r1 to top
        // (3 half) => 2 + 1 = 3 round trips.
        assert_eq!(snap.round_trips, 3);
    }

    #[test]
    fn rule_engine_fires_its_catalog() {
        let mut s = TelemetrySnapshot {
            dims: vec![DimSnapshot {
                dim: 0,
                kind: 'T',
                attempts: 12,
                accepted: 0,
                ..Default::default()
            }],
            window_failed: 3,
            window_stragglers: 1,
            ..Default::default()
        };
        let codes = |s: &TelemetrySnapshot, idle| -> Vec<String> {
            live_findings(s, idle).into_iter().map(|f| f.code).collect()
        };
        assert_eq!(codes(&s, 3), vec!["W201", "W202", "W204", "W205"]);
        // Band rule replaces starvation once acceptances exist.
        s.dims[0].accepted = 12;
        s.dims[0].attempts = 12;
        assert!(!codes(&s, 0).contains(&"W203".into()), "needs 20 attempts");
        s.dims[0].attempts = 20;
        s.dims[0].accepted = 20;
        assert!(codes(&s, 0).contains(&"W203".into()), "ratio 1.0 is outside the band");
        s.dims[0].accepted = 10;
        assert!(!codes(&s, 0).contains(&"W203".into()), "0.5 is in band");
        assert!(live_findings(&s, 3).iter().all(|f| f.severity == crate::Severity::Warning));
    }

    #[test]
    fn snapshot_round_trips_through_the_codec() {
        let mut st = LiveState::new(LiveConfig {
            campaign: "storm".into(),
            n_slots: 4,
            ladder_len: 4,
            dim_kinds: vec!['T', 'S', 'U'],
            baseline: LiveBaseline::default(),
        });
        st.fold(&seg(0, 0, 0.0, 1.5, true));
        st.fold(&seg(0, 1, 0.0, 1.7, false));
        st.fold(&outcome(0, 1, true));
        st.fold(&window(0, 4, 1.5, 1.6));
        let mut snap = st.emit(&stats(1, 4, 0.1 + 0.2), 5, 4);
        snap.campaign = "storm \"A\"\nrun".into();
        snap.findings.push(Diagnostic::warning("W202", "x").with_hint("size the retry budget"));
        assert_eq!(snap.dims.len(), 3);
        let line = snap.encode().compact();
        assert!(!line.contains('\n'), "one record per line: {line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert!(line.contains("\"campaign\":\"storm \\\"A\\\"\\nrun\""), "{line}");
        assert!(line.contains("\"units_submitted\":5"));
        assert!(line.contains("\"findings\":[{\"code\":\"W202\""));
        assert!(line.contains("\"window_accepted\":1,\"ratio\":1.0}"), "{line}");
        let back: TelemetrySnapshot = json::from_str(&line).unwrap();
        assert_eq!(back, snap);
        // Equal text as well as equal values: every float kept its bits.
        assert_eq!(back.encode().compact(), line);
        let doc = json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys.join(" "),
            "seq campaign time completed total eta_seconds done units_submitted \
             units_completed failed_tasks window_failed relaunched_tasks window_relaunched \
             md_segments window_md_segments round_trips window_round_trips stragglers \
             window_stragglers dims tc window_tc window_seg findings"
        );
        let torn = line.replace("\"kind\":\"S\"", "\"kind\":\"SU\"");
        let e = json::from_str::<TelemetrySnapshot>(&torn).unwrap_err();
        assert_eq!(e.pointer, "/dims/1/kind", "{e}");
    }

    #[test]
    fn prometheus_names_and_labels_are_well_formed() {
        assert_eq!(sanitize_metric_name("repex.cycle-p50"), "repex_cycle_p50");
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name(""), "_");
        let mut st = state(4);
        st.fold(&outcome(0, 1, true));
        st.fold(&window(0, 4, 0.0, 0.1));
        let mut snap = st.emit(&stats(1, 4, 1.0), 0, 0);
        snap.campaign = "multi \"tenant\"".into();
        snap.findings.push(Diagnostic::warning("W202", "x"));
        let text = prometheus_text(&[snap]);
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let name = line.split(['{', ' ']).next().unwrap();
            assert!(
                name.chars().enumerate().all(|(i, c)| c.is_ascii_alphabetic()
                    || c == '_'
                    || c == ':'
                    || (i > 0 && c.is_ascii_digit())),
                "bad metric name {name:?}"
            );
            assert!(line.contains("campaign=\"multi \\\"tenant\\\"\""), "{line}");
        }
        assert!(text.contains(
            "repex_exchange_attempts_total{campaign=\"multi \\\"tenant\\\"\",dim=\"0\",kind=\"T\"} 1"
        ));
        assert!(text.contains("repex_finding_active"));
    }

    #[test]
    fn campaign_id_validation_accepts_exactly_the_escape_free_ids() {
        for id in ["a", "run-1", "tenant.a_2026", "X", "0th", &"a".repeat(64)] {
            assert_eq!(validate_campaign_id(id), Ok(()), "{id:?}");
            assert_eq!(campaign_label(id), id, "valid ids need no escaping: {id:?}");
        }
        assert_eq!(validate_campaign_id(""), Err(CampaignIdError::Empty));
        assert_eq!(
            validate_campaign_id(&"a".repeat(65)),
            Err(CampaignIdError::TooLong { len: 65 })
        );
        assert_eq!(validate_campaign_id("-leading"), Err(CampaignIdError::BadStart { ch: '-' }));
        assert_eq!(validate_campaign_id(".hidden"), Err(CampaignIdError::BadStart { ch: '.' }));
        assert_eq!(
            validate_campaign_id("has space"),
            Err(CampaignIdError::BadChar { ch: ' ', index: 3 })
        );
        assert_eq!(
            validate_campaign_id("quo\"te"),
            Err(CampaignIdError::BadChar { ch: '"', index: 3 })
        );
        // Every rejection renders a human-readable reason.
        for bad in ["", "has space", "-x", &"a".repeat(65)] {
            let err = validate_campaign_id(bad).unwrap_err();
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn campaign_label_escapes_what_validation_rejects() {
        assert_eq!(campaign_label("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
        // Any string that needs escaping is an invalid id — the exporter
        // can render it, but the service refuses it at admission.
        assert!(validate_campaign_id("a\\b\"c\nd").is_err());
    }

    #[test]
    fn merge_keeps_last_record_per_seq() {
        let snap =
            |seq: u64, completed: u64| TelemetrySnapshot { seq, completed, ..Default::default() };
        let merged = merge_snapshots(vec![snap(1, 1), snap(2, 99), snap(3, 3), snap(2, 2)]);
        let seqs: Vec<u64> = merged.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(merged[1].completed, 2, "later occurrence wins");
    }

    #[test]
    fn progress_line_matches_the_legacy_format() {
        let snap = TelemetrySnapshot {
            completed: 3,
            total: 10,
            stragglers: 2,
            dims: vec![DimSnapshot {
                dim: 0,
                kind: 'T',
                attempts: 8,
                accepted: 2,
                ..Default::default()
            }],
            tc: HistSummary { p50: 16.0, p99: 17.5, ..Default::default() },
            ..Default::default()
        };
        assert_eq!(
            render_progress_line(&snap),
            "[repex] cycle 3/10  Tc p50 16.00s p99 17.50s  acc[T] 0.25 stragglers 2"
        );
    }

    #[test]
    fn pending_cycles_without_md_phase_are_discarded() {
        // Async-style stream: windows keyed by round, no MdPhase — the Tc
        // histogram must stay empty (Tc is undefined without global cycles).
        let mut st = state(4);
        st.fold(&window(0, 3, 0.0, 0.1));
        st.fold(&window(1, 2, 1.0, 1.1));
        let snap = st.emit(&stats(2, 8, 1.1), 0, 0);
        assert_eq!(snap.tc.count, 0);
        assert_eq!(snap.window_tc.count, 0);
    }

    #[test]
    fn tc_fold_matches_cycle_breakdowns() {
        let mut st = state(2);
        let events = vec![
            Event::Overhead {
                scope: crate::event::OverheadScope::Repex,
                cycle: 0,
                start: 0.0,
                end: 0.3,
            },
            Event::Overhead {
                scope: crate::event::OverheadScope::Rp,
                cycle: 0,
                start: 0.3,
                end: 0.5,
            },
            seg(0, 0, 0.5, 2.0, true),
            Event::MdPhase { cycle: 0, dim: 0, start: 0.5, end: 2.1 },
            Event::DataStage { kind: 'T', dim: 0, cycle: 0, start: 2.1, end: 2.4 },
            window(0, 2, 2.4, 2.9),
        ];
        for e in &events {
            st.fold(e);
        }
        let snap = st.emit(&stats(1, 1, 2.9), 0, 0);
        let expect = crate::cycle_breakdowns(&events)[0].total();
        assert_eq!(snap.tc.count, 1);
        assert_eq!(snap.tc.sum, expect, "same accumulation order, identical float");
    }
}
