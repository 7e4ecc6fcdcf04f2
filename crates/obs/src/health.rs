//! Run health: the exchange ledger — acceptance, the slot walk and round
//! trips, folded one event at a time — and the whole run-health rule
//! catalog: the post-hoc A1xx rules `repex analyze` reports and the live
//! W2xx rules every telemetry snapshot carries.
//!
//! Nadler & Hansmann (arXiv:0708.3627) make acceptance ratios and ladder
//! round trips *the* quantities that determine REMD sampling efficiency.
//! The drivers emit one [`Event::ExchangeOutcome`] per Metropolis attempt,
//! so an event stream carries everything needed to count per-dimension
//! acceptance and to replay the slot-occupancy walk. One
//! [`ExchangeLedger`] does both: the live plane folds the running stream
//! into it, `repex analyze` folds a recorded trace
//! ([`ExchangeLedger::from_trace`]), and the drivers keep their own
//! [`RoundTripTracker`], the type the ledger feeds. The integration tests
//! assert the ledger matches the in-process numbers exactly.

use crate::critical_path::CriticalPath;
use crate::diag::Diagnostic;
use crate::event::Event;
use crate::json::{Encode, Value};
use crate::live::TelemetrySnapshot;
use crate::timeline_stats::TimelineStats;
use crate::{json_fields, json_struct};
use std::ops::RangeInclusive;

/// The pairwise acceptance a healthy ladder stays inside: the plan linter
/// predicts against it (L401 below, L402 above) and the live W203 rule
/// judges the measured ratio by it.
pub const ACCEPTANCE_BAND: RangeInclusive<f64> = 0.05..=0.99;

/// Acceptance statistics for one dimension, counted from outcome events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DimExchangeHealth {
    pub dim: usize,
    /// Exchange-kind letter from the dimension's windows ('?' if the trace
    /// carries no window for the dimension).
    pub kind: char,
    pub attempts: u64,
    pub accepted: u64,
}

impl DimExchangeHealth {
    /// Acceptance ratio in [0, 1]; 0.0 when no attempts were recorded.
    pub fn ratio(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.accepted as f64 / self.attempts as f64
        }
    }
}

/// One acceptance row, as `repex analyze` (`exchange_health`) and
/// `repex watch --once --json` (`acceptance`) both write it.
impl Encode for DimExchangeHealth {
    fn encode(&self) -> Value {
        json_fields!(self; dim, kind, attempts, accepted).with("ratio", self.ratio())
    }
}

/// Tracks each replica's walk along a 1-D ladder and counts round trips
/// (bottom → top → bottom), the standard mixing diagnostic for REMD. State is
/// O(replicas): which rungs a replica visited is the driver's `rung_history`.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundTripTracker {
    ladder_len: usize,
    /// Last endpoint each replica visited: 0 = bottom, 1 = top, -1 = none.
    last_end: Vec<i8>,
    /// Completed half-trips per replica (2 half-trips = 1 round trip).
    half_trips: Vec<u64>,
}

json_struct!(RoundTripTracker {
    ladder_len: "ladder_len",
    last_end: "last_end",
    half_trips: "half_trips",
});

impl RoundTripTracker {
    pub fn new(n_replicas: usize, ladder_len: usize) -> Self {
        assert!(ladder_len >= 2, "round trips need a ladder of at least 2");
        RoundTripTracker {
            ladder_len,
            last_end: vec![-1; n_replicas],
            half_trips: vec![0; n_replicas],
        }
    }

    /// Record that `replica` now occupies ladder `rung`.
    pub fn record(&mut self, replica: usize, rung: usize) {
        assert!(rung < self.ladder_len);
        let end = if rung == 0 {
            Some(0i8)
        } else if rung == self.ladder_len - 1 {
            Some(1)
        } else {
            None
        };
        if let Some(e) = end {
            if self.last_end[replica] != -1 && self.last_end[replica] != e {
                self.half_trips[replica] += 1;
            }
            self.last_end[replica] = e;
        }
    }

    /// Completed round trips for one replica.
    pub fn round_trips(&self, replica: usize) -> u64 {
        self.half_trips[replica] / 2
    }

    /// Total round trips across replicas.
    pub fn total_round_trips(&self) -> u64 {
        self.half_trips.iter().map(|h| h / 2).sum()
    }
}

/// A run's exchange bookkeeping, folded one event at a time: per-dimension
/// attempts and acceptances, the slot-occupancy walk, and — on a 1-D ladder
/// — the round-trip tracker.
///
/// Each accepted [`Event::ExchangeOutcome`] trades the two slots'
/// occupants. Each [`Event::ExchangeWindow`] that held replicas
/// (`participants > 0`; zero-participant windows are `no-exchange`
/// placeholders) records every replica's slot into the tracker: the cadence
/// at which the drivers feed theirs, so the counts agree. Re-recording an
/// unchanged position never adds a half-trip, so a window whose exchange
/// failed is a no-op here as it is in-process. Outcomes precede their
/// window in the stream (the drivers emit them in that order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExchangeLedger {
    /// One row per dimension configured or seen, ascending by `dim`.
    dims: Vec<DimExchangeHealth>,
    /// `owner[slot]` = replica.
    owner: Vec<usize>,
    /// `slot_of[replica]` = slot.
    slot_of: Vec<usize>,
    round_trips: Option<RoundTripTracker>,
}

impl ExchangeLedger {
    /// A ledger that continues from `dims` (rows ascending by `dim`, with
    /// any counts carried over), the walk `slot_of[replica]` = slot, and the
    /// round-trip tracker (`None` counts no round trips).
    pub fn new(
        dims: Vec<DimExchangeHealth>,
        slot_of: Vec<usize>,
        round_trips: Option<RoundTripTracker>,
    ) -> Self {
        let mut owner = vec![0; slot_of.len()];
        for (replica, &slot) in slot_of.iter().enumerate() {
            owner[slot] = replica;
        }
        ExchangeLedger { dims, owner, slot_of, round_trips }
    }

    /// Fold a recorded trace. Replicas start at the identity assignment
    /// (replica i in slot i, how the drivers initialize) over the slots the
    /// trace implies; round trips are counted when the trace has exactly
    /// one dimension and at least 2 slots (rung == slot).
    pub fn from_trace(events: &[Event]) -> Self {
        let n = implied_slot_count(events);
        let tracker = (n >= 2).then(|| RoundTripTracker::new(n, n));
        let mut ledger = ExchangeLedger::new(Vec::new(), (0..n).collect(), tracker);
        for event in events {
            ledger.fold(event);
        }
        // A row exists for every dimension with a window or an outcome.
        if ledger.dims.len() != 1 {
            ledger.round_trips = None;
        }
        ledger
    }

    /// Fold one event; only exchange outcomes and windows count.
    pub fn fold(&mut self, event: &Event) {
        match *event {
            Event::ExchangeOutcome { dim, slot_lo, slot_hi, accepted, .. } => {
                let row = self.row(dim);
                row.attempts += 1;
                if accepted {
                    row.accepted += 1;
                    if slot_hi < self.owner.len() {
                        self.owner.swap(slot_lo, slot_hi);
                        self.slot_of[self.owner[slot_lo]] = slot_lo;
                        self.slot_of[self.owner[slot_hi]] = slot_hi;
                    }
                }
            }
            Event::ExchangeWindow { kind, dim, participants, .. } => {
                self.row(dim).kind = kind;
                if let Some(rt) = self.round_trips.as_mut().filter(|_| participants > 0) {
                    for (replica, &slot) in self.slot_of.iter().enumerate() {
                        rt.record(replica, slot);
                    }
                }
            }
            _ => {}
        }
    }

    fn row(&mut self, dim: usize) -> &mut DimExchangeHealth {
        let i = self.dims.binary_search_by_key(&dim, |d| d.dim).unwrap_or_else(|i| {
            self.dims.insert(i, DimExchangeHealth { dim, kind: '?', ..Default::default() });
            i
        });
        &mut self.dims[i]
    }

    /// Acceptance per dimension, ascending by `dim`.
    pub fn dims(&self) -> &[DimExchangeHealth] {
        &self.dims
    }

    /// The walk's current assignment: `slot_of()[replica]` = slot.
    pub fn slot_of(&self) -> &[usize] {
        &self.slot_of
    }

    /// The round-trip tracker, when round trips are counted.
    pub fn round_trips(&self) -> Option<&RoundTripTracker> {
        self.round_trips.as_ref()
    }
}

/// Number of slots implied by the stream (max slot index + 1 over segments
/// and outcomes).
pub fn implied_slot_count(events: &[Event]) -> usize {
    let mut max_slot = None::<usize>;
    for event in events {
        let s = match event {
            Event::MdSegment { slot, .. } => Some(*slot),
            Event::ExchangeOutcome { slot_hi, .. } => Some(*slot_hi),
            _ => None,
        };
        if let Some(s) = s {
            max_slot = Some(max_slot.map_or(s, |m: usize| m.max(s)));
        }
    }
    max_slot.map_or(0, |m| m + 1)
}

/// The post-hoc rules over a recorded trace and what was derived from it.
/// `timeline` is [`crate::timeline_stats::timeline_stats`] of the same
/// `events`: A103 and A105 read its replica lanes.
///
/// | code | fires when |
/// |------|-----------|
/// | A101 | a dimension attempted exchanges and accepted none (starved ladder) |
/// | A102 | exchange windows opened but no outcome was recorded: an error when a window held every replica, a warning otherwise (the ready replicas of an asynchronous window may not have been adjacent) |
/// | A103 | straggler replicas stretched their batches |
/// | A104 | a strict majority of ≥ 4 failures lands within 20 % of the span (a storm or a bad node, not independent faults) |
/// | A105 | the slowest replica's mean MD segment is ≥ 1.5× the fleet median |
/// | A106 | data staging is more than 25 % of the critical path |
pub fn trace_findings(
    events: &[Event],
    timeline: &TimelineStats,
    path: &CriticalPath,
    health: &[DimExchangeHealth],
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n_slots = implied_slot_count(events);
    let (mut windows, mut full_window) = (false, false);
    for e in events {
        if let Event::ExchangeWindow { participants, .. } = *e {
            windows |= participants > 0;
            full_window |= n_slots >= 2 && participants == n_slots;
        }
    }
    let outcomes = events.iter().any(|e| matches!(e, Event::ExchangeOutcome { .. }));
    if windows && !outcomes {
        out.push(if full_window {
            Diagnostic::error(
                "A102",
                "exchange windows ran with every replica but no exchange outcome was recorded: \
                 the exchange step produced no decisions",
            )
        } else {
            Diagnostic::warning(
                "A102",
                "exchange windows ran with participants but no exchange outcome was recorded: \
                 the ready replicas may not have been adjacent",
            )
        });
    }
    for h in health.iter().filter(|h| h.attempts > 0 && h.accepted == 0) {
        out.push(
            Diagnostic::warning(
                "A101",
                format!(
                    "dimension {} ({}) accepted 0 of {} exchange attempts: the ladder is starved",
                    h.dim, h.kind, h.attempts,
                ),
            )
            .with_hint("tighten rung spacing (repex check predicts acceptance pre-run)"),
        );
    }
    if timeline.straggler_count > 0 {
        out.push(Diagnostic::warning(
            "A103",
            format!(
                "{} straggler replica(s) stretched their MD batches: {}",
                timeline.straggler_count,
                timeline.stragglers().encode(),
            ),
        ));
    }

    // A104: failure burst. Independent faults spread failures over the run;
    // a strict majority landing inside a narrow window means a storm or a
    // bad node. Needs enough failures for "cluster" to be meaningful.
    let span = timeline.span;
    let mut fail_times: Vec<f64> = events
        .iter()
        .filter_map(|e| match e {
            Event::MdSegment { ok: false, end, .. } => Some(*end),
            _ => None,
        })
        .collect();
    fail_times.sort_by(f64::total_cmp);
    if fail_times.len() >= 4 && span > 0.0 {
        let need = fail_times.len() / 2 + 1;
        let burst =
            fail_times.windows(need).map(|w| w[need - 1] - w[0]).fold(f64::INFINITY, f64::min);
        if burst < 0.2 * span {
            out.push(
                Diagnostic::warning(
                    "A104",
                    format!(
                        "failure burst: {need} of {} task failures landed within {:.1} s \
                         ({:.0}% of the {:.1} s span) — consistent with a failure storm or a \
                         flaky node, not independent faults",
                        fail_times.len(),
                        burst,
                        burst / span * 100.0,
                        span,
                    ),
                )
                .with_hint("size the relaunch retry budget for the storm rate, not the average"),
            );
        }
    }

    // A105: heterogeneous replica speeds. Compare each replica's mean
    // successful-MD duration against the fleet median.
    let mut means: Vec<(usize, f64)> = timeline
        .replicas
        .iter()
        .filter(|r| r.segments > 0)
        .map(|r| (r.lane, r.mean_segment))
        .collect();
    if means.len() >= 4 {
        means.sort_by(|a, b| a.1.total_cmp(&b.1));
        let median = means[means.len() / 2].1;
        let (slowest, max) = means[means.len() - 1];
        if median > 0.0 && max >= 1.5 * median {
            out.push(
                Diagnostic::warning(
                    "A105",
                    format!(
                        "heterogeneous replica speeds: replica {slowest} averages {:.1} s per \
                         MD segment vs a fleet median of {:.1} s ({:.1}x) — slow or \
                         oversubscribed nodes hold every synchronous barrier",
                        max,
                        median,
                        max / median,
                    ),
                )
                .with_hint(
                    "prefer the asynchronous pattern, which never waits for the slowest node",
                ),
            );
        }
    }

    // A106: data staging as an outsized share of the critical path — the
    // filesystem, not the physics, is pacing the campaign.
    let data = path.by_category.iter().find(|(c, _)| *c == "data").map_or(0.0, |(_, t)| *t);
    if path.total > 0.0 && data > 0.25 * path.total {
        out.push(
            Diagnostic::warning(
                "A106",
                format!(
                    "data staging accounts for {:.0}% of the {:.1} s critical path — the \
                     filesystem is pacing the run",
                    data / path.total * 100.0,
                    path.total,
                ),
            )
            .with_hint("batch stage-ins, widen striping, or run fewer concurrent replicas"),
        );
    }
    out
}

/// Minimum cumulative attempts before W201 (starved ladder) can fire.
const W201_MIN_ATTEMPTS: u64 = 12;
/// Window failure count that constitutes a live failure burst (W202).
const W202_BURST: u64 = 3;
/// Minimum attempts before the W203 band is judged.
const W203_MIN_ATTEMPTS: u64 = 20;
/// Consecutive windows with no completed segments before W205 (stall).
const W205_IDLE_WINDOWS: u32 = 3;

/// The live rules, evaluated on every telemetry snapshot.
///
/// | code | fires when | post-hoc twin |
/// |------|-----------|---------------|
/// | W201 | a dimension has ≥ 12 attempts and 0 acceptances | A101 |
/// | W202 | ≥ 3 task failures inside one window | A104 |
/// | W203 | cumulative acceptance outside [`ACCEPTANCE_BAND`] after ≥ 20 attempts | L401 |
/// | W204 | straggler flags inside the window | A103 |
/// | W205 | 3 consecutive windows without a completed segment | — |
pub fn live_findings(s: &TelemetrySnapshot, idle_windows: u32) -> Vec<Diagnostic> {
    let mut findings = Vec::new();
    for d in &s.dims {
        if d.attempts >= W201_MIN_ATTEMPTS && d.accepted == 0 {
            findings.push(Diagnostic::warning(
                "W201",
                format!(
                    "{}-exchange ladder is starved: 0/{} attempts accepted so far",
                    d.kind, d.attempts
                ),
            ));
        } else if d.attempts >= W203_MIN_ATTEMPTS && !ACCEPTANCE_BAND.contains(&d.ratio()) {
            findings.push(Diagnostic::warning(
                "W203",
                format!(
                    "{}-exchange acceptance {:.3} is outside the predicted band [{}, {}]",
                    d.kind,
                    d.ratio(),
                    ACCEPTANCE_BAND.start(),
                    ACCEPTANCE_BAND.end()
                ),
            ));
        }
    }
    if s.window_failed >= W202_BURST {
        findings.push(Diagnostic::warning(
            "W202",
            format!(
                "failure burst: {} task failures in window {} ({} total)",
                s.window_failed, s.seq, s.failed_tasks
            ),
        ));
    }
    if s.window_stragglers > 0 {
        findings.push(Diagnostic::warning(
            "W204",
            format!("{} straggler task(s) flagged in window {}", s.window_stragglers, s.seq),
        ));
    }
    if idle_windows >= W205_IDLE_WINDOWS {
        findings.push(Diagnostic::warning(
            "W205",
            format!(
                "campaign stalled: no completed MD segments for {idle_windows} consecutive windows"
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(dim: usize, lo: usize, hi: usize, accepted: bool) -> Event {
        Event::ExchangeOutcome { dim, cycle: 0, slot_lo: lo, slot_hi: hi, accepted, at: 1.0 }
    }

    fn window(dim: usize, kind: char) -> Event {
        Event::ExchangeWindow { kind, dim, cycle: 0, participants: 4, start: 1.0, end: 2.0 }
    }

    #[test]
    fn health_counts_per_dimension() {
        let events = vec![
            outcome(0, 0, 1, true),
            outcome(0, 2, 3, false),
            window(0, 'T'),
            outcome(1, 0, 2, false),
            window(1, 'U'),
        ];
        let ledger = ExchangeLedger::from_trace(&events);
        let health = ledger.dims();
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].dim, 0);
        assert_eq!(health[0].kind, 'T');
        assert_eq!(health[0].attempts, 2);
        assert_eq!(health[0].accepted, 1);
        assert!((health[0].ratio() - 0.5).abs() < 1e-12);
        assert_eq!(health[1].attempts, 1);
        assert_eq!(health[1].accepted, 0);
        assert_eq!(health[1].ratio(), 0.0);
        assert_eq!(ledger.round_trips(), None, "two dimensions: no 1-D ladder to walk");
    }

    #[test]
    fn zero_attempt_dimension_has_zero_ratio_not_nan() {
        let ledger = ExchangeLedger::from_trace(&[window(0, 'T')]);
        let health = ledger.dims();
        assert_eq!(health[0].attempts, 0);
        assert_eq!(health[0].ratio(), 0.0);
        assert!(health[0].ratio().is_finite());
    }

    #[test]
    fn replay_applies_accepted_swaps_and_snapshots_at_windows() {
        let events = vec![
            outcome(0, 0, 1, true),
            outcome(0, 2, 3, false),
            window(0, 'T'),
            outcome(0, 1, 2, true),
            window(0, 'T'),
        ];
        let mut ledger =
            ExchangeLedger::new(Vec::new(), (0..4).collect(), Some(RoundTripTracker::new(4, 4)));
        let mut records = Vec::new();
        for e in &events {
            ledger.fold(e);
            if matches!(e, Event::ExchangeWindow { .. }) {
                records.push(ledger.slot_of().to_vec());
            }
        }
        // After window 1: replicas 0 and 1 traded slots.
        assert_eq!(records[0], vec![1, 0, 2, 3]);
        // After window 2: the occupant of slot 1 (replica 0) moved to 2.
        assert_eq!(records[1], vec![2, 0, 1, 3]);
        // The tracker saw exactly those two assignments.
        let mut expect = RoundTripTracker::new(4, 4);
        for record in &records {
            for (replica, &rung) in record.iter().enumerate() {
                expect.record(replica, rung);
            }
        }
        assert_eq!(ledger.round_trips(), Some(&expect));
        assert_eq!(ExchangeLedger::from_trace(&events), ledger, "a trace folds the same way");
    }

    #[test]
    fn zero_participant_windows_take_no_snapshot() {
        let fresh = RoundTripTracker::new(4, 4);
        let mut ledger = ExchangeLedger::new(Vec::new(), (0..4).collect(), Some(fresh.clone()));
        ledger.fold(&Event::ExchangeWindow {
            kind: 'T',
            dim: 0,
            cycle: 0,
            participants: 0,
            start: 1.0,
            end: 1.0,
        });
        assert_eq!(ledger.round_trips(), Some(&fresh));
        // A window that held replicas does record (the ends of the ladder).
        ledger.fold(&window(0, 'T'));
        assert_ne!(ledger.round_trips(), Some(&fresh));
    }

    #[test]
    fn a_trace_counts_round_trips_on_one_dimension_of_two_slots_or_more() {
        let swaps = vec![vec![outcome(0, 0, 1, true), window(0, 'T')]; 4].concat();
        let trips = |events: &[Event]| {
            ExchangeLedger::from_trace(events)
                .round_trips()
                .map(RoundTripTracker::total_round_trips)
        };
        // Four swaps of a 2-slot ladder: each replica goes end to end 3 times.
        assert_eq!(trips(&swaps), Some(2));
        let mut two_dims = swaps;
        two_dims.push(window(1, 'U'));
        assert_eq!(trips(&two_dims), None);
        assert_eq!(trips(&[window(0, 'T')]), None, "no slot implied");
    }

    #[test]
    fn implied_slot_count_from_segments_and_outcomes() {
        assert_eq!(implied_slot_count(&[]), 0);
        assert_eq!(implied_slot_count(&[outcome(0, 5, 6, true)]), 7);
        let seg = Event::MdSegment {
            replica: 2,
            slot: 9,
            cycle: 0,
            dim: 0,
            attempt: 0,
            cores: 1,
            start: 0.0,
            end: 1.0,
            ok: true,
        };
        assert_eq!(implied_slot_count(&[seg]), 10);
    }

    #[test]
    fn one_full_round_trip() {
        let mut rt = RoundTripTracker::new(1, 4);
        for rung in [0usize, 1, 2, 3, 2, 1, 0] {
            rt.record(0, rung);
        }
        assert_eq!(rt.round_trips(0), 1);
        assert_eq!(rt.total_round_trips(), 1);
    }

    #[test]
    fn bouncing_at_one_end_is_not_a_trip() {
        let mut rt = RoundTripTracker::new(1, 4);
        for rung in [0usize, 1, 0, 1, 0] {
            rt.record(0, rung);
        }
        assert_eq!(rt.round_trips(0), 0);
    }

    #[test]
    fn half_trip_counts() {
        let mut rt = RoundTripTracker::new(2, 3);
        // Replica 0: bottom -> top (one half trip).
        rt.record(0, 0);
        rt.record(0, 2);
        assert_eq!(rt.round_trips(0), 0);
        // Replica 1: top -> bottom -> top -> bottom (3 half trips = 1 RT).
        rt.record(1, 2);
        rt.record(1, 0);
        rt.record(1, 2);
        rt.record(1, 0);
        assert_eq!(rt.round_trips(1), 1);
        assert_eq!(rt.total_round_trips(), 1);
    }

    #[test]
    fn starting_in_the_middle_counts_nothing() {
        let mut rt = RoundTripTracker::new(1, 5);
        rt.record(0, 2);
        rt.record(0, 3);
        assert_eq!(rt.round_trips(0), 0);
    }
}
