//! Run health: exchange health derived from the trace alone, and the whole
//! run-health rule catalog — the post-hoc A1xx rules `repex analyze`
//! reports and the live W2xx rules every telemetry snapshot carries.
//!
//! Nadler & Hansmann (arXiv:0708.3627) make acceptance ratios and ladder
//! round trips *the* quantities that determine REMD sampling efficiency.
//! The drivers emit one [`Event::ExchangeOutcome`] per Metropolis attempt,
//! so a recorded trace carries everything needed to recompute per-dimension
//! acceptance statistics and to replay the slot-occupancy walk — no access
//! to the in-process `exchange::stats` state required. The integration
//! tests assert both derivations match the in-process numbers exactly.

use crate::critical_path::CriticalPath;
use crate::diag::Diagnostic;
use crate::event::Event;
use crate::json::{Encode, Value};
use crate::json_fields;
use crate::live::TelemetrySnapshot;
use crate::timeline_stats::TimelineStats;
use std::collections::BTreeMap;
use std::ops::RangeInclusive;

/// The pairwise acceptance a healthy ladder stays inside: the plan linter
/// predicts against it (L401 below, L402 above) and the live W203 rule
/// judges the measured ratio by it.
pub const ACCEPTANCE_BAND: RangeInclusive<f64> = 0.05..=0.99;

/// Acceptance statistics for one dimension, recomputed from outcome events.
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

/// Per-dimension acceptance recomputed from [`Event::ExchangeOutcome`]s
/// (window events contribute the kind letter), ascending by dimension.
pub fn exchange_health(events: &[Event]) -> Vec<DimExchangeHealth> {
    let mut dims: BTreeMap<usize, DimExchangeHealth> = BTreeMap::new();
    for event in events {
        match event {
            Event::ExchangeOutcome { dim, accepted, .. } => {
                let h = dims.entry(*dim).or_insert_with(|| DimExchangeHealth {
                    dim: *dim,
                    kind: '?',
                    ..Default::default()
                });
                h.attempts += 1;
                if *accepted {
                    h.accepted += 1;
                }
            }
            Event::ExchangeWindow { kind, dim, .. } => {
                let h = dims.entry(*dim).or_insert_with(|| DimExchangeHealth {
                    dim: *dim,
                    kind: '?',
                    ..Default::default()
                });
                h.kind = *kind;
            }
            _ => {}
        }
    }
    dims.into_values().collect()
}

/// The slot-occupancy walk replayed from accepted outcomes.
///
/// Replicas start at the identity assignment (replica i in slot i — how the
/// drivers initialize) and trade slots on every accepted outcome. After
/// each exchange window (`participants > 0`; zero-participant windows are
/// `no-exchange` placeholders with no swap application) a snapshot of every
/// replica's slot is taken — the same cadence at which the drivers feed
/// their `RoundTripTracker`, so round-trip counts derived from these
/// records match the in-process tracker.
#[derive(Debug, Clone, Default)]
pub struct SlotReplay {
    pub n_slots: usize,
    /// `records[k][replica]` = the replica's slot after the k-th window.
    pub records: Vec<Vec<usize>>,
    /// Final assignment: `slot_of[replica]`.
    pub slot_of: Vec<usize>,
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

/// Replay the slot walk for a 1-D run. Outcomes must precede their window
/// in the stream (the drivers emit them in that order).
pub fn replay_slot_walk(events: &[Event], n_slots: usize) -> SlotReplay {
    let mut slot_of: Vec<usize> = (0..n_slots).collect(); // replica -> slot
    let mut owner: Vec<usize> = (0..n_slots).collect(); // slot -> replica
    let mut records = Vec::new();
    for event in events {
        match event {
            Event::ExchangeOutcome { slot_lo, slot_hi, accepted: true, .. }
                if *slot_hi < n_slots =>
            {
                let (a, b) = (*slot_lo, *slot_hi);
                owner.swap(a, b);
                slot_of[owner[a]] = a;
                slot_of[owner[b]] = b;
            }
            Event::ExchangeWindow { participants, .. } if *participants > 0 => {
                records.push(slot_of.clone());
            }
            _ => {}
        }
    }
    SlotReplay { n_slots, records, slot_of }
}

/// The post-hoc rules over a recorded trace and what was derived from it.
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
    let mut per_replica: BTreeMap<usize, (f64, u32)> = BTreeMap::new();
    for e in events {
        if let Event::MdSegment { replica, start, end, ok: true, .. } = e {
            let slot = per_replica.entry(*replica).or_insert((0.0, 0));
            slot.0 += end - start;
            slot.1 += 1;
        }
    }
    let mut means: Vec<(usize, f64)> =
        per_replica.iter().map(|(r, (sum, n))| (*r, sum / f64::from(*n))).collect();
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
        let health = exchange_health(&events);
        assert_eq!(health.len(), 2);
        assert_eq!(health[0].dim, 0);
        assert_eq!(health[0].kind, 'T');
        assert_eq!(health[0].attempts, 2);
        assert_eq!(health[0].accepted, 1);
        assert!((health[0].ratio() - 0.5).abs() < 1e-12);
        assert_eq!(health[1].attempts, 1);
        assert_eq!(health[1].accepted, 0);
        assert_eq!(health[1].ratio(), 0.0);
    }

    #[test]
    fn zero_attempt_dimension_has_zero_ratio_not_nan() {
        let health = exchange_health(&[window(0, 'T')]);
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
        let replay = replay_slot_walk(&events, 4);
        assert_eq!(replay.records.len(), 2);
        // After window 1: replicas 0 and 1 traded slots.
        assert_eq!(replay.records[0], vec![1, 0, 2, 3]);
        // After window 2: the occupant of slot 1 (replica 0) moved to 2.
        assert_eq!(replay.records[1], vec![2, 0, 1, 3]);
        assert_eq!(replay.slot_of, vec![2, 0, 1, 3]);
    }

    #[test]
    fn zero_participant_windows_take_no_snapshot() {
        let events = vec![Event::ExchangeWindow {
            kind: 'T',
            dim: 0,
            cycle: 0,
            participants: 0,
            start: 1.0,
            end: 1.0,
        }];
        assert!(replay_slot_walk(&events, 4).records.is_empty());
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
}
