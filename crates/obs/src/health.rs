//! Exchange health derived from the trace alone.
//!
//! Nadler & Hansmann (arXiv:0708.3627) make acceptance ratios and ladder
//! round trips *the* quantities that determine REMD sampling efficiency.
//! The drivers emit one [`Event::ExchangeOutcome`] per Metropolis attempt,
//! so a recorded trace carries everything needed to recompute per-dimension
//! acceptance statistics and to replay the slot-occupancy walk — no access
//! to the in-process `exchange::stats` state required. The integration
//! tests assert both derivations match the in-process numbers exactly.

use crate::event::Event;
use std::collections::BTreeMap;

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
