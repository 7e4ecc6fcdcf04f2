//! Exchange statistics: acceptance ratios, ladder traversal and round trips.

/// Attempt/accept counters (per dimension, per pair, whatever the caller
/// aggregates over).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptanceStats {
    pub attempts: u64,
    pub accepted: u64,
}

obs::json_struct!(AcceptanceStats { attempts: "attempts", accepted: "accepted" });

impl AcceptanceStats {
    pub fn record(&mut self, accepted: bool) {
        self.attempts += 1;
        if accepted {
            self.accepted += 1;
        }
    }

    pub fn merge(&mut self, other: &AcceptanceStats) {
        self.attempts += other.attempts;
        self.accepted += other.accepted;
    }

    /// Acceptance ratio in [0, 1]; 0 when no attempts (never NaN — this
    /// value flows into JSON metrics and report text unguarded).
    pub fn ratio(&self) -> f64 {
        self.ratio_opt().unwrap_or(0.0)
    }

    /// Acceptance ratio, or `None` when no attempts were made — for callers
    /// that must distinguish "nothing attempted" from "everything rejected".
    pub fn ratio_opt(&self) -> Option<f64> {
        if self.attempts == 0 {
            None
        } else {
            Some(self.accepted as f64 / self.attempts as f64)
        }
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

obs::json_struct!(RoundTripTracker {
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

    /// The tracker's endpoint state — `(last_end, half_trips)` per replica —
    /// so a resumed live-telemetry fold can continue counting round trips
    /// exactly where this tracker stands (2 half-trips = 1 round trip).
    pub fn endpoint_state(&self) -> (Vec<i8>, Vec<u64>) {
        (self.last_end.clone(), self.half_trips.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_attempts_never_produce_nan() {
        let s = AcceptanceStats::default();
        assert_eq!(s.ratio(), 0.0);
        assert!(s.ratio().is_finite());
        assert_eq!(s.ratio_opt(), None);

        let mut one = AcceptanceStats::default();
        one.record(false);
        assert_eq!(one.ratio_opt(), Some(0.0));
    }

    #[test]
    fn acceptance_ratio_arithmetic() {
        let mut s = AcceptanceStats::default();
        assert_eq!(s.ratio(), 0.0);
        for i in 0..100 {
            s.record(i % 4 == 0);
        }
        assert_eq!(s.attempts, 100);
        assert_eq!(s.accepted, 25);
        assert!((s.ratio() - 0.25).abs() < 1e-12);

        let mut t = AcceptanceStats::default();
        t.record(true);
        s.merge(&t);
        assert_eq!(s.attempts, 101);
        assert_eq!(s.accepted, 26);
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
