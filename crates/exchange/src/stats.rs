//! Exchange statistics: acceptance ratios. Ladder round trips are
//! `obs::health::RoundTripTracker`, beside the ledger that replays them.

/// Attempt/accept counters (per dimension, per pair, whatever the caller
/// aggregates over).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AcceptanceStats {
    pub attempts: u64,
    pub accepted: u64,
}

obs::json_struct!(AcceptanceStats { attempts: "attempts", accepted: "accepted" });

/// A ledger row's counts, as reports and checkpoints write them.
impl From<&obs::health::DimExchangeHealth> for AcceptanceStats {
    fn from(row: &obs::health::DimExchangeHealth) -> Self {
        AcceptanceStats { attempts: row.attempts, accepted: row.accepted }
    }
}

impl AcceptanceStats {
    pub fn record(&mut self, accepted: bool) {
        self.attempts += 1;
        if accepted {
            self.accepted += 1;
        }
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
    }
}
