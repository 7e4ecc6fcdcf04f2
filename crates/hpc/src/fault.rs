//! Failure injection.
//!
//! Large-scale RE simulations "are more susceptive to both hardware and
//! software failures, which result in failures of individual replicas"
//! (Section 2.1). Tasks fail independently with an exponential time-to-
//! failure; the framework layer decides whether to relaunch or continue.
//! [`HazardModel`] generalises the constant-rate model to time-correlated
//! failure storms (piecewise-constant hazard). Failure times are
//! [`Rng::exp`] draws (one uniform per task under a storm) from the caller's
//! unit-scoped generator, so an outcome is a function of the unit's identity.

use rng::Rng;

/// Why an MTBF value was rejected by [`FaultModel::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultModelError {
    /// MTBF was NaN.
    NaN,
    /// MTBF was zero or negative.
    NonPositive,
    /// MTBF was a positive subnormal: the implied rate overflows.
    Subnormal,
}

impl std::fmt::Display for FaultModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultModelError::NaN => write!(f, "MTBF must not be NaN"),
            FaultModelError::NonPositive => write!(f, "MTBF must be positive"),
            FaultModelError::Subnormal => {
                write!(f, "MTBF is subnormal; the failure rate would overflow")
            }
        }
    }
}

impl std::error::Error for FaultModelError {}

/// Exponential per-task failure model.
///
/// The MTBF is validated once at construction: a `FaultModel` always holds a
/// rate `sample_failure` can draw from.
#[derive(Debug, Clone, Copy)]
pub struct FaultModel {
    /// Mean time between failures for a single running task, in seconds.
    /// `f64::INFINITY` disables failures.
    mtbf_seconds: f64,
}

impl FaultModel {
    pub const NONE: FaultModel = FaultModel { mtbf_seconds: f64::INFINITY };

    pub fn new(mtbf_seconds: f64) -> Result<Self, FaultModelError> {
        if mtbf_seconds.is_nan() {
            return Err(FaultModelError::NaN);
        }
        if mtbf_seconds <= 0.0 {
            return Err(FaultModelError::NonPositive);
        }
        if mtbf_seconds.is_infinite() {
            return Ok(FaultModel::NONE);
        }
        if !mtbf_seconds.is_normal() {
            return Err(FaultModelError::Subnormal);
        }
        Ok(FaultModel { mtbf_seconds })
    }

    /// Mean time between failures in seconds (`INFINITY` when disabled).
    pub fn mtbf_seconds(&self) -> f64 {
        self.mtbf_seconds
    }

    /// Failures per second (0 when disabled).
    pub fn rate(&self) -> f64 {
        if self.mtbf_seconds.is_finite() {
            1.0 / self.mtbf_seconds
        } else {
            0.0
        }
    }

    /// If the task fails before completing `duration` seconds of work,
    /// return the failure time offset; otherwise `None`.
    pub fn sample_failure(&self, duration: f64, rng: &mut Rng) -> Option<f64> {
        if !self.mtbf_seconds.is_finite() {
            return None;
        }
        let t = rng.exp(self.rate());
        (t < duration).then_some(t)
    }

    /// Probability that a task of `duration` seconds fails.
    pub fn failure_probability(&self, duration: f64) -> f64 {
        if !self.mtbf_seconds.is_finite() {
            0.0
        } else {
            1.0 - (-duration / self.mtbf_seconds).exp()
        }
    }
}

/// Time-varying failure hazard: either the classic constant-rate model or a
/// periodic two-phase profile (failure storms).
///
/// The storm profile is a square wave: each period of `period_seconds` opens
/// with a storm window of `storm_fraction * period_seconds` during which the
/// `storm` model's rate applies; the `calm` model's rate applies for the
/// rest. Sampling inverts the integrated hazard H(t): a task fails at the
/// first t where H(t) reaches -ln(U), the standard thinning-free method for
/// piecewise-constant rates.
#[derive(Debug, Clone, Copy)]
pub enum HazardModel {
    /// Time-invariant exponential failures.
    Constant(FaultModel),
    /// Periodic failure storms layered over a calm baseline.
    Storm { calm: FaultModel, storm: FaultModel, period_seconds: f64, storm_fraction: f64 },
}

impl HazardModel {
    pub const NONE: HazardModel = HazardModel::Constant(FaultModel::NONE);

    /// The harshest constant-rate model this hazard can present to a task —
    /// what worst-case capacity planning (the fault-policy lints) should
    /// assume.
    pub fn worst_case(&self) -> FaultModel {
        match self {
            HazardModel::Constant(fm) => *fm,
            HazardModel::Storm { calm, storm, .. } => {
                if storm.rate() >= calm.rate() {
                    *storm
                } else {
                    *calm
                }
            }
        }
    }

    /// If a task starting at absolute time `start` fails before completing
    /// `duration` seconds, return the failure offset from `start`.
    pub fn sample_failure(&self, start: f64, duration: f64, rng: &mut Rng) -> Option<f64> {
        match self {
            HazardModel::Constant(fm) => fm.sample_failure(duration, rng),
            HazardModel::Storm { .. } => {
                let u = rng.f64();
                if u <= f64::MIN_POSITIVE {
                    return Some(0.0);
                }
                let target = -u.ln();
                self.walk_hazard(start, duration, target).1
            }
        }
    }

    /// Probability that a task of `duration` seconds starting at absolute
    /// time `start` fails.
    pub fn failure_probability(&self, start: f64, duration: f64) -> f64 {
        match self {
            HazardModel::Constant(fm) => fm.failure_probability(duration),
            HazardModel::Storm { .. } => {
                let (h, _) = self.walk_hazard(start, duration, f64::INFINITY);
                1.0 - (-h).exp()
            }
        }
    }

    /// Integrate the hazard over `[start, start + duration)`, stopping early
    /// at the offset where the accumulated hazard reaches `target`. Returns
    /// `(accumulated hazard, offset where target was hit)`.
    fn walk_hazard(&self, start: f64, duration: f64, target: f64) -> (f64, Option<f64>) {
        let HazardModel::Storm { calm, storm, period_seconds, storm_fraction } = self else {
            return (0.0, None);
        };
        let period = *period_seconds;
        let boundary = period * storm_fraction;
        let mut t = 0.0;
        let mut h = 0.0;
        while t < duration {
            let phase = (start + t).rem_euclid(period);
            let (rate, phase_end) =
                if phase < boundary { (storm.rate(), boundary) } else { (calm.rate(), period) };
            let seg = (phase_end - phase).min(duration - t);
            if rate > 0.0 && h + rate * seg >= target {
                return (target, Some(t + (target - h) / rate));
            }
            h += rate * seg;
            t += seg;
        }
        (h, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fails() {
        let mut rng = Rng::seed(1);
        for _ in 0..100 {
            assert!(FaultModel::NONE.sample_failure(1e9, &mut rng).is_none());
        }
        assert_eq!(FaultModel::NONE.failure_probability(1e9), 0.0);
    }

    #[test]
    fn invalid_mtbf_is_a_typed_error() {
        assert_eq!(FaultModel::new(f64::NAN), Err(FaultModelError::NaN));
        assert_eq!(FaultModel::new(0.0), Err(FaultModelError::NonPositive));
        assert_eq!(FaultModel::new(-5.0), Err(FaultModelError::NonPositive));
        assert_eq!(FaultModel::new(f64::MIN_POSITIVE / 2.0), Err(FaultModelError::Subnormal));
        // INFINITY is the documented "disabled" value, not an error.
        let off = FaultModel::new(f64::INFINITY).unwrap();
        assert_eq!(off.rate(), 0.0);
    }

    impl PartialEq for FaultModel {
        fn eq(&self, other: &Self) -> bool {
            self.mtbf_seconds == other.mtbf_seconds
        }
    }

    #[test]
    fn empirical_failure_rate_matches_probability() {
        let fm = FaultModel::new(1000.0).unwrap();
        let duration = 500.0;
        let expect = fm.failure_probability(duration);
        let mut rng = Rng::seed(42);
        let trials = 20_000;
        let fails = (0..trials).filter(|_| fm.sample_failure(duration, &mut rng).is_some()).count();
        let rate = fails as f64 / trials as f64;
        assert!((rate - expect).abs() < 0.02, "empirical {rate} vs analytic {expect}");
    }

    #[test]
    fn failure_time_is_within_duration() {
        let fm = FaultModel::new(10.0).unwrap();
        let mut rng = Rng::seed(7);
        for _ in 0..1000 {
            if let Some(t) = fm.sample_failure(25.0, &mut rng) {
                assert!((0.0..25.0).contains(&t));
            }
        }
    }

    #[test]
    fn probability_monotone_in_duration() {
        let fm = FaultModel::new(100.0).unwrap();
        assert!(fm.failure_probability(10.0) < fm.failure_probability(100.0));
        assert!(fm.failure_probability(100.0) < fm.failure_probability(1000.0));
    }

    fn storm() -> HazardModel {
        HazardModel::Storm {
            calm: FaultModel::new(10_000.0).unwrap(),
            storm: FaultModel::new(50.0).unwrap(),
            period_seconds: 1000.0,
            storm_fraction: 0.2,
        }
    }

    #[test]
    fn storm_probability_depends_on_phase() {
        let h = storm();
        // Entirely inside the storm window vs entirely in the calm phase.
        let in_storm = h.failure_probability(10.0, 100.0);
        let in_calm = h.failure_probability(400.0, 100.0);
        assert!(in_storm > 10.0 * in_calm, "storm {in_storm} vs calm {in_calm}");
        // Matches the constant-rate closed forms on each phase.
        let fm_storm = FaultModel::new(50.0).unwrap();
        assert!((in_storm - fm_storm.failure_probability(100.0)).abs() < 1e-12);
    }

    #[test]
    fn storm_hazard_integrates_across_periods() {
        let h = storm();
        // One full period: 200 s at rate 1/50 + 800 s at rate 1/10_000.
        let expect = 1.0 - (-(200.0_f64 / 50.0 + 800.0 / 10_000.0)).exp();
        let p = h.failure_probability(0.0, 1000.0);
        assert!((p - expect).abs() < 1e-12, "{p} vs {expect}");
        // Phase-shifted start covers the same total hazard over a full period.
        let p_shift = h.failure_probability(333.0, 1000.0);
        assert!((p_shift - expect).abs() < 1e-12);
    }

    #[test]
    fn storm_sampling_matches_analytic_probability() {
        let h = storm();
        let mut rng = Rng::seed(11);
        let trials = 20_000;
        let duration = 300.0;
        let start = 900.0; // spans calm tail + storm head of the next period
        let expect = h.failure_probability(start, duration);
        let fails =
            (0..trials).filter(|_| h.sample_failure(start, duration, &mut rng).is_some()).count();
        let rate = fails as f64 / trials as f64;
        assert!((rate - expect).abs() < 0.02, "empirical {rate} vs analytic {expect}");
        for _ in 0..1000 {
            if let Some(t) = h.sample_failure(start, duration, &mut rng) {
                assert!((0.0..duration).contains(&t));
            }
        }
    }

    #[test]
    fn worst_case_picks_the_harsher_phase() {
        assert_eq!(storm().worst_case().mtbf_seconds(), 50.0);
        let c = HazardModel::Constant(FaultModel::new(123.0).unwrap());
        assert_eq!(c.worst_case().mtbf_seconds(), 123.0);
    }
}
