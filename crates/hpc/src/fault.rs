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

    /// Mean wall time a *failed* attempt occupies its cores before the
    /// failure fires: `E[T | T < d]` for the exponential failure time,
    /// `1/λ − d·e^{−λd}/(1 − e^{−λd})`. Zero when failures are disabled.
    pub fn mean_failure_offset(&self, duration: f64) -> f64 {
        let p = self.failure_probability(duration);
        if p <= 0.0 {
            return 0.0;
        }
        self.mtbf_seconds - duration * (1.0 - p) / p
    }

    /// Expected wall-time inflation of a `duration`-second segment under a
    /// relaunch-on-failure policy with up to `retries` resubmissions
    /// (`None` = unbounded): failed attempts burn `E[T | T < d]` seconds
    /// each before the replacement starts, so the expected total is
    /// `d + E[#failures]·E[T | T < d]`, returned as a multiplier ≥ 1.
    ///
    /// This is the planner's Eq. 1 relaunch term — a closed form, not a
    /// simulation, so it ignores wave re-packing of relaunched tasks
    /// (second-order at the failure rates the `C044` validation admits).
    pub fn expected_relaunch_inflation(&self, duration: f64, retries: Option<u32>) -> f64 {
        let p = self.failure_probability(duration);
        if p <= 0.0 || duration <= 0.0 {
            return 1.0;
        }
        // Expected failed attempts: sum of p^k for k = 1..=attempts-1 with
        // `attempts = retries + 1` total tries (geometric when unbounded).
        let failures = match retries {
            None => p / (1.0 - p),
            Some(r) => {
                let mut sum = 0.0;
                let mut pk = p;
                for _ in 0..=r {
                    sum += pk;
                    pk *= p;
                }
                sum
            }
        };
        1.0 + failures * self.mean_failure_offset(duration) / duration
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

    /// The constant-rate model with this hazard's *time-averaged* rate —
    /// what expected-cost prediction (the campaign planner) should charge
    /// for tasks whose start times are spread across whole storm periods:
    /// `λ̄ = λ_calm·(1 − f) + λ_storm·f`.
    pub fn mean_model(&self) -> FaultModel {
        match self {
            HazardModel::Constant(fm) => *fm,
            HazardModel::Storm { calm, storm, storm_fraction, .. } => {
                let rate = calm.rate() * (1.0 - storm_fraction) + storm.rate() * storm_fraction;
                if rate > 0.0 {
                    // A mean of two valid rates is a valid rate.
                    FaultModel::new(1.0 / rate).unwrap_or(FaultModel::NONE)
                } else {
                    FaultModel::NONE
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

    #[test]
    fn mean_failure_offset_bounds_and_small_p_limit() {
        let fm = FaultModel::new(1000.0).unwrap();
        let w = fm.mean_failure_offset(100.0);
        // A failed 100 s attempt burns between 0 and 100 seconds; for
        // d ≪ mtbf the conditional failure time is nearly uniform → d/2.
        assert!(w > 0.0 && w < 100.0, "offset {w}");
        assert!((w - 50.0).abs() < 2.0, "small-p limit ≈ d/2, got {w}");
        assert_eq!(FaultModel::NONE.mean_failure_offset(100.0), 0.0);
    }

    #[test]
    fn relaunch_inflation_is_a_multiplier_and_grows_with_retries() {
        let fm = FaultModel::new(200.0).unwrap();
        assert_eq!(FaultModel::NONE.expected_relaunch_inflation(100.0, None), 1.0);
        let r0 = fm.expected_relaunch_inflation(100.0, Some(0));
        let r3 = fm.expected_relaunch_inflation(100.0, Some(3));
        let unbounded = fm.expected_relaunch_inflation(100.0, None);
        assert!(r0 > 1.0);
        assert!(r3 > r0, "{r3} vs {r0}");
        assert!(unbounded >= r3, "{unbounded} vs {r3}");
        // p = 1 − e^{−0.5} ≈ 0.393; unbounded failures p/(1−p) ≈ 0.648,
        // each burning E[T|T<d] < d — inflation stays well under 1 + 0.648.
        assert!(unbounded < 1.648);
    }

    #[test]
    fn mean_model_averages_the_storm_rate() {
        let h = storm(); // calm 1000 s, storm 50 s, fraction 0.25 (see helper)
        let HazardModel::Storm { calm, storm: s, storm_fraction, .. } = h else {
            panic!("helper changed shape");
        };
        let expect = calm.rate() * (1.0 - storm_fraction) + s.rate() * storm_fraction;
        assert!((h.mean_model().rate() - expect).abs() < 1e-15);
        let c = HazardModel::Constant(FaultModel::new(77.0).unwrap());
        assert_eq!(c.mean_model().mtbf_seconds(), 77.0);
        assert_eq!(HazardModel::NONE.mean_model().rate(), 0.0);
    }
}
