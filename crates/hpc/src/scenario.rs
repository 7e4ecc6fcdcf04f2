//! Adversarial stress scenarios.
//!
//! A [`Scenario`] is a config-level description of a hostile environment,
//! layered on top of the baseline fault and performance models: failure
//! storms (time-correlated bursts), heterogeneous node speeds, shared-
//! filesystem slowdowns and straggler injection. The simulated executor
//! applies the scenario when charging task durations; the pre-flight lints
//! and trace analytics reason about the same description, so a scenario's
//! symptoms are both generated and diagnosed from one source of truth.

use crate::cluster::ClusterSpec;
use crate::fault::{FaultModel, FaultModelError, HazardModel};
use rng::Rng;

/// A named stress scenario with its parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scenario {
    /// Periodic bursts of failures: during a storm window the task MTBF
    /// drops to `storm_mtbf_seconds`; outside it the config's baseline
    /// `fault-mtbf-seconds` (or no failures) applies.
    FailureStorm {
        storm_mtbf_seconds: f64,
        period_seconds: f64,
        /// Fraction of each period spent in the storm, in (0, 1].
        storm_fraction: f64,
    },
    /// A stable subset of replicas lands on slow nodes: every MD segment of
    /// an affected replica runs `slowdown`× longer.
    HeterogeneousNodes {
        /// Fraction of replicas pinned to slow nodes, in [0, 1].
        slow_fraction: f64,
        /// Duration multiplier for affected replicas (>= 1).
        slowdown: f64,
    },
    /// Shared-filesystem degradation: metadata latency multiplied by
    /// `latency_factor`, bandwidth multiplied by `bandwidth_factor`.
    SlowFilesystem {
        /// Multiplier on filesystem latency (>= 1).
        latency_factor: f64,
        /// Multiplier on filesystem bandwidth, in (0, 1].
        bandwidth_factor: f64,
    },
    /// Memoryless stragglers: each task independently runs `slowdown`×
    /// longer with probability `fraction`.
    Stragglers {
        /// Per-task probability of straggling, in (0, 1].
        fraction: f64,
        /// Duration multiplier for straggling tasks (>= 1).
        slowdown: f64,
    },
}

// `{"kind": "stragglers", "fraction": 0.1, "slowdown": 3.0}`; `Scenario::name`
// is the short stable name diagnostics and analyze findings use too.
obs::json_enum!(Scenario tagged by "kind" {
    FailureStorm {
        storm_mtbf_seconds: "storm-mtbf-seconds",
        period_seconds: "period-seconds",
        storm_fraction: "storm-fraction",
    }: "failure-storm",
    HeterogeneousNodes { slow_fraction: "slow-fraction", slowdown: "slowdown" }: "heterogeneous-nodes",
    SlowFilesystem {
        latency_factor: "latency-factor",
        bandwidth_factor: "bandwidth-factor",
    }: "slow-filesystem",
    Stragglers { fraction: "fraction", slowdown: "slowdown" }: "stragglers",
});

impl Scenario {
    /// Validate parameters; the message is surfaced as a config diagnostic.
    pub fn check(&self) -> Result<(), String> {
        fn finite_positive(v: f64, what: &str) -> Result<(), String> {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{what} must be a positive finite number, got {v}"));
            }
            Ok(())
        }
        match *self {
            Scenario::FailureStorm { storm_mtbf_seconds, period_seconds, storm_fraction } => {
                FaultModel::new(storm_mtbf_seconds)
                    .map_err(|e| format!("storm-mtbf-seconds: {e}"))?;
                finite_positive(period_seconds, "period-seconds")?;
                if !(storm_fraction > 0.0 && storm_fraction <= 1.0) {
                    return Err(format!("storm-fraction must be in (0, 1], got {storm_fraction}"));
                }
                Ok(())
            }
            Scenario::HeterogeneousNodes { slow_fraction, slowdown } => {
                if !(0.0..=1.0).contains(&slow_fraction) {
                    return Err(format!("slow-fraction must be in [0, 1], got {slow_fraction}"));
                }
                finite_positive(slowdown, "slowdown")?;
                if slowdown < 1.0 {
                    return Err(format!("slowdown must be >= 1, got {slowdown}"));
                }
                Ok(())
            }
            Scenario::SlowFilesystem { latency_factor, bandwidth_factor } => {
                finite_positive(latency_factor, "latency-factor")?;
                if latency_factor < 1.0 {
                    return Err(format!("latency-factor must be >= 1, got {latency_factor}"));
                }
                if !(bandwidth_factor > 0.0 && bandwidth_factor <= 1.0) {
                    return Err(format!(
                        "bandwidth-factor must be in (0, 1], got {bandwidth_factor}"
                    ));
                }
                Ok(())
            }
            Scenario::Stragglers { fraction, slowdown } => {
                if !(fraction > 0.0 && fraction <= 1.0) {
                    return Err(format!("fraction must be in (0, 1], got {fraction}"));
                }
                finite_positive(slowdown, "slowdown")?;
                if slowdown < 1.0 {
                    return Err(format!("slowdown must be >= 1, got {slowdown}"));
                }
                Ok(())
            }
        }
    }

    /// The failure hazard this scenario implies over the baseline model.
    pub fn hazard(&self, base: FaultModel) -> Result<HazardModel, FaultModelError> {
        match *self {
            Scenario::FailureStorm { storm_mtbf_seconds, period_seconds, storm_fraction } => {
                Ok(HazardModel::Storm {
                    calm: base,
                    storm: FaultModel::new(storm_mtbf_seconds)?,
                    period_seconds,
                    storm_fraction,
                })
            }
            _ => Ok(HazardModel::Constant(base)),
        }
    }

    /// Scale a cluster description in place (filesystem scenarios only).
    pub fn apply_to_cluster(&self, spec: &mut ClusterSpec) {
        if let Scenario::SlowFilesystem { latency_factor, bandwidth_factor } = *self {
            spec.fs.latency *= latency_factor;
            spec.fs.bandwidth *= bandwidth_factor;
        }
    }

    /// Multiplicative duration factor for one task. `replica` keys the
    /// stable slow-node membership (heterogeneous scenario); per-task
    /// straggler draws come from the caller's unit-scoped `rng`, so the
    /// outcome is a pure function of the unit identity.
    pub fn speed_factor(&self, replica: Option<usize>, seed: u64, rng: &mut Rng) -> f64 {
        match *self {
            Scenario::HeterogeneousNodes { slow_fraction, slowdown } => match replica {
                Some(r) => {
                    let h = mix64(seed ^ 0x004E_0DE5_u64 ^ (r as u64).wrapping_mul(0x9E37)) as f64
                        / u64::MAX as f64;
                    if h < slow_fraction {
                        slowdown
                    } else {
                        1.0
                    }
                }
                None => 1.0,
            },
            Scenario::Stragglers { fraction, slowdown } => {
                let straggles = rng.f64() < fraction;
                if straggles {
                    slowdown
                } else {
                    1.0
                }
            }
            _ => 1.0,
        }
    }
}

/// The SplitMix64 step: a cheap avalanche for stable membership hashing.
pub use rng::mix64;

#[cfg(test)]
mod tests {
    use super::*;
    use obs::json::{self, Encode};

    #[test]
    fn parameter_validation() {
        assert!(Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 1000.0,
            storm_fraction: 0.2
        }
        .check()
        .is_ok());
        assert!(Scenario::FailureStorm {
            storm_mtbf_seconds: -1.0,
            period_seconds: 1000.0,
            storm_fraction: 0.2
        }
        .check()
        .is_err());
        assert!(Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 1000.0,
            storm_fraction: 1.5
        }
        .check()
        .is_err());
        assert!(Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 2.0 }
            .check()
            .is_ok());
        assert!(Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 0.5 }
            .check()
            .is_err());
        assert!(Scenario::SlowFilesystem { latency_factor: 8.0, bandwidth_factor: 0.25 }
            .check()
            .is_ok());
        assert!(Scenario::SlowFilesystem { latency_factor: 0.5, bandwidth_factor: 0.25 }
            .check()
            .is_err());
        assert!(Scenario::Stragglers { fraction: 0.1, slowdown: 4.0 }.check().is_ok());
        assert!(Scenario::Stragglers { fraction: 0.0, slowdown: 4.0 }.check().is_err());
    }

    #[test]
    fn heterogeneous_membership_is_stable_and_fractional() {
        let sc = Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 };
        let mut rng = Rng::seed(0);
        let n = 1000;
        let slow: Vec<usize> =
            (0..n).filter(|&r| sc.speed_factor(Some(r), 77, &mut rng) > 1.0).collect();
        // Roughly a quarter of replicas are slow, and membership is a pure
        // function of (seed, replica): re-querying gives the same answer.
        assert!((150..350).contains(&slow.len()), "{} slow replicas", slow.len());
        for &r in slow.iter().take(20) {
            assert_eq!(sc.speed_factor(Some(r), 77, &mut rng), 3.0);
        }
        // Tasks with no replica identity (exchanges) are never slowed.
        assert_eq!(sc.speed_factor(None, 77, &mut rng), 1.0);
    }

    #[test]
    fn straggler_draws_follow_the_fraction() {
        let sc = Scenario::Stragglers { fraction: 0.1, slowdown: 8.0 };
        let mut rng = Rng::seed(3);
        let n = 20_000;
        let hits = (0..n).filter(|_| sc.speed_factor(None, 0, &mut rng) > 1.0).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "straggler rate {rate}");
    }

    #[test]
    fn slow_filesystem_scales_cluster_spec() {
        let sc = Scenario::SlowFilesystem { latency_factor: 10.0, bandwidth_factor: 0.5 };
        let mut spec = ClusterSpec::supermic();
        let (lat0, bw0) = (spec.fs.latency, spec.fs.bandwidth);
        sc.apply_to_cluster(&mut spec);
        assert_eq!(spec.fs.latency, lat0 * 10.0);
        assert_eq!(spec.fs.bandwidth, bw0 * 0.5);
        // Non-filesystem scenarios leave the cluster untouched.
        let mut spec2 = ClusterSpec::supermic();
        Scenario::Stragglers { fraction: 0.1, slowdown: 2.0 }.apply_to_cluster(&mut spec2);
        assert_eq!(spec2.fs.latency, lat0);
    }

    #[test]
    fn storm_hazard_worst_case_is_the_storm_phase() {
        let sc = Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 500.0,
            storm_fraction: 0.3,
        };
        let hz = sc.hazard(FaultModel::new(5000.0).unwrap()).unwrap();
        assert_eq!(hz.worst_case().mtbf_seconds(), 50.0);
        // Non-storm scenarios pass the baseline through unchanged.
        let sc2 = Scenario::Stragglers { fraction: 0.1, slowdown: 2.0 };
        let hz2 = sc2.hazard(FaultModel::new(5000.0).unwrap()).unwrap();
        assert_eq!(hz2.worst_case().mtbf_seconds(), 5000.0);
    }

    #[test]
    fn every_scenario_round_trips_through_its_kebab_case_wire_form() {
        let sc = Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 1000.0,
            storm_fraction: 0.2,
        };
        let text = sc.encode().compact();
        assert!(text.contains("\"kind\":\"failure-storm\""), "{text}");
        assert!(text.contains("storm-mtbf-seconds"), "{text}");
        for sc in [
            sc,
            Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 },
            Scenario::SlowFilesystem { latency_factor: 10.0, bandwidth_factor: 0.1 },
            Scenario::Stragglers { fraction: 1.0 / 3.0, slowdown: 2.5 },
        ] {
            assert_eq!(json::from_str::<Scenario>(&sc.encode().compact()), Ok(sc));
        }
        let e = json::from_str::<Scenario>(r#"{"kind": "meteor", "size": 3}"#).unwrap_err();
        assert!(e.to_string().starts_with("/kind: unknown variant `meteor`"), "{e}");
        assert!(e.message.contains("slow-filesystem"), "the accepted names are listed: {e}");
        let e =
            json::from_str::<Scenario>(r#"{"kind": "stragglers", "fraction": "x"}"#).unwrap_err();
        assert_eq!(e.pointer, "/fraction");
    }
}
