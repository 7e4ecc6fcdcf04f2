//! The four reference campaigns, built as Rust values from a seed.
//!
//! A seed changes `cfg.seed` (and through it the solvation seed the core
//! derives per slot) and nothing else: sizes, patterns, clusters and fault
//! settings are fixed per workload so runs on different seeds do the same
//! amount of work.

use hpc::Scenario;
use repex::config::{DimensionConfig, FaultPolicy, Pattern, SimulationConfig, Workload};

/// Which size set to build: the measured one, or a small one that runs every
/// check in seconds (`--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Quick,
}

/// One benchmark workload: its name, why it exists, and its campaign.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    build: fn(Scale) -> SimulationConfig,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "md-solvated",
        why: "4 solvated 2881-atom replicas: mdsim does >95% of host work; a kernel change shows here and nowhere else",
        build: md_solvated,
    },
    WorkloadSpec {
        name: "wide-1d",
        why: "7000-replica sync T-REMD, Mode I (paper Figs. 6-7): driver, pilot dispatch, staging, hpc timeline; per-replica memory",
        build: wide_1d,
    },
    WorkloadSpec {
        name: "tsu-mode2",
        why: "12x12x12 TSU on 432 cores, Mode II (Figs. 9-11): S/U single-point exchange, multi-dim grouping, wave packing",
        build: tsu_mode2,
    },
    WorkloadSpec {
        name: "async-storm",
        why: "4000-replica async T-REMD under a failure storm with relaunch (Fig. 13): event order, fault sampling, retry",
        build: async_storm,
    },
];

impl WorkloadSpec {
    pub fn find(name: &str) -> Option<&'static WorkloadSpec> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn config(&self, seed: u64, scale: Scale) -> SimulationConfig {
        let mut cfg = (self.build)(scale);
        cfg.title = format!("bench {}", self.name);
        cfg.seed = seed;
        cfg
    }
}

fn md_solvated(scale: Scale) -> SimulationConfig {
    let (atoms, surrogate) = match scale {
        Scale::Full => (2881, 40),
        Scale::Quick => (600, 5),
    };
    let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
    cfg.workload = Some(Workload::DipeptideSolvated { atoms });
    cfg.cost_atoms = Some(2881);
    cfg.surrogate_steps = surrogate;
    cfg
}

fn wide_1d(scale: Scale) -> SimulationConfig {
    let (replicas, cycles) = match scale {
        Scale::Full => (7000, 10),
        Scale::Quick => (96, 3),
    };
    let mut cfg = SimulationConfig::t_remd(replicas, 6000, cycles);
    cfg.surrogate_steps = 5;
    cfg
}

fn tsu_mode2(scale: Scale) -> SimulationConfig {
    let (per_dim, cores, cycles) = match scale {
        Scale::Full => (12, 432, 8),
        Scale::Quick => (4, 16, 2),
    };
    let mut cfg = SimulationConfig::t_remd(per_dim, 6000, cycles);
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: per_dim },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: per_dim },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: per_dim, k_deg: 0.02 },
    ];
    cfg.resource.cluster = "stampede".into();
    cfg.resource.cores = Some(cores);
    cfg.surrogate_steps = 5;
    cfg
}

fn async_storm(scale: Scale) -> SimulationConfig {
    let (replicas, segments) = match scale {
        Scale::Full => (4000, 16),
        Scale::Quick => (64, 6),
    };
    let mut cfg = SimulationConfig::t_remd(replicas, 6000, segments);
    cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    cfg.scenario = Some(Scenario::FailureStorm {
        storm_mtbf_seconds: 2000.0,
        period_seconds: 600.0,
        storm_fraction: 0.3,
    });
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 3 };
    cfg.surrogate_steps = 5;
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_configs() {
        for w in &WORKLOADS {
            for scale in [Scale::Full, Scale::Quick] {
                assert_eq!(w.config(7, scale), w.config(7, scale), "{}", w.name);
            }
        }
    }

    #[test]
    fn a_different_seed_changes_only_the_seed() {
        for w in &WORKLOADS {
            let a = w.config(1, Scale::Full);
            let mut b = w.config(2, Scale::Full);
            assert_eq!(b.seed, 2);
            assert_ne!(a, b, "{}", w.name);
            b.seed = a.seed;
            assert_eq!(a, b, "{}: seed leaked into another field", w.name);
        }
    }

    #[test]
    fn every_config_validates_at_both_scales() {
        for w in &WORKLOADS {
            for scale in [Scale::Full, Scale::Quick] {
                w.config(3, scale).validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn full_sizes_match_the_catalogue() {
        let n = |name: &str| {
            WorkloadSpec::find(name).unwrap().config(1, Scale::Full).n_replicas().unwrap()
        };
        assert_eq!(n("md-solvated"), 4);
        assert_eq!(n("wide-1d"), 7000);
        assert_eq!(n("tsu-mode2"), 1728);
        assert_eq!(n("async-storm"), 4000);
        let tsu = WorkloadSpec::find("tsu-mode2").unwrap().config(1, Scale::Full);
        assert_eq!(tsu.execution_mode().unwrap(), 2);
        assert!(WorkloadSpec::find("nope").is_none());
    }
}
