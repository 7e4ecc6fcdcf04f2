//! The configurations behind the figures, and the two ways to run one.

use repex::config::{DimensionConfig, EngineChoice, Pattern, SimulationConfig};
use repex::report::SimulationReport;
use repex::simulation::RemdSimulation;

/// The replica-count sweep used by Figs. 5–9 (4³..12³ for M-REMD).
pub const REPLICA_SWEEP: [usize; 5] = [64, 216, 512, 1000, 1728];

/// Per-dimension counts behind the M-REMD sweep (n³ = the totals above).
pub const PER_DIM_SWEEP: [usize; 5] = [4, 6, 8, 10, 12];

/// Core counts of the strong-scaling experiment (Fig. 10).
pub const STRONG_CORES: [usize; 5] = [112, 224, 432, 864, 1728];

/// The 1-D exchange families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneDKind {
    Temperature,
    Umbrella,
    Salt,
}

impl OneDKind {
    pub fn letter(self) -> char {
        match self {
            OneDKind::Temperature => 'T',
            OneDKind::Umbrella => 'U',
            OneDKind::Salt => 'S',
        }
    }

    pub fn dimension(self, count: usize) -> DimensionConfig {
        match self {
            OneDKind::Temperature => {
                DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count }
            }
            OneDKind::Umbrella => {
                DimensionConfig::Umbrella { dihedral: "phi".into(), count, k_deg: 0.02 }
            }
            OneDKind::Salt => DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count },
        }
    }
}

/// A fast simulated-backend 1-D config matching the paper's 1-D experiments:
/// SuperMIC, sander, 6000 steps between exchanges, 2881-atom cost scale,
/// Execution Mode I (cores = replicas).
pub fn one_d_config(kind: OneDKind, n_replicas: usize, cycles: u64) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(n_replicas, 6000, cycles);
    cfg.title = format!("{}-REMD {n_replicas} replicas", kind.letter());
    cfg.dimensions = vec![kind.dimension(n_replicas)];
    cfg.surrogate_steps = 5;
    cfg
}

/// The Fig. 9/10 TSU M-REMD config on Stampede.
pub fn tsu_config(per_dim: usize, cycles: u64, cores: Option<usize>) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(per_dim, 6000, cycles);
    cfg.title = format!("TSU-REMD {per_dim}x{per_dim}x{per_dim}");
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: per_dim },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: per_dim },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: per_dim, k_deg: 0.02 },
    ];
    cfg.resource.cluster = "stampede".into();
    cfg.resource.cores = cores;
    cfg.surrogate_steps = 5;
    cfg
}

/// The Fig. 12 TUU multi-core-replica config (216 replicas, 64 366 atoms,
/// 20 000 steps, Amber on Stampede — `sander` at 1 core/replica,
/// `pmemd.MPI` beyond, exactly as the paper switches executables).
pub fn tuu_multicore_config(cores_per_replica: usize, cycles: u64) -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(6, 20_000, cycles);
    cfg.title = format!("TUU-REMD 216 replicas, {cores_per_replica} cores/replica");
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 6 },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: 6, k_deg: 0.02 },
        DimensionConfig::Umbrella { dihedral: "psi".into(), count: 6, k_deg: 0.02 },
    ];
    cfg.cost_atoms = Some(64_366);
    cfg.resource.cluster = "stampede".into();
    cfg.resource.cores_per_replica = cores_per_replica;
    cfg.surrogate_steps = 5;
    cfg
}

/// The Fig. 8 NAMD weak-scaling config (4000 steps between exchanges).
pub fn namd_config(n_replicas: usize, cycles: u64) -> SimulationConfig {
    let mut cfg = one_d_config(OneDKind::Temperature, n_replicas, cycles);
    cfg.title = format!("T-REMD (NAMD) {n_replicas} replicas");
    cfg.engine = EngineChoice::Namd;
    cfg.steps_per_cycle = 4000;
    cfg
}

/// The Fig. 13 utilization configs (sync vs async T-REMD, SuperMIC, Mode I).
pub fn utilization_config(n_replicas: usize, pattern: Pattern, cycles: u64) -> SimulationConfig {
    let mut cfg = one_d_config(OneDKind::Temperature, n_replicas, cycles);
    cfg.pattern = pattern;
    cfg.title = format!(
        "{} T-REMD {n_replicas}",
        if matches!(pattern, Pattern::Synchronous) { "sync" } else { "async" }
    );
    cfg
}

/// Run a configuration, panicking with context on error (an experiment
/// wants loud failures).
pub fn run(cfg: SimulationConfig) -> SimulationReport {
    let title = cfg.title.clone();
    RemdSimulation::new(cfg)
        .unwrap_or_else(|e| panic!("{title}: bad config: {e}"))
        .run()
        .unwrap_or_else(|e| panic!("{title}: run failed: {e}"))
}

/// Like [`run`], but with structured tracing enabled: returns the report
/// together with the recorder holding the run's event stream and counters.
/// Figures that decompose `Tc` (Fig. 5) or reconstruct utilization
/// (Fig. 13) read from the recorder so the plot and the trace agree.
pub fn run_traced(cfg: SimulationConfig) -> (SimulationReport, obs::Recorder) {
    let title = cfg.title.clone();
    let recorder = obs::Recorder::enabled();
    let report = RemdSimulation::new(cfg)
        .unwrap_or_else(|e| panic!("{title}: bad config: {e}"))
        .with_recorder(recorder.clone())
        .run()
        .unwrap_or_else(|e| panic!("{title}: run failed: {e}"));
    (report, recorder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_consistent() {
        for (per_dim, total) in PER_DIM_SWEEP.iter().zip(REPLICA_SWEEP) {
            assert_eq!(per_dim.pow(3), total);
        }
    }

    #[test]
    fn configs_validate() {
        one_d_config(OneDKind::Temperature, 64, 4).validate().unwrap();
        one_d_config(OneDKind::Umbrella, 216, 4).validate().unwrap();
        one_d_config(OneDKind::Salt, 64, 4).validate().unwrap();
        tsu_config(4, 4, None).validate().unwrap();
        tsu_config(12, 4, Some(112)).validate().unwrap();
        tuu_multicore_config(16, 2).validate().unwrap();
        namd_config(64, 4).validate().unwrap();
        utilization_config(120, Pattern::Asynchronous { tick_fraction: 0.25 }, 3)
            .validate()
            .unwrap();
    }

    #[test]
    fn strong_scaling_configs_select_mode_ii() {
        for cores in &STRONG_CORES[..4] {
            let cfg = tsu_config(12, 2, Some(*cores));
            assert_eq!(cfg.execution_mode().unwrap(), 2, "{cores} cores");
        }
        assert_eq!(tsu_config(12, 2, Some(1728)).execution_mode().unwrap(), 1);
    }

    #[test]
    fn quick_run_smoke() {
        let mut cfg = one_d_config(OneDKind::Temperature, 8, 1);
        cfg.steps_per_cycle = 600;
        let report = run(cfg);
        assert_eq!(report.cycles.len(), 1);
    }

    #[test]
    fn traced_run_captures_the_cycle_structure() {
        let mut cfg = one_d_config(OneDKind::Temperature, 8, 2);
        cfg.steps_per_cycle = 600;
        let (report, recorder) = run_traced(cfg);
        assert_eq!(report.cycles.len(), 2);
        let breakdowns = recorder.cycle_breakdowns();
        assert_eq!(breakdowns.len(), 2);
        for (cycle, bd) in report.cycles.iter().zip(&breakdowns) {
            assert!((cycle.timing.total() - bd.total()).abs() < 1e-9);
        }
    }
}
