//! Tightly-integrated synchronous T-REMD (the in-engine baseline).
//!
//! Models what Amber/Gromacs-style internal REMD does: all replicas live in
//! one MPI job, the exchange is a collective inside the engine (no staging,
//! no task launches), and the constraint is rigid — exactly one core per
//! replica, synchronous only, temperature only. The exchange math here is
//! *real* (it reuses the same Metropolis criteria on real microstates); only
//! wall-clock durations come from the shared performance model.

use exchange::metropolis::{metropolis_accept, temperature_delta};
use exchange::pairing::{select_pairs, PairingStrategy};
use exchange::param::Dimension;
use exchange::stats::AcceptanceStats;
use hpc::perfmodel::{EngineKind, PerfModel};
use hpc::ClusterSpec;
use mdsim::engine::{MdEngine, MdJob, SanderEngine};
use mdsim::models::{alanine_dipeptide, dipeptide_forcefield};
use rng::Rng;

/// Configuration of the baseline run.
#[derive(Debug, Clone)]
pub struct IntegratedConfig {
    pub n_replicas: usize,
    pub steps_per_cycle: u64,
    pub n_cycles: u64,
    /// Real steps integrated per segment (surrogate; virtual time is
    /// charged for `steps_per_cycle`).
    pub surrogate_steps: u64,
    /// Atom count charged to the cost model.
    pub cost_atoms: usize,
    pub cluster: ClusterSpec,
    pub seed: u64,
}

impl IntegratedConfig {
    pub fn new(n_replicas: usize, steps_per_cycle: u64, n_cycles: u64) -> Self {
        IntegratedConfig {
            n_replicas,
            steps_per_cycle,
            n_cycles,
            surrogate_steps: 20,
            cost_atoms: 2881,
            cluster: ClusterSpec::supermic(),
            seed: 1,
        }
    }
}

/// Results of the baseline run.
#[derive(Debug, Clone)]
pub struct IntegratedReport {
    /// Per-cycle wall time: max replica MD time + collective exchange time.
    pub cycle_times: Vec<f64>,
    pub acceptance: AcceptanceStats,
}

impl IntegratedReport {
    pub fn average_tc(&self) -> f64 {
        self.cycle_times.iter().sum::<f64>() / self.cycle_times.len() as f64
    }
}

/// Cost of the in-engine collective exchange: an MPI allreduce-style step,
/// microseconds per replica — effectively negligible next to RepEx's
/// task-based exchange (that is the point of the baseline).
pub fn integrated_exchange_seconds(n_replicas: usize) -> f64 {
    0.05 + 2e-4 * n_replicas as f64
}

/// Run the tightly-integrated baseline.
pub fn run_integrated_tremd(cfg: &IntegratedConfig) -> IntegratedReport {
    assert!(cfg.n_replicas >= 2);
    let dim = Dimension::temperature_geometric(273.0, 373.0, cfg.n_replicas);
    let temps: Vec<f64> = dim.ladder.iter().map(|p| p.scalar()).collect();
    let engine = SanderEngine::new(dipeptide_forcefield().nonbonded);
    let perf = PerfModel::default();
    let mut rng = Rng::seed(cfg.seed);

    // Real replica microstates; slot i holds temperature temps[i].
    let mut systems: Vec<_> = (0..cfg.n_replicas)
        .map(|i| {
            let mut s = alanine_dipeptide();
            let mut r = Rng::seed(cfg.seed ^ (i as u64 + 1));
            s.assign_maxwell_boltzmann(temps[i], &mut r);
            s
        })
        .collect();

    let md_model = perf.md.md_seconds(
        EngineKind::Sander,
        cfg.cost_atoms,
        cfg.steps_per_cycle,
        1,
        cfg.cluster.core_speed,
    );

    let mut cycle_times = Vec::with_capacity(cfg.n_cycles as usize);
    let mut acceptance = AcceptanceStats::default();
    for cycle in 0..cfg.n_cycles {
        // MD phase: all replicas in lockstep inside the MPI job; the cycle
        // waits for the slowest rank (same straggler model as RepEx).
        let mut energies = Vec::with_capacity(cfg.n_replicas);
        let mut max_md: f64 = 0.0;
        for (i, sys) in systems.iter_mut().enumerate() {
            let job = MdJob {
                steps: cfg.surrogate_steps.min(cfg.steps_per_cycle),
                temperature: temps[i],
                seed: cfg.seed ^ (cycle << 20) ^ i as u64,
                ..Default::default()
            };
            let out = engine.run(sys, &job).expect("baseline MD is stable");
            energies.push(out.mdinfo.physical_potential());
            max_md = max_md.max(md_model * perf.noise.factor(perf.noise.md_sigma, &mut rng));
        }
        // In-engine collective exchange: no staging, no task launch.
        for (a, b) in
            select_pairs(PairingStrategy::NeighborAlternating, cfg.n_replicas, cycle, &mut rng)
        {
            let delta = temperature_delta(temps[a], energies[a], temps[b], energies[b]);
            let accepted = metropolis_accept(delta, &mut rng);
            acceptance.record(accepted);
            if accepted {
                systems.swap(a, b);
                let f = (temps[a] / temps[b]).sqrt();
                for v in &mut systems[a].state.velocities {
                    *v *= f;
                }
                for v in &mut systems[b].state.velocities {
                    *v *= 1.0 / f;
                }
                energies.swap(a, b);
            }
        }
        cycle_times.push(max_md + integrated_exchange_seconds(cfg.n_replicas));
    }
    IntegratedReport { cycle_times, acceptance }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_runs_and_exchanges() {
        let cfg = IntegratedConfig { surrogate_steps: 10, ..IntegratedConfig::new(8, 600, 4) };
        let report = run_integrated_tremd(&cfg);
        assert_eq!(report.cycle_times.len(), 4);
        assert!(report.acceptance.attempts >= 12);
        assert!(report.acceptance.accepted > 0);
        // Cycle time ≈ MD model (600 steps -> 13.96 s) plus tiny exchange.
        let tc = report.average_tc();
        assert!(tc > 13.0 && tc < 16.5, "Tc = {tc}");
    }

    #[test]
    fn baseline_is_cheaper_than_framework_overheads() {
        // The whole point: integrated exchange cost ≪ RepEx exchange cost.
        let n = 1728;
        let integrated = integrated_exchange_seconds(n);
        let repex =
            PerfModel::default().exchange.exchange_seconds(hpc::ExchangeKind::Temperature, n);
        assert!(integrated < repex / 20.0, "integrated {integrated} vs repex {repex}");
    }

    #[test]
    fn cycle_time_nearly_flat_in_replica_count() {
        // Weak scaling of the integrated baseline: cores == replicas, so Tc
        // grows only through the max-straggler and the tiny collective.
        let tc = |n| {
            let cfg = IntegratedConfig { surrogate_steps: 5, ..IntegratedConfig::new(n, 600, 2) };
            run_integrated_tremd(&cfg).average_tc()
        };
        let t8 = tc(8);
        let t64 = tc(64);
        assert!(t64 < t8 * 1.15, "near-flat weak scaling: {t8} -> {t64}");
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = IntegratedConfig { surrogate_steps: 5, ..IntegratedConfig::new(6, 100, 2) };
        let a = run_integrated_tremd(&cfg);
        let b = run_integrated_tremd(&cfg);
        assert_eq!(a.cycle_times, b.cycle_times);
        assert_eq!(a.acceptance, b.acceptance);
    }
}
