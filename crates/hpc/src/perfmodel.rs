//! Calibrated task-duration models.
//!
//! The virtual cluster charges each task a wall-clock duration from these
//! models. The constants are calibrated against the paper's measured
//! values so that the *shapes* of the evaluation figures reproduce:
//!
//! * `sander`, 2 881 atoms, 6 000 steps, 1 SuperMIC core → **139.6 s**
//!   (Fig. 6: "the time to perform 6000 time-steps is nearly identical …
//!   139.6 seconds");
//! * NAMD, 2 881 atoms, 4 000 steps → ≈ 215 s (Fig. 8);
//! * TSU M-REMD on Stampede: per-cycle MD across 3 dimensions ≈ 495 s
//!   (Fig. 9), i.e. ≈ 165 s per dimension on Stampede's slower cores;
//! * `pmemd.MPI` multi-core scaling saturating for the 64 366-atom system
//!   (Fig. 12);
//! * RP overhead ∝ number of concurrently launched tasks, ≈ 45 s at 1 728
//!   replicas on SuperMIC (Fig. 5);
//! * data staging times ordered T < U < S with S ≈ 6.3 s at 1 728 replicas
//!   (Fig. 5).
//!
//! Run-to-run spread is a lognormal factor of median 1,
//! `exp(sigma * `[`Rng::normal`]`)` ([`NoiseModel`]), drawn from the caller's
//! unit-scoped generator.

use crate::cluster::ClusterSpec;
use rng::Rng;

/// Which executable a task runs (determines the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    Sander,
    PmemdMpi,
    /// GPU build of pmemd (the paper's Section 5: "preliminary results show
    /// that RepEx can easily be extended to support use of GPUs").
    PmemdCuda,
    Namd2,
    GmxMdrun,
}

impl EngineKind {
    pub fn executable(self) -> &'static str {
        match self {
            EngineKind::Sander => "sander",
            EngineKind::PmemdMpi => "pmemd.MPI",
            EngineKind::PmemdCuda => "pmemd.cuda",
            EngineKind::Namd2 => "namd2",
            EngineKind::GmxMdrun => "gmx mdrun",
        }
    }
}

/// Exchange parameter type (determines exchange + data cost models).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeKind {
    Temperature,
    Umbrella,
    Salt,
    /// pH exchange (the paper's proposed extension; cost profile like T —
    /// a single light task using already-staged energies).
    Ph,
}

impl ExchangeKind {
    pub fn letter(self) -> char {
        match self {
            ExchangeKind::Temperature => 'T',
            ExchangeKind::Umbrella => 'U',
            ExchangeKind::Salt => 'S',
            ExchangeKind::Ph => 'P',
        }
    }

    /// The kind a single-letter code names (the inverse of [`Self::letter`]).
    pub fn from_letter(letter: char) -> Option<Self> {
        match letter {
            'T' => Some(ExchangeKind::Temperature),
            'U' => Some(ExchangeKind::Umbrella),
            'S' => Some(ExchangeKind::Salt),
            'P' => Some(ExchangeKind::Ph),
            _ => None,
        }
    }
}

/// MD wall-time model.
#[derive(Debug, Clone, Copy)]
pub struct MdCostModel {
    /// sander: seconds per (atom × step) on a speed-1.0 core.
    pub sander_per_atom_step: f64,
    /// namd2: seconds per (atom × step).
    pub namd_per_atom_step: f64,
    /// pmemd.MPI serial-equivalent speed advantage over sander.
    pub pmemd_speedup: f64,
    /// Amdahl parallel fraction of pmemd.MPI.
    pub pmemd_parallel_fraction: f64,
    /// gmx mdrun single-core speed advantage over sander.
    pub gmx_speedup: f64,
    /// pmemd.cuda speedup over single-core sander (one GPU per replica;
    /// K20-era GPUs of the paper's Stampede ran pmemd.cuda at roughly 25-30x a
    /// single Sandy Bridge core).
    pub gpu_speedup: f64,
}

impl Default for MdCostModel {
    fn default() -> Self {
        MdCostModel {
            // 139.6 s / (2881 atoms × 6000 steps)
            sander_per_atom_step: 139.6 / (2881.0 * 6000.0),
            // ≈215 s / (2881 atoms × 4000 steps)
            namd_per_atom_step: 215.0 / (2881.0 * 4000.0),
            pmemd_speedup: 1.6,
            pmemd_parallel_fraction: 0.995,
            gmx_speedup: 2.1,
            gpu_speedup: 28.0,
        }
    }
}

impl MdCostModel {
    /// Wall seconds for an MD segment of `steps` steps on `atoms` atoms using
    /// `cores` cores of a machine with relative `core_speed`.
    pub fn md_seconds(
        &self,
        engine: EngineKind,
        atoms: usize,
        steps: u64,
        cores: usize,
        core_speed: f64,
    ) -> f64 {
        assert!(cores >= 1 && core_speed > 0.0);
        let work = atoms as f64 * steps as f64 / core_speed;
        match engine {
            EngineKind::Sander => self.sander_per_atom_step * work,
            EngineKind::Namd2 => self.namd_per_atom_step * work,
            EngineKind::GmxMdrun => self.sander_per_atom_step * work / self.gmx_speedup,
            EngineKind::PmemdCuda => self.sander_per_atom_step * work / self.gpu_speedup,
            EngineKind::PmemdMpi => {
                let t1 = self.sander_per_atom_step * work / self.pmemd_speedup;
                let f = self.pmemd_parallel_fraction;
                t1 * ((1.0 - f) + f / cores as f64)
            }
        }
    }
}

/// Exchange-phase compute-time model.
///
/// T- and U-exchange run as a single task whose cost grows linearly with the
/// number of participating replicas. S-exchange additionally launches one
/// single-point-energy task per replica (using Amber group files that need
/// as many cores as the group has members), which is why its constants are
/// an order of magnitude larger (Fig. 6, Section 4.2).
#[derive(Debug, Clone, Copy)]
pub struct ExchangeCostModel {
    pub t_base: f64,
    pub t_per_replica: f64,
    pub u_base: f64,
    pub u_per_replica: f64,
    /// S-exchange: serialized launch cost per single-point task (through the
    /// RP agent) — the reason S-exchange grows linearly with replicas even
    /// in Execution Mode I (Fig. 6).
    pub sp_launch: f64,
    /// S-exchange: wall seconds of one single-point energy task (Amber
    /// startup + group-file evaluation).
    pub sp_task: f64,
    /// NAMD's exchange path has extra, bursty per-cycle variance
    /// ("growth rate for exchange times can't be characterized as
    /// monomial", Fig. 8); modelled as a larger lognormal sigma.
    pub namd_sigma: f64,
}

impl Default for ExchangeCostModel {
    fn default() -> Self {
        ExchangeCostModel {
            t_base: 0.8,
            t_per_replica: 0.019,
            u_base: 1.0,
            u_per_replica: 0.022,
            sp_launch: 0.12,
            sp_task: 8.75,
            namd_sigma: 0.35,
        }
    }
}

impl ExchangeCostModel {
    /// Deterministic exchange compute seconds for T- and U-exchange (a
    /// single MPI task whose cost grows linearly with the replica count).
    /// For S-exchange this returns the Execution-Mode-I 1-D value; use
    /// [`ExchangeCostModel::salt_wall_seconds`] when core counts matter.
    pub fn exchange_seconds(&self, kind: ExchangeKind, n_replicas: usize) -> f64 {
        let n = n_replicas as f64;
        match kind {
            ExchangeKind::Temperature => self.t_base + self.t_per_replica * n,
            ExchangeKind::Umbrella => self.u_base + self.u_per_replica * n,
            ExchangeKind::Salt => self.salt_wall_seconds(n_replicas, n_replicas, n_replicas),
            // pH exchange re-evaluates charges analytically on staged
            // energies; cost profile mirrors the T single-task exchange.
            ExchangeKind::Ph => 0.9 + 0.020 * n,
        }
    }

    /// S-exchange wall time: one single-point task per replica, each needing
    /// as many cores as it evaluates states (the sub-ladder for M-REMD, a
    /// pair for 1-D), launched serially through the agent and batched onto
    /// the pilot's cores. Reproduces both the Mode-I linear growth of Fig. 6
    /// (≈225 s at 1728 replicas) and the Mode-II blow-up of Fig. 10
    /// (≈1800 s at 112 cores).
    pub fn salt_wall_seconds(
        &self,
        n_replicas: usize,
        pilot_cores: usize,
        group_len: usize,
    ) -> f64 {
        if n_replicas == 0 {
            return 0.0;
        }
        let pilot_cores = pilot_cores.max(1);
        // States evaluated per task: the whole sub-ladder in M-REMD; for a
        // 1-D ladder (group == all replicas) only the candidate pair.
        let eval_cores = if group_len >= n_replicas { 2 } else { group_len.max(2) };
        let eval_cores = eval_cores.min(pilot_cores);
        let concurrent = (pilot_cores / eval_cores).max(1);
        let waves = n_replicas.div_ceil(concurrent);
        self.sp_launch * n_replicas as f64 + self.sp_task * waves as f64
    }
}

/// Data-staging time model (`T_data` of Eq. 1).
///
/// Data movement per exchange type differs in file count and size (mdinfo
/// files, restart swaps, DISANG rewrites, group files for S). Coefficients
/// are calibrated to Fig. 5 on SuperMIC and scale with the target machine's
/// filesystem latency relative to SuperMIC's.
#[derive(Debug, Clone, Copy)]
pub struct DataCostModel {
    pub t_base: f64,
    pub t_per_replica: f64,
    pub u_base: f64,
    pub u_per_replica: f64,
    pub s_base: f64,
    pub s_per_replica: f64,
    /// SuperMIC filesystem latency the coefficients were calibrated on.
    pub reference_fs_latency: f64,
}

impl Default for DataCostModel {
    fn default() -> Self {
        DataCostModel {
            t_base: 1.2,
            t_per_replica: 0.0012,
            u_base: 1.5,
            u_per_replica: 0.0018,
            s_base: 1.8,
            s_per_replica: 0.0026, // 1.8 + 0.0026*1728 ≈ 6.3 s (Fig. 5 max)
            reference_fs_latency: 0.010,
        }
    }
}

impl DataCostModel {
    pub fn data_seconds(
        &self,
        kind: ExchangeKind,
        n_replicas: usize,
        cluster: &ClusterSpec,
    ) -> f64 {
        let n = n_replicas as f64;
        let raw = match kind {
            ExchangeKind::Temperature | ExchangeKind::Ph => self.t_base + self.t_per_replica * n,
            ExchangeKind::Umbrella => self.u_base + self.u_per_replica * n,
            ExchangeKind::Salt => self.s_base + self.s_per_replica * n,
        };
        raw * (cluster.fs.latency / self.reference_fs_latency)
    }
}

/// Framework and runtime overhead model (`T_RepEx-over`, `T_RP-over`).
#[derive(Debug, Clone, Copy)]
pub struct OverheadModel {
    /// RepEx task-preparation overhead, 1-D simulations: base + per-replica.
    pub repex_1d_base: f64,
    pub repex_1d_per_replica: f64,
    /// 3-D simulations carry more state per replica (Section 4.1).
    pub repex_3d_base: f64,
    pub repex_3d_per_replica: f64,
    /// Fraction of the cluster's task-launch latency that serializes in the
    /// RP agent per concurrently-launched task (RP 0.35 behaviour).
    pub rp_serial_fraction: f64,
    /// RP 0.35's MPI task-scheduling issue in Execution Mode II: when task
    /// waves must be re-scheduled onto partially-freed cores, the agent pays
    /// a per-cycle cost proportional to the pilot's core count. This is the
    /// defect the paper blames for the strong-scaling efficiency dip that
    /// vanishes at cores = replicas (Fig. 11b): "This behavior is caused by
    /// the MPI task scheduling issue of RP."
    pub mode2_sched_per_core: f64,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            repex_1d_base: 0.8,
            repex_1d_per_replica: 0.0008,
            repex_3d_base: 2.0,
            repex_3d_per_replica: 0.0025,
            rp_serial_fraction: 0.33,
            mode2_sched_per_core: 0.79,
        }
    }
}

impl OverheadModel {
    /// RepEx overhead per cycle for an n-dimensional simulation.
    pub fn repex_seconds(&self, dims: usize, n_replicas: usize) -> f64 {
        let n = n_replicas as f64;
        if dims >= 3 {
            self.repex_3d_base + self.repex_3d_per_replica * n
        } else {
            self.repex_1d_base + self.repex_1d_per_replica * n
        }
    }

    /// RP overhead per cycle: proportional to concurrently launched tasks
    /// (Fig. 5: "RP overhead is proportional to the number of replicas").
    pub fn rp_seconds(&self, concurrent_tasks: usize, cluster: &ClusterSpec) -> f64 {
        0.5 + self.rp_serial_fraction * cluster.task_launch_latency * concurrent_tasks as f64
    }
}

/// Multiplicative lognormal noise for task durations (stragglers).
#[derive(Debug, Clone, Copy)]
pub struct NoiseModel {
    /// Lognormal sigma for MD tasks.
    pub md_sigma: f64,
    /// Lognormal sigma for exchange tasks.
    pub exchange_sigma: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel { md_sigma: 0.015, exchange_sigma: 0.10 }
    }
}

impl NoiseModel {
    /// Draw a multiplicative factor with median 1.0.
    pub fn factor(&self, sigma: f64, rng: &mut Rng) -> f64 {
        if sigma <= 0.0 {
            return 1.0;
        }
        (sigma * rng.normal()).exp()
    }
}

/// Bundle of all calibrated models: what a virtual cluster charges.
#[derive(Debug, Clone, Copy, Default)]
pub struct PerfModel {
    pub md: MdCostModel,
    pub exchange: ExchangeCostModel,
    pub data: DataCostModel,
    pub overhead: OverheadModel,
    pub noise: NoiseModel,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_round_trip_through_from_letter() {
        for kind in [
            ExchangeKind::Temperature,
            ExchangeKind::Umbrella,
            ExchangeKind::Salt,
            ExchangeKind::Ph,
        ] {
            assert_eq!(ExchangeKind::from_letter(kind.letter()), Some(kind));
        }
        assert_eq!(ExchangeKind::from_letter('X'), None);
    }

    #[test]
    fn sander_calibration_point() {
        let m = MdCostModel::default();
        let t = m.md_seconds(EngineKind::Sander, 2881, 6000, 1, 1.0);
        assert!((t - 139.6).abs() < 1e-9, "sander calibration broke: {t}");
    }

    #[test]
    fn namd_calibration_point() {
        let m = MdCostModel::default();
        let t = m.md_seconds(EngineKind::Namd2, 2881, 4000, 1, 1.0);
        assert!((t - 215.0).abs() < 1e-9);
    }

    #[test]
    fn md_time_independent_of_replica_count_depends_on_atoms_steps() {
        let m = MdCostModel::default();
        let t1 = m.md_seconds(EngineKind::Sander, 2881, 6000, 1, 1.0);
        let t2 = m.md_seconds(EngineKind::Sander, 5762, 6000, 1, 1.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9, "linear in atoms");
        let t3 = m.md_seconds(EngineKind::Sander, 2881, 12000, 1, 1.0);
        assert!((t3 / t1 - 2.0).abs() < 1e-9, "linear in steps");
    }

    #[test]
    fn pmemd_scaling_shape_matches_fig12() {
        // 64 366 atoms, 20 000 steps (Fig. 12 workload): large drop from
        // 1→16 cores, diminishing returns beyond.
        let m = MdCostModel::default();
        let t = |c| m.md_seconds(EngineKind::PmemdMpi, 64366, 20000, c, 0.85);
        let t16 = t(16);
        let t32 = t(32);
        let t64 = t(64);
        assert!(t16 < t(2) / 4.0, "16 cores ≥4x faster than 2");
        let gain_16_32 = t16 / t32;
        let gain_32_64 = t32 / t64;
        assert!(gain_16_32 < 2.0 && gain_16_32 > 1.2, "sublinear: {gain_16_32}");
        assert!(gain_32_64 < gain_16_32, "diminishing returns: {gain_32_64} vs {gain_16_32}");
        // sander single-core on the same workload is ~12000 s (paper plots
        // it divided by 10, ~1200 s bars).
        let sander = m.md_seconds(EngineKind::Sander, 64366, 20000, 1, 0.85);
        assert!(sander > 10_000.0 && sander < 15_000.0, "sander {sander}");
    }

    #[test]
    fn exchange_ordering_s_much_larger() {
        let m = ExchangeCostModel::default();
        for n in [64, 216, 512, 1000, 1728] {
            let t = m.exchange_seconds(ExchangeKind::Temperature, n);
            let u = m.exchange_seconds(ExchangeKind::Umbrella, n);
            let s = m.exchange_seconds(ExchangeKind::Salt, n);
            assert!(s > 3.0 * t, "S-exchange must dominate: {s} vs {t}");
            assert!((u - t).abs() < 0.3 * t.max(u), "T and U similar: {t} vs {u}");
        }
        // Fig. 6: S-exchange ≈ 225 s at 1728 replicas in Mode I.
        let s1728 = m.exchange_seconds(ExchangeKind::Salt, 1728);
        assert!(s1728 > 180.0 && s1728 < 280.0, "{s1728}");
    }

    #[test]
    fn salt_mode_ii_blowup_matches_fig10() {
        let m = ExchangeCostModel::default();
        // TSU with a 12-rung S dimension, 1728 replicas.
        let mode_i = m.salt_wall_seconds(1728, 1728, 12);
        let mode_ii = m.salt_wall_seconds(1728, 112, 12);
        assert!(mode_i > 250.0 && mode_i < 400.0, "Mode I TSU: {mode_i}");
        assert!(mode_ii > 1500.0 && mode_ii < 2100.0, "Fig. 10 at 112 cores ≈1800 s: {mode_ii}");
        // More cores -> cheaper exchange (the Fig. 10 trend).
        let mut prev = f64::INFINITY;
        for cores in [112usize, 224, 432, 864, 1728] {
            let w = m.salt_wall_seconds(1728, cores, 12);
            assert!(w <= prev, "S-exchange time must fall with cores: {w} > {prev}");
            prev = w;
        }
    }

    #[test]
    fn salt_wall_edge_cases() {
        let m = ExchangeCostModel::default();
        assert_eq!(m.salt_wall_seconds(0, 64, 4), 0.0);
        // One core still works (everything serializes).
        let w = m.salt_wall_seconds(10, 1, 4);
        assert!(w > 10.0 * m.sp_task * 0.99);
    }

    #[test]
    fn exchange_growth_is_linear() {
        let m = ExchangeCostModel::default();
        let t = |n| m.exchange_seconds(ExchangeKind::Temperature, n);
        let slope1 = (t(1000) - t(500)) / 500.0;
        let slope2 = (t(1728) - t(1000)) / 728.0;
        assert!((slope1 - slope2).abs() < 1e-12, "nearly linear growth");
    }

    #[test]
    fn data_times_ordered_and_calibrated() {
        let m = DataCostModel::default();
        let c = ClusterSpec::supermic();
        let t = m.data_seconds(ExchangeKind::Temperature, 1728, &c);
        let u = m.data_seconds(ExchangeKind::Umbrella, 1728, &c);
        let s = m.data_seconds(ExchangeKind::Salt, 1728, &c);
        assert!(t < u && u < s, "T < U < S data times");
        assert!((s - 6.3).abs() < 0.5, "S data at 1728 ≈ 6.3 s, got {s}");
    }

    #[test]
    fn rp_overhead_proportional_to_tasks() {
        let m = OverheadModel::default();
        let c = ClusterSpec::supermic();
        let r64 = m.rp_seconds(64, &c);
        let r1728 = m.rp_seconds(1728, &c);
        assert!(r1728 > 20.0 * r64 / 27.0 * 10.0, "grows ~linearly: {r64} -> {r1728}");
        assert!(r1728 > 40.0 && r1728 < 60.0, "≈45 s at 1728 on SuperMIC, got {r1728}");
    }

    #[test]
    fn repex_overhead_3d_exceeds_1d() {
        let m = OverheadModel::default();
        for n in [64, 512, 1728] {
            assert!(m.repex_seconds(3, n) > m.repex_seconds(1, n));
        }
    }

    #[test]
    fn noise_has_median_one() {
        let n = NoiseModel::default();
        let mut rng = Rng::seed(3);
        let mut samples: Vec<f64> = (0..2001).map(|_| n.factor(0.1, &mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert_eq!(n.factor(0.0, &mut rng), 1.0);
    }
}
