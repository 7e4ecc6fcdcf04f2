//! Langevin dynamics with the BAOAB splitting (Leimkuhler & Matthews).
//!
//! This is the production thermostat of the substrate: it samples the
//! canonical ensemble at the replica's target temperature, which is exactly
//! what temperature-exchange REMD assumes. The friction constant is given in
//! ps⁻¹ (Amber's `gamma_ln` convention). The noise is three [`Rng::normal`]
//! draws per atom per step from the caller's generator: a replica's
//! trajectory is a function of its segment seed, and independent of the others'.

use crate::forcefield::{EnergyBreakdown, EvalContext, ForceField};
use crate::system::{State, System};
use crate::units::{kbt, AKMA_PER_PS};
use crate::vec3::Vec3;
use rng::Rng;

/// BAOAB Langevin integrator. It owns its scratch force buffer and a
/// persistent [`EvalContext`] (Verlet neighbor list + evaluation scratch), so
/// steady stepping neither allocates nor rebuilds the pair list.
pub struct LangevinBaoab {
    dt_ps: f64,
    dt: f64,
    /// Target temperature in K.
    pub temperature: f64,
    /// Friction γ in ps⁻¹.
    pub gamma_ps: f64,
    forces: Vec<Vec3>,
    forces_valid: bool,
    /// Persistent evaluation state (Verlet list, scratch buffers).
    ctx: EvalContext,
}

impl LangevinBaoab {
    pub fn new(dt_ps: f64, temperature: f64, gamma_ps: f64) -> Self {
        assert!(dt_ps > 0.0 && temperature > 0.0 && gamma_ps >= 0.0);
        LangevinBaoab {
            dt_ps,
            dt: dt_ps * AKMA_PER_PS,
            temperature,
            gamma_ps,
            forces: Vec::new(),
            forces_valid: false,
            ctx: EvalContext::new(),
        }
    }

    /// Change the target temperature (used when a T-exchange is accepted and
    /// the replica keeps its configuration but adopts a new bath).
    pub fn set_temperature(&mut self, t: f64) {
        assert!(t > 0.0);
        self.temperature = t;
    }

    /// Advance by one step, evaluating forces on `threads` threads; returns
    /// the potential-energy breakdown at the new positions.
    pub fn step(
        &mut self,
        system: &mut System,
        ff: &ForceField,
        threads: usize,
        rng: &mut Rng,
    ) -> EnergyBreakdown {
        let n = system.n_atoms();
        if self.forces.len() != n {
            self.forces = vec![Vec3::ZERO; n];
            self.forces_valid = false;
        }
        if !self.forces_valid {
            ff.evaluate(system, &mut self.ctx, Some(&mut self.forces), threads);
        }
        let dt = self.dt;
        let gamma = self.gamma_ps / AKMA_PER_PS; // per AKMA time unit
        let c1 = (-gamma * dt).exp();
        let c2 = (1.0 - c1 * c1).sqrt();
        let kt = kbt(self.temperature);
        // Borrowed once: through the `Arc` the pointer is re-loaded per atom.
        let atoms = &system.topology.atoms[..];
        let kick = |velocities: &mut [Vec3], forces: &[Vec3]| {
            for ((v, f), a) in velocities.iter_mut().zip(forces).zip(atoms) {
                *v += *f * (0.5 * dt * (1.0 / a.mass));
            }
        };
        let drift = |state: &mut State| {
            for (p, v) in state.positions.iter_mut().zip(&state.velocities) {
                *p += *v * (0.5 * dt);
            }
        };

        // B: half kick.
        kick(&mut system.state.velocities, &self.forces);
        // A: half drift.
        drift(&mut system.state);
        // O: Ornstein-Uhlenbeck velocity refresh.
        for (v, a) in system.state.velocities.iter_mut().zip(atoms) {
            let sigma = (kt / a.mass).sqrt();
            let xi = Vec3::new(rng.normal(), rng.normal(), rng.normal());
            *v = *v * c1 + xi * (c2 * sigma);
        }
        // A: half drift.
        drift(&mut system.state);
        // B: half kick with new forces.
        let breakdown = ff.evaluate(system, &mut self.ctx, Some(&mut self.forces), threads);
        kick(&mut system.state.velocities, &self.forces);
        self.forces_valid = true;
        system.state.step += 1;
        system.state.time_ps += self.dt_ps;
        breakdown
    }

    /// Drop cached forces and evaluation state (call after positions change
    /// externally, e.g. when a restart file is loaded or an exchange swaps
    /// configurations).
    pub fn invalidate(&mut self) {
        self.forces_valid = false;
        self.ctx.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{diatomic, lj_lattice};
    use super::*;

    #[test]
    fn thermostat_equilibrates_to_target_temperature() {
        let mut sys = lj_lattice(4, 4.2); // 64 atoms
        let ff = ForceField::default();
        let target = 120.0;
        let mut integ = LangevinBaoab::new(0.002, target, 5.0);
        let mut rng = Rng::seed(17);
        sys.assign_maxwell_boltzmann(300.0, &mut rng); // deliberately wrong T

        // Equilibrate.
        for _ in 0..3000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        // Sample.
        let mut acc = 0.0;
        let samples = 3000;
        for _ in 0..samples {
            integ.step(&mut sys, &ff, 1, &mut rng);
            acc += sys.instantaneous_temperature();
        }
        let mean_t = acc / samples as f64;
        assert!((mean_t - target).abs() < 0.08 * target, "mean T {mean_t} K, target {target} K");
    }

    #[test]
    fn zero_friction_reduces_to_verlet_like_conservation() {
        // gamma = 0 -> the O step is identity; energy should be conserved.
        let mut sys = diatomic(300.0, 1.5, 0.15);
        let ff = ForceField::default();
        let mut integ = LangevinBaoab::new(0.0005, 300.0, 0.0);
        let mut rng = Rng::seed(5);
        let e0 = ff.energy(&sys).total() + sys.kinetic_energy();
        for _ in 0..2000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        let e1 = ff.energy(&sys).total() + sys.kinetic_energy();
        assert!((e1 - e0).abs() < 1e-3 * e0.abs().max(1.0), "drift {}", e1 - e0);
    }

    #[test]
    fn set_temperature_changes_sampling() {
        let mut sys = lj_lattice(3, 4.2);
        let ff = ForceField::default();
        let mut integ = LangevinBaoab::new(0.002, 100.0, 10.0);
        let mut rng = Rng::seed(23);
        sys.assign_maxwell_boltzmann(100.0, &mut rng);
        for _ in 0..2000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        integ.set_temperature(400.0);
        for _ in 0..4000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        let mut acc = 0.0;
        for _ in 0..2000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
            acc += sys.instantaneous_temperature();
        }
        let mean_t = acc / 2000.0;
        assert!(mean_t > 300.0, "after retargeting to 400 K, mean T = {mean_t}");
    }

    #[test]
    fn cached_neighbor_path_matches_fresh_over_100_step_run() {
        // Regression for the Verlet-skin cache: drive a 100-step Langevin
        // trajectory on a system large enough to use the cell-list path, and
        // at every step compare a persistent skin-cached context against a
        // fresh-build context (skin 0 rebuilds on any coordinate change) on
        // the same coordinates. Energies and every force component must
        // agree within 1e-9.
        let mut sys = lj_lattice(8, 4.2); // 512 atoms: cell-list + Verlet path
        let ff = ForceField::default();
        let mut integ = LangevinBaoab::new(0.002, 120.0, 2.0);
        let mut rng = Rng::seed(42);
        sys.assign_maxwell_boltzmann(120.0, &mut rng);

        let n = sys.n_atoms();
        let mut cached = EvalContext::new();
        let mut f_cached = vec![Vec3::ZERO; n];
        let mut f_fresh = vec![Vec3::ZERO; n];
        for step in 0..100 {
            integ.step(&mut sys, &ff, 1, &mut rng);
            let e_cached = ff.energy_forces_ctx(&sys, &mut cached, &mut f_cached);
            let e_fresh =
                ff.energy_forces_ctx(&sys, &mut EvalContext::with_skin(0.0), &mut f_fresh);
            assert!(
                (e_cached.total() - e_fresh.total()).abs() < 1e-9,
                "step {step}: total {} vs {}",
                e_cached.total(),
                e_fresh.total()
            );
            assert!((e_cached.lj - e_fresh.lj).abs() < 1e-9, "step {step} lj");
            assert!((e_cached.coulomb - e_fresh.coulomb).abs() < 1e-9, "step {step} coulomb");
            for (a, b) in f_cached.iter().zip(&f_fresh) {
                assert!((*a - *b).norm() < 1e-9, "step {step}: force {a:?} vs {b:?}");
            }
        }
        assert!(
            cached.neighbors.reuses() > cached.neighbors.rebuilds(),
            "the skin cache must mostly reuse: {} rebuilds, {} reuses",
            cached.neighbors.rebuilds(),
            cached.neighbors.reuses()
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed: u64| {
            let mut sys = diatomic(300.0, 1.5, 0.1);
            let ff = ForceField::default();
            let mut integ = LangevinBaoab::new(0.001, 300.0, 2.0);
            let mut rng = Rng::seed(seed);
            for _ in 0..100 {
                integ.step(&mut sys, &ff, 1, &mut rng);
            }
            sys.state.positions[1]
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
