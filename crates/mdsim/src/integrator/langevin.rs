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

/// The buffers a segment integrates with, which a pilot slot keeps from one
/// segment to the next: the force buffer and the [`EvalContext`] (the LJ
/// table keyed by the topology `Arc`, the list and grid capacity, the
/// kernel's blocks). An integrator made from it starts from an invalidated
/// list, so a kept scratch changes no bit and no exact counter.
#[derive(Debug, Default)]
pub struct EngineScratch {
    forces: Vec<Vec3>,
    ctx: EvalContext,
}

impl EngineScratch {
    /// A copy of `state` made in two of the scratch's per-atom buffers, the
    /// force buffer and the pair list's reference positions, which leave
    /// with it; the next integrator makes both anew. The copy that outlives
    /// a segment (the staged restart) then takes what the segment gives up,
    /// and a slot holds at a wave's end what a segment that freed its
    /// buffers left.
    pub(crate) fn copy_out(&mut self, state: &State) -> State {
        // A buffer sized for another system would outlive the copy at its
        // size: only one of exactly the atom count is reused.
        let refill = |mut buf: Vec<Vec3>, from: &[Vec3]| {
            if buf.capacity() != from.len() {
                return from.to_vec();
            }
            buf.clear();
            buf.extend_from_slice(from);
            buf
        };
        let reference = self.ctx.neighbors.take_reference_positions();
        State {
            positions: refill(std::mem::take(&mut self.forces), &state.positions),
            velocities: refill(reference, &state.velocities),
            time_ps: state.time_ps,
            step: state.step,
        }
    }
}

/// BAOAB Langevin integrator. It holds an [`EngineScratch`] (the force
/// buffer and a persistent [`EvalContext`]), so steady stepping neither
/// allocates nor rebuilds the pair list.
pub struct LangevinBaoab {
    dt_ps: f64,
    dt: f64,
    /// Target temperature in K.
    pub temperature: f64,
    /// Friction γ in ps⁻¹.
    pub gamma_ps: f64,
    forces_valid: bool,
    scratch: EngineScratch,
}

impl LangevinBaoab {
    pub fn new(dt_ps: f64, temperature: f64, gamma_ps: f64) -> Self {
        Self::with_scratch(dt_ps, temperature, gamma_ps, EngineScratch::default())
    }

    /// An integrator on buffers kept from an earlier one
    /// ([`LangevinBaoab::into_scratch`]), with its pair list invalidated.
    pub fn with_scratch(
        dt_ps: f64,
        temperature: f64,
        gamma_ps: f64,
        mut scratch: EngineScratch,
    ) -> Self {
        assert!(dt_ps > 0.0 && temperature > 0.0 && gamma_ps >= 0.0);
        scratch.ctx.neighbors.invalidate();
        LangevinBaoab {
            dt_ps,
            dt: dt_ps * AKMA_PER_PS,
            temperature,
            gamma_ps,
            forces_valid: false,
            scratch,
        }
    }

    /// The buffers, for the next integrator.
    pub fn into_scratch(self) -> EngineScratch {
        self.scratch
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
        let EngineScratch { forces, ctx } = &mut self.scratch;
        if forces.len() != n {
            *forces = vec![Vec3::ZERO; n];
            self.forces_valid = false;
        }
        if !self.forces_valid {
            ff.evaluate(system, ctx, Some(forces), threads);
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
        kick(&mut system.state.velocities, forces);
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
        let breakdown = ff.evaluate(system, ctx, Some(forces), threads);
        kick(&mut system.state.velocities, forces);
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
        self.scratch.ctx.invalidate();
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
