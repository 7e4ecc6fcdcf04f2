//! Simple Lennard-Jones fluid — a second workload family used by tests,
//! benches and the quickstart example (argon-like parameters).

use crate::forcefield::{ForceField, NonbondedParams};
use crate::system::{PbcBox, State, System};
use crate::topology::{Atom, Topology};
use crate::vec3::Vec3;
use rng::Rng;

/// Build an LJ fluid of `n` argon-like atoms at reduced density `rho_star`
/// (atoms per σ³; liquid argon ≈ 0.8).
pub fn lj_fluid(n: usize, rho_star: f64, seed: u64) -> System {
    assert!(n > 0 && rho_star > 0.0);
    let sigma: f64 = 3.4;
    let volume = n as f64 * sigma.powi(3) / rho_star;
    let l = volume.cbrt();
    let top = Topology { atoms: vec![Atom::lj(39.95, 0.238, sigma); n], ..Default::default() };

    let mut state = State::zeros(n);
    let per_side = (n as f64).cbrt().ceil() as usize;
    let spacing = l / per_side as f64;
    let mut rng = Rng::seed(seed);
    let mut placed = 0;
    'fill: for x in 0..per_side {
        for y in 0..per_side {
            for z in 0..per_side {
                if placed == n {
                    break 'fill;
                }
                let jitter = Vec3::new(
                    (rng.f64() - 0.5) * 0.2,
                    (rng.f64() - 0.5) * 0.2,
                    (rng.f64() - 0.5) * 0.2,
                );
                state.positions[placed] = Vec3::new(
                    (x as f64 + 0.5) * spacing,
                    (y as f64 + 0.5) * spacing,
                    (z as f64 + 0.5) * spacing,
                ) + jitter;
                placed += 1;
            }
        }
    }
    System::new(top, PbcBox::cubic(l), state).expect("fluid topology is valid")
}

/// Force field matched to [`lj_fluid`].
pub fn lj_forcefield() -> ForceField {
    ForceField::new(NonbondedParams { cutoff: 8.5, dielectric: 1.0, salt_molar: 0.0, ph: 7.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::LangevinBaoab;

    #[test]
    fn density_is_respected() {
        let sys = lj_fluid(125, 0.8, 1);
        let v = sys.pbc.volume().unwrap();
        let rho = 125.0 * 3.4f64.powi(3) / v;
        assert!((rho - 0.8).abs() < 1e-9);
    }

    #[test]
    fn fluid_equilibrates() {
        let mut sys = lj_fluid(64, 0.6, 2);
        let ff = lj_forcefield();
        let mut integ = LangevinBaoab::new(0.004, 95.0, 2.0);
        let mut rng = Rng::seed(12);
        sys.assign_maxwell_boltzmann(95.0, &mut rng);
        for _ in 0..1500 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        assert!(sys.state.is_finite());
        let e = ff.energy(&sys);
        assert!(e.lj < 0.0, "liquid should be cohesive, E_lj = {}", e.lj);
    }
}
