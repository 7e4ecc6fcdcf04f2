//! The time integrator: Langevin dynamics in the BAOAB splitting. At zero
//! friction the O step is the identity (`c1 = 1`, `c2 = 0`) and B-A-A-B is
//! velocity Verlet, so NVE dynamics is `LangevinBaoab::new(dt, T, 0.0)`
//! (energy conservation and the analytic oscillation period are checked on
//! it in `tests/evaluate.rs`).

mod langevin;

pub use langevin::{EngineScratch, LangevinBaoab};

#[cfg(test)]
pub(crate) mod testutil {
    use crate::system::{PbcBox, State, System};
    use crate::topology::{Atom, Bond, Topology};
    use crate::vec3::Vec3;

    /// A diatomic with a harmonic bond: analytically solvable.
    pub fn diatomic(k: f64, r0: f64, stretch: f64) -> System {
        let top = Topology {
            atoms: vec![Atom::lj(12.0, 0.0, 3.0); 2],
            bonds: vec![Bond { i: 0, j: 1, k, r0 }],
            ..Default::default()
        };
        let mut state = State::zeros(2);
        state.positions[1] = Vec3::new(r0 + stretch, 0.0, 0.0);
        System::new(top, PbcBox::VACUUM, state).unwrap()
    }

    /// A small LJ cluster for thermostat tests.
    pub fn lj_lattice(n_side: usize, spacing: f64) -> System {
        let n = n_side * n_side * n_side;
        let top = Topology { atoms: vec![Atom::lj(40.0, 0.24, 3.4); n], ..Default::default() };
        let mut state = State::zeros(n);
        let mut idx = 0;
        for x in 0..n_side {
            for y in 0..n_side {
                for z in 0..n_side {
                    state.positions[idx] =
                        Vec3::new(x as f64 * spacing, y as f64 * spacing, z as f64 * spacing);
                    idx += 1;
                }
            }
        }
        let l = n_side as f64 * spacing;
        System::new(top, PbcBox::cubic(l), state).unwrap()
    }
}
