//! Bonded force-field terms: harmonic bonds, harmonic angles and periodic
//! torsions. Each term is one function returning the term energy and, when
//! handed a force buffer, accumulating forces into it — the `Option` idiom
//! of `soa.rs`, so the energy-only and energy+force paths are the same
//! expressions and agree bitwise. All formulations are validated against
//! finite differences in the tests of [`crate::forcefield`] and `tests/evaluate.rs`.

use crate::system::PbcBox;
use crate::topology::{Angle, Bond, Torsion};
use crate::vec3::Vec3;

/// Harmonic bond energy `k (r - r0)^2` (Amber convention, no 1/2 factor).
pub fn bond_energy(
    bond: &Bond,
    positions: &[Vec3],
    pbc: &PbcBox,
    forces: Option<&mut [Vec3]>,
) -> f64 {
    let (i, j) = (bond.i as usize, bond.j as usize);
    let d = pbc.min_image(positions[i], positions[j]);
    let r = d.norm();
    let dr = r - bond.r0;
    if let Some(forces) = forces {
        if r > 1e-12 {
            // dE/dr = 2 k (r - r0); force on i is -dE/dr * d/r.
            let f = d * (-2.0 * bond.k * dr / r);
            forces[i] += f;
            forces[j] -= f;
        }
    }
    bond.k * dr * dr
}

/// Harmonic angle energy `k (theta - theta0)^2`.
pub fn angle_energy(
    angle: &Angle,
    positions: &[Vec3],
    pbc: &PbcBox,
    forces: Option<&mut [Vec3]>,
) -> f64 {
    let (i, j, k) = (angle.i as usize, angle.j as usize, angle.k_atom as usize);
    let u = pbc.min_image(positions[i], positions[j]);
    let v = pbc.min_image(positions[k], positions[j]);
    let nu = u.norm();
    let nv = v.norm();
    if nu < 1e-12 || nv < 1e-12 {
        return 0.0;
    }
    let cos_t = (u.dot(v) / (nu * nv)).clamp(-1.0, 1.0);
    let theta = cos_t.acos();
    let dtheta = theta - angle.theta0;
    if let Some(forces) = forces {
        let sin_t = (1.0 - cos_t * cos_t).sqrt().max(1e-8);
        let de_dtheta = 2.0 * angle.k * dtheta;
        // dtheta/dri = -(v_hat - u_hat cos_t) / (|u| sin_t); F_i = -dE/dtheta * dtheta/dri.
        let fi = (v / nv - u * (cos_t / nu)) * (de_dtheta / (nu * sin_t));
        let fk = (u / nu - v * (cos_t / nv)) * (de_dtheta / (nv * sin_t));
        forces[i] += fi;
        forces[k] += fk;
        forces[j] -= fi + fk;
    }
    angle.k * dtheta * dtheta
}

/// Dihedral angle over four positions, radians in `(-pi, pi]`, plus the
/// intermediates needed for the force evaluation.
#[inline]
pub(crate) fn dihedral_geometry(
    ri: Vec3,
    rj: Vec3,
    rk: Vec3,
    rl: Vec3,
    pbc: &PbcBox,
) -> Option<(f64, Vec3, Vec3, Vec3, Vec3, Vec3)> {
    let b1 = pbc.min_image(rj, ri);
    let b2 = pbc.min_image(rk, rj);
    let b3 = pbc.min_image(rl, rk);
    let n1 = b1.cross(b2);
    let n2 = b2.cross(b3);
    let b2n = b2.norm();
    if n1.norm_sq() < 1e-18 || n2.norm_sq() < 1e-18 || b2n < 1e-9 {
        return None; // degenerate geometry: torsion undefined
    }
    let m1 = n1.cross(b2 / b2n);
    let x = n1.dot(n2);
    let y = m1.dot(n2);
    let phi = y.atan2(x);
    Some((phi, b1, b2, b3, n1, n2))
}

/// Apply a generalized torsion force given `dE/dphi` at the four atoms.
///
/// Shared by the periodic torsion term and by harmonic dihedral (umbrella)
/// restraints, which differ only in their `E(phi)`.
#[allow(clippy::too_many_arguments)] // geometry intermediates, hot path
#[inline]
pub(crate) fn apply_dihedral_force(
    atoms: [usize; 4],
    de_dphi: f64,
    b1: Vec3,
    b2: Vec3,
    b3: Vec3,
    n1: Vec3,
    n2: Vec3,
    forces: &mut [Vec3],
) {
    let b2n = b2.norm();
    let fi = n1 * (-de_dphi * b2n / n1.norm_sq());
    let fl = n2 * (de_dphi * b2n / n2.norm_sq());
    // Distribute the torque to the inner atoms (exact gradient identity,
    // verified against finite differences in the forcefield tests):
    // F_j = -(1+p) F_i + q F_l,  F_k = p F_i - (1+q) F_l, with
    // p = b1.b2/|b2|^2 and q = b3.b2/|b2|^2.
    let p = b1.dot(b2) / b2.norm_sq();
    let q = b3.dot(b2) / b2.norm_sq();
    let sv = fi * p - fl * q;
    let fj = -fi - sv;
    let fk = -fl + sv;
    forces[atoms[0]] += fi;
    forces[atoms[1]] += fj;
    forces[atoms[2]] += fk;
    forces[atoms[3]] += fl;
}

/// Periodic torsion energy `k (1 + cos(n phi - delta))`.
pub fn torsion_energy(
    torsion: &Torsion,
    positions: &[Vec3],
    pbc: &PbcBox,
    forces: Option<&mut [Vec3]>,
) -> f64 {
    let (i, j, k, l) =
        (torsion.i as usize, torsion.j as usize, torsion.k_atom as usize, torsion.l as usize);
    let Some((phi, b1, b2, b3, n1, n2)) =
        dihedral_geometry(positions[i], positions[j], positions[k], positions[l], pbc)
    else {
        return 0.0;
    };
    let n = torsion.n as f64;
    let arg = n * phi - torsion.delta;
    if let Some(forces) = forces {
        let de_dphi = -torsion.k * n * arg.sin();
        apply_dihedral_force([i, j, k, l], de_dphi, b1, b2, b3, n1, n2, forces);
    }
    torsion.k * (1.0 + arg.cos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_is_the_same_bits_with_and_without_a_force_buffer() {
        let pos = [
            Vec3::new(0.1, 1.0, 0.2),
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(1.0, 0.1, 0.0),
            Vec3::new(1.3, -0.9, 0.7),
        ];
        let pbc = PbcBox::VACUUM;
        let mut f = vec![Vec3::ZERO; 4];
        let bond = Bond { i: 0, j: 1, k: 120.0, r0: 1.2 };
        assert_eq!(
            bond_energy(&bond, &pos, &pbc, None),
            bond_energy(&bond, &pos, &pbc, Some(&mut f))
        );
        let angle = Angle { i: 0, j: 1, k_atom: 2, k: 35.0, theta0: 1.9 };
        assert_eq!(
            angle_energy(&angle, &pos, &pbc, None),
            angle_energy(&angle, &pos, &pbc, Some(&mut f))
        );
        let t = Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 3.0, n: 3, delta: 0.4 };
        assert_eq!(
            torsion_energy(&t, &pos, &pbc, None),
            torsion_energy(&t, &pos, &pbc, Some(&mut f))
        );
    }

    #[test]
    fn bond_at_equilibrium_has_zero_energy_and_force() {
        let bond = Bond { i: 0, j: 1, k: 300.0, r0: 1.5 };
        let pos = [Vec3::ZERO, Vec3::new(1.5, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bond_energy(&bond, &pos, &PbcBox::VACUUM, Some(&mut f));
        assert!(e.abs() < 1e-12);
        assert!(f[0].norm() < 1e-12);
    }

    #[test]
    fn stretched_bond_pulls_atoms_together() {
        let bond = Bond { i: 0, j: 1, k: 100.0, r0: 1.0 };
        let pos = [Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 2];
        let e = bond_energy(&bond, &pos, &PbcBox::VACUUM, Some(&mut f));
        assert!((e - 100.0).abs() < 1e-12); // k * (2-1)^2
        assert!(f[0].x > 0.0, "atom 0 pulled toward atom 1");
        assert!(f[1].x < 0.0);
        assert!((f[0] + f[1]).norm() < 1e-12, "Newton's third law");
    }

    #[test]
    fn angle_at_equilibrium_is_zero() {
        let angle = Angle { i: 0, j: 1, k_atom: 2, k: 50.0, theta0: std::f64::consts::FRAC_PI_2 };
        let pos = [Vec3::new(1.0, 0.0, 0.0), Vec3::ZERO, Vec3::new(0.0, 1.0, 0.0)];
        let mut f = vec![Vec3::ZERO; 3];
        let e = angle_energy(&angle, &pos, &PbcBox::VACUUM, Some(&mut f));
        assert!(e.abs() < 1e-12);
        assert!(f.iter().all(|v| v.norm() < 1e-9));
    }

    #[test]
    fn angle_forces_sum_to_zero() {
        let angle = Angle { i: 0, j: 1, k_atom: 2, k: 35.0, theta0: 1.9 };
        let pos = [Vec3::new(1.0, 0.3, -0.2), Vec3::ZERO, Vec3::new(-0.4, 1.1, 0.6)];
        let mut f = vec![Vec3::ZERO; 3];
        angle_energy(&angle, &pos, &PbcBox::VACUUM, Some(&mut f));
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10);
    }

    #[test]
    fn torsion_minimum_energy_at_phase() {
        // E = k (1 + cos(phi)) has minimum 0 at phi = ±pi (trans).
        let t = Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 2.0, n: 1, delta: 0.0 };
        let pos = [
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, -1.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = torsion_energy(&t, &pos, &PbcBox::VACUUM, Some(&mut f));
        assert!(e.abs() < 1e-9, "E = {e}");
        assert!(f.iter().all(|v| v.norm() < 1e-8));
    }

    #[test]
    fn torsion_forces_conserve_momentum() {
        let t = Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 3.0, n: 3, delta: 0.4 };
        let pos = [
            Vec3::new(0.1, 1.0, 0.2),
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(1.0, 0.1, 0.0),
            Vec3::new(1.3, -0.9, 0.7),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        torsion_energy(&t, &pos, &PbcBox::VACUUM, Some(&mut f));
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10, "net force {}", total.norm());
    }

    #[test]
    fn degenerate_torsion_returns_zero() {
        // Collinear atoms: n1 = 0 -> undefined torsion must not NaN.
        let t = Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 3.0, n: 2, delta: 0.0 };
        let pos = [
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(2.0, 0.0, 0.0),
            Vec3::new(3.0, 0.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = torsion_energy(&t, &pos, &PbcBox::VACUUM, Some(&mut f));
        assert_eq!(e, 0.0);
        assert!(f.iter().all(|v| v.is_finite()));
    }
}
