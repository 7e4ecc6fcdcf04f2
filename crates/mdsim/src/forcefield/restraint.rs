//! Umbrella-sampling restraints.
//!
//! The paper's U-REMD windows are harmonic restraints on the φ and ψ backbone
//! torsions, `E = k (Δθ)²` with the force constant in kcal·mol⁻¹·degree⁻²
//! (0.02 in the validation run) and Δθ the minimum-image angular difference
//! in degrees. Exchanging umbrella windows between replicas swaps the
//! restraint centers, so the exchange acceptance requires evaluating each
//! replica's coordinates under the partner's bias (`bias_energy`).

use crate::forcefield::bonded::{apply_dihedral_force, dihedral_geometry_of};
use crate::system::PbcBox;
use crate::units::{angle_diff_deg, rad_to_deg};
use crate::vec3::Vec3;

/// Harmonic restraint on a dihedral angle.
#[derive(Debug, Clone, PartialEq)]
pub struct DihedralRestraint {
    /// Name of the restrained dihedral (must exist in the topology's
    /// `named_dihedrals`, e.g. "phi" or "psi").
    pub dihedral: String,
    /// Force constant in kcal/mol/degree².
    pub k_deg: f64,
    /// Restraint center in degrees, in (-180, 180].
    pub center_deg: f64,
}

impl DihedralRestraint {
    pub fn new(dihedral: impl Into<String>, k_deg: f64, center_deg: f64) -> Self {
        DihedralRestraint { dihedral: dihedral.into(), k_deg, center_deg }
    }

    /// Restraint energy for a measured dihedral value in radians.
    #[inline]
    pub fn energy_at(&self, phi_rad: f64) -> f64 {
        let d = angle_diff_deg(rad_to_deg(phi_rad), self.center_deg);
        self.k_deg * d * d
    }

    /// Energy contribution over explicit atom indices; with a force buffer,
    /// the forces are accumulated into it (same energy bits either way).
    pub fn energy(
        &self,
        atoms: [u32; 4],
        positions: &[Vec3],
        pbc: &PbcBox,
        forces: Option<&mut [Vec3]>,
    ) -> f64 {
        let idx = atoms.map(|a| a as usize);
        let Some((phi, b1, b2, b3, n1, n2)) = dihedral_geometry_of(atoms, positions, pbc) else {
            return 0.0;
        };
        if let Some(forces) = forces {
            let d_deg = angle_diff_deg(rad_to_deg(phi), self.center_deg);
            // dE/dphi with phi in radians: dE/d(d_deg) * 180/pi.
            let de_dphi = 2.0 * self.k_deg * d_deg * (180.0 / std::f64::consts::PI);
            apply_dihedral_force(idx, de_dphi, b1, b2, b3, n1, n2, forces);
        }
        self.energy_at(phi)
    }

    /// The `(dihedral name, center in degrees, k)` triples the NAMD and
    /// GROMACS control files carry.
    pub fn to_triples(restraints: &[DihedralRestraint]) -> Vec<(String, f64, f64)> {
        restraints.iter().map(|r| (r.dihedral.clone(), r.center_deg, r.k_deg)).collect()
    }

    /// Inverse of [`DihedralRestraint::to_triples`].
    pub fn from_triples(triples: &[(String, f64, f64)]) -> Vec<DihedralRestraint> {
        triples.iter().map(|(name, center, k)| Self::new(name.clone(), *k, *center)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_at_center_is_zero() {
        let r = DihedralRestraint::new("phi", 0.02, 90.0);
        assert!(r.energy_at(90f64.to_radians()).abs() < 1e-12);
    }

    #[test]
    fn energy_uses_minimum_image_angle() {
        // Center at 170°, measured -170°: the difference is 20°, not 340°.
        let r = DihedralRestraint::new("phi", 0.02, 170.0);
        let e = r.energy_at((-170f64).to_radians());
        assert!((e - 0.02 * 400.0).abs() < 1e-9, "E = {e}");
    }

    #[test]
    fn paper_force_constant_scale() {
        // k = 0.02 kcal/mol/deg², 45° displacement -> 40.5 kcal/mol.
        let r = DihedralRestraint::new("psi", 0.02, 0.0);
        assert!((r.energy_at(45f64.to_radians()) - 40.5).abs() < 1e-9);
    }

    #[test]
    fn triples_carry_center_before_k_and_round_trip() {
        let rs = vec![DihedralRestraint::new("phi", 0.02, 60.0)];
        let triples = DihedralRestraint::to_triples(&rs);
        assert_eq!(triples, vec![("phi".to_string(), 60.0, 0.02)]);
        assert_eq!(DihedralRestraint::from_triples(&triples), rs);
    }

    #[test]
    fn restraint_forces_conserve_momentum() {
        let r = DihedralRestraint::new("phi", 0.05, 60.0);
        let pos = [
            Vec3::new(0.1, 1.0, 0.2),
            Vec3::new(0.0, 0.0, 0.1),
            Vec3::new(1.0, 0.1, 0.0),
            Vec3::new(1.3, -0.9, 0.7),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e = r.energy([0, 1, 2, 3], &pos, &PbcBox::VACUUM, Some(&mut f));
        assert!(e > 0.0);
        let total: Vec3 = f.iter().copied().sum();
        assert!(total.norm() < 1e-10);
    }

    #[test]
    fn force_drives_angle_toward_center() {
        // Start at phi = 0 (cis), restrain toward +90°, integrate a tiny
        // gradient-descent step and check the energy decreases.
        let r = DihedralRestraint::new("phi", 0.02, 90.0);
        let mut pos = vec![
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::ZERO,
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
        ];
        let mut f = vec![Vec3::ZERO; 4];
        let e0 = r.energy([0, 1, 2, 3], &pos, &PbcBox::VACUUM, Some(&mut f));
        for (p, fo) in pos.iter_mut().zip(&f) {
            *p += *fo * 1e-4;
        }
        let mut f2 = vec![Vec3::ZERO; 4];
        let e1 = r.energy([0, 1, 2, 3], &pos, &PbcBox::VACUUM, Some(&mut f2));
        assert!(e1 < e0, "descent step must lower energy: {e0} -> {e1}");
    }
}
