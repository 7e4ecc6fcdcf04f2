//! Molecular topology: atoms and the bonded terms that connect them.
//!
//! The topology is immutable during a simulation; it is shared between the
//! force field and the engines. Indices are `u32` to keep hot structs small
//! (see the type-size guidance in the HPC coding guides).

/// Static per-atom parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Atom {
    /// Mass in amu.
    pub mass: f64,
    /// Partial charge in units of e.
    pub charge: f64,
    /// Lennard-Jones well depth ε in kcal/mol.
    pub lj_epsilon: f64,
    /// Lennard-Jones diameter σ in Å.
    pub lj_sigma: f64,
}

impl Atom {
    /// A neutral LJ particle (used for the synthetic "solvent").
    pub fn lj(mass: f64, epsilon: f64, sigma: f64) -> Self {
        Atom { mass, charge: 0.0, lj_epsilon: epsilon, lj_sigma: sigma }
    }
}

/// Harmonic bond: `E = k (r - r0)^2` (Amber convention, no 1/2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bond {
    pub i: u32,
    pub j: u32,
    /// Force constant in kcal/mol/Å².
    pub k: f64,
    /// Equilibrium length in Å.
    pub r0: f64,
}

/// Harmonic angle: `E = k (θ - θ0)^2` with θ in radians.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Angle {
    pub i: u32,
    pub j: u32,
    pub k_atom: u32,
    /// Force constant in kcal/mol/rad².
    pub k: f64,
    /// Equilibrium angle in radians.
    pub theta0: f64,
}

/// Periodic torsion: `E = k (1 + cos(n φ - δ))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Torsion {
    pub i: u32,
    pub j: u32,
    pub k_atom: u32,
    pub l: u32,
    /// Barrier height in kcal/mol.
    pub k: f64,
    /// Periodicity (1, 2, 3, ...).
    pub n: u32,
    /// Phase δ in radians.
    pub delta: f64,
}

/// A titratable site for constant-pH / pH-exchange simulations. The atom's
/// `charge` stores the deprotonated charge; when protonated (fraction given
/// by Henderson–Hasselbalch at the solvent pH) the site carries
/// `charge + proton_charge`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Titratable {
    pub atom: u32,
    /// Acid dissociation constant of the site.
    pub pka: f64,
    /// Charge added on protonation (usually +1 scaled by partial-charge
    /// conventions).
    pub proton_charge: f64,
}

impl Titratable {
    /// Henderson–Hasselbalch protonated fraction at `ph`.
    #[inline]
    pub fn protonated_fraction(&self, ph: f64) -> f64 {
        1.0 / (1.0 + 10f64.powf(ph - self.pka))
    }

    /// Effective extra charge at `ph`.
    #[inline]
    pub fn charge_shift(&self, ph: f64) -> f64 {
        self.protonated_fraction(ph) * self.proton_charge
    }
}

/// A named torsion that exchange/analysis code can address symbolically
/// (e.g. the φ and ψ backbone dihedrals of the dipeptide model).
#[derive(Debug, Clone, PartialEq)]
pub struct NamedDihedral {
    pub name: String,
    pub atoms: [u32; 4],
}

/// Complete bonded topology plus per-atom parameters.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    pub atoms: Vec<Atom>,
    pub bonds: Vec<Bond>,
    pub angles: Vec<Angle>,
    pub torsions: Vec<Torsion>,
    /// Dihedrals addressable by name (restraint targets, order parameters).
    pub named_dihedrals: Vec<NamedDihedral>,
    /// Titratable sites (pH-REMD exchange parameter).
    pub titratable: Vec<Titratable>,
    /// Pairs excluded from nonbonded interactions (1-2 and 1-3 neighbours),
    /// stored sorted as (min, max).
    pub exclusions: Vec<(u32, u32)>,
}

impl Topology {
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// Look up a named dihedral (e.g. "phi").
    pub fn dihedral(&self, name: &str) -> Option<&NamedDihedral> {
        self.named_dihedrals.iter().find(|d| d.name == name)
    }

    /// Derive the standard exclusion list from bonds (1-2) and angles (1-3).
    /// Idempotent: clears any existing exclusions first.
    pub fn build_exclusions(&mut self) {
        self.exclusions.clear();
        for b in &self.bonds {
            self.exclusions.push(ordered(b.i, b.j));
        }
        for a in &self.angles {
            self.exclusions.push(ordered(a.i, a.k_atom));
        }
        self.exclusions.sort_unstable();
        self.exclusions.dedup();
    }

    /// True if the nonbonded pair (i, j) is excluded.
    pub fn is_excluded(&self, i: u32, j: u32) -> bool {
        self.exclusions.binary_search(&ordered(i, j)).is_ok()
    }

    /// Validate internal consistency (all indices in range, positive masses).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.atoms.len() as u32;
        let check = |idx: u32, what: &str| -> Result<(), String> {
            if idx >= n {
                Err(format!("{what} references atom {idx} but topology has {n} atoms"))
            } else {
                Ok(())
            }
        };
        for (k, a) in self.atoms.iter().enumerate() {
            if a.mass <= 0.0 {
                return Err(format!("atom {k} has non-positive mass {}", a.mass));
            }
        }
        for b in &self.bonds {
            check(b.i, "bond")?;
            check(b.j, "bond")?;
            if b.i == b.j {
                return Err(format!("bond connects atom {} to itself", b.i));
            }
        }
        for a in &self.angles {
            check(a.i, "angle")?;
            check(a.j, "angle")?;
            check(a.k_atom, "angle")?;
        }
        for t in &self.torsions {
            for idx in [t.i, t.j, t.k_atom, t.l] {
                check(idx, "torsion")?;
            }
        }
        for d in &self.named_dihedrals {
            for idx in d.atoms {
                check(idx, "named dihedral")?;
            }
        }
        for t in &self.titratable {
            check(t.atom, "titratable site")?;
        }
        Ok(())
    }

    /// Total mass in amu.
    pub fn total_mass(&self) -> f64 {
        self.atoms.iter().map(|a| a.mass).sum()
    }

    /// Number of degrees of freedom used for instantaneous temperature.
    ///
    /// We subtract 3 for the removed centre-of-mass translation; Langevin
    /// dynamics does not conserve COM momentum exactly, but the convention
    /// matches what the restart/mdinfo files report.
    pub fn degrees_of_freedom(&self) -> usize {
        (3 * self.atoms.len()).saturating_sub(3).max(1)
    }
}

#[inline]
fn ordered(i: u32, j: u32) -> (u32, u32) {
    if i <= j {
        (i, j)
    } else {
        (j, i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Topology {
        let mut top = Topology {
            atoms: vec![Atom::lj(12.0, 0.1, 3.4); 4],
            bonds: vec![
                Bond { i: 0, j: 1, k: 300.0, r0: 1.5 },
                Bond { i: 1, j: 2, k: 300.0, r0: 1.5 },
                Bond { i: 2, j: 3, k: 300.0, r0: 1.5 },
            ],
            angles: vec![
                Angle { i: 0, j: 1, k_atom: 2, k: 50.0, theta0: 1.9 },
                Angle { i: 1, j: 2, k_atom: 3, k: 50.0, theta0: 1.9 },
            ],
            torsions: vec![Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 1.0, n: 3, delta: 0.0 }],
            named_dihedrals: vec![NamedDihedral { name: "phi".into(), atoms: [0, 1, 2, 3] }],
            titratable: vec![],
            exclusions: vec![],
        };
        top.build_exclusions();
        top
    }

    #[test]
    fn exclusions_cover_12_and_13() {
        let top = toy();
        assert!(top.is_excluded(0, 1));
        assert!(top.is_excluded(1, 0)); // symmetric
        assert!(top.is_excluded(0, 2)); // 1-3 via angle
        assert!(!top.is_excluded(0, 3)); // 1-4 not excluded
    }

    #[test]
    fn build_exclusions_is_idempotent() {
        let mut top = toy();
        let before = top.exclusions.clone();
        top.build_exclusions();
        assert_eq!(before, top.exclusions);
    }

    #[test]
    fn validate_accepts_toy() {
        assert!(toy().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_index() {
        let mut top = toy();
        top.bonds.push(Bond { i: 0, j: 99, k: 1.0, r0: 1.0 });
        assert!(top.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_bond_and_bad_mass() {
        let mut top = toy();
        top.bonds.push(Bond { i: 2, j: 2, k: 1.0, r0: 1.0 });
        assert!(top.validate().is_err());

        let mut top2 = toy();
        top2.atoms[0].mass = 0.0;
        assert!(top2.validate().is_err());
    }

    #[test]
    fn named_dihedral_lookup() {
        let top = toy();
        assert_eq!(top.dihedral("phi").unwrap().atoms, [0, 1, 2, 3]);
        assert!(top.dihedral("psi").is_none());
    }

    #[test]
    fn dof_and_mass() {
        let top = toy();
        assert_eq!(top.degrees_of_freedom(), 9);
        assert!((top.total_mass() - 48.0).abs() < 1e-12);
    }
}
