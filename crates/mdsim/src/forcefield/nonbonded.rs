//! Nonbonded interactions: Lennard-Jones and salt-screened Coulomb.
//!
//! The Coulomb term uses Debye–Hückel screening, `E = C q_i q_j
//! exp(-kappa r) / (eps_r r)`, where the inverse Debye length `kappa` grows
//! with the square root of the salt concentration. This is what makes the
//! paper's S-REMD (salt-concentration exchange) physically meaningful in the
//! substrate: changing the salt parameter changes the potential, so exchanges
//! require re-evaluating single-point energies in the swapped salt states.
//!
//! Both terms are truncated at a cutoff with energy shifting so the potential
//! is continuous (no impulsive heating at the cutoff).

use crate::topology::Atom;
use std::collections::HashMap;

/// Coulomb constant in kcal·Å/(mol·e²).
pub const COULOMB_K: f64 = 332.063_71;

/// Debye length prefactor for water at ~300 K: `lambda_D = 3.04 / sqrt(I)` Å
/// with ionic strength `I` in mol/L.
pub const DEBYE_PREFACTOR: f64 = 3.04;

/// Parameters controlling the nonbonded evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NonbondedParams {
    /// Interaction cutoff in Å.
    pub cutoff: f64,
    /// Relative dielectric constant.
    pub dielectric: f64,
    /// Salt concentration in mol/L (0 = unscreened Coulomb).
    pub salt_molar: f64,
    /// Solvent pH (pH-REMD exchange parameter). Affects the effective
    /// charges of titratable sites via their Henderson–Hasselbalch
    /// protonation fraction; 7.0 is the neutral reference.
    pub ph: f64,
}

impl Default for NonbondedParams {
    fn default() -> Self {
        NonbondedParams { cutoff: 9.0, dielectric: 78.5, salt_molar: 0.0, ph: 7.0 }
    }
}

impl NonbondedParams {
    /// Inverse Debye screening length in Å⁻¹ for the current salt
    /// concentration (0 if no salt).
    #[inline]
    pub fn kappa(&self) -> f64 {
        if self.salt_molar <= 0.0 {
            0.0
        } else {
            self.salt_molar.sqrt() / DEBYE_PREFACTOR
        }
    }
}

/// Per-evaluation scalar invariants of the nonbonded kernel, hoisted out of
/// the inner pair loop: the screening length involves a `sqrt`, the Coulomb
/// prefactor a division, and the cutoff screening factor an `exp`, none of
/// which depend on the pair.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NbScalars {
    /// rc².
    pub rc2: f64,
    /// Inverse Debye length.
    pub kappa: f64,
    /// `COULOMB_K / dielectric`.
    pub pref: f64,
    /// `1 / rc` (hoisted so the SoA kernel never divides by the cutoff).
    pub inv_rc: f64,
    /// `exp(-kappa * rc) / rc` — the full Coulomb energy shift per unit
    /// `pref·q_i·q_j`, as a single multiply for the SoA kernel.
    pub cshift: f64,
}

impl NbScalars {
    pub fn new(params: &NonbondedParams) -> Self {
        let rc = params.cutoff;
        let kappa = params.kappa();
        let inv_rc = 1.0 / rc;
        NbScalars {
            rc2: rc * rc,
            kappa,
            pref: COULOMB_K / params.dielectric,
            inv_rc,
            cshift: (-kappa * rc).exp() * inv_rc,
        }
    }
}

/// Mixed Lennard-Jones constants for one (type, type) combination.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LjEntry {
    /// `4 ε_ij` (Lorentz–Berthelot mixed); 0 marks an inactive pair.
    pub(crate) eps4: f64,
    /// `σ_ij²`.
    pub(crate) sigma2: f64,
}

const LJ_INACTIVE: LjEntry = LjEntry { eps4: 0.0, sigma2: 0.0 };

/// Precomputed Lennard-Jones mixing table.
///
/// Atoms are deduplicated into types by their exact `(ε, σ)` bits; the table
/// stores the mixed constants for every type combination. Real systems have
/// a handful of types, so the table is tiny and stays in cache.
///
/// The table depends only on the atoms' LJ parameters — not on charges (pH
/// adjustment changes charges only), salt, dielectric or cutoff (the kernel
/// recomputes the cutoff shift from `eps4`/`sigma2`) — so one table serves
/// every variant evaluated on a system.
#[derive(Debug, Clone)]
pub(crate) struct LjTable {
    n_types: usize,
    /// LJ type index per atom.
    type_of: Vec<u32>,
    /// Flattened `n_types × n_types` symmetric matrix.
    table: Vec<LjEntry>,
}

impl LjTable {
    /// Build the type assignment and mixing table for `atoms`.
    pub fn build(atoms: &[Atom]) -> Self {
        let mut index: HashMap<(u64, u64), u32> = HashMap::new();
        let mut types: Vec<(f64, f64)> = Vec::new();
        let type_of: Vec<u32> = atoms
            .iter()
            .map(|a| {
                *index.entry((a.lj_epsilon.to_bits(), a.lj_sigma.to_bits())).or_insert_with(|| {
                    types.push((a.lj_epsilon, a.lj_sigma));
                    (types.len() - 1) as u32
                })
            })
            .collect();
        let n_types = types.len();
        let mut table = vec![LJ_INACTIVE; n_types * n_types];
        for (ti, &(ei, si)) in types.iter().enumerate() {
            for (tj, &(ej, sj)) in types.iter().enumerate() {
                // Same expressions as the reference kernel, hoisted.
                let eps = (ei * ej).sqrt();
                if eps > 0.0 {
                    let sigma = 0.5 * (si + sj);
                    table[ti * n_types + tj] = LjEntry { eps4: 4.0 * eps, sigma2: sigma * sigma };
                }
            }
        }
        LjTable { n_types, type_of, table }
    }

    /// Cheap staleness check: the table keys on the atom count (LJ
    /// parameters are immutable for any one [`crate::system::System`]).
    pub fn matches(&self, n_atoms: usize) -> bool {
        self.type_of.len() == n_atoms
    }

    /// Mixed constants for the atom pair `(i, j)` — the blocked kernel's
    /// gather phase looks them up per pair.
    #[inline]
    pub(crate) fn entry(&self, i: usize, j: usize) -> LjEntry {
        self.table[self.type_of[i] as usize * self.n_types + self.type_of[j] as usize]
    }
}

/// Pairwise energy and `-(1/r) dE/dr` scaling factor for one LJ + screened
/// Coulomb pair. Returns `(energy, force_over_r)` so that the force on atom
/// `i` is `d * force_over_r` with `d = r_i - r_j`.
///
/// This is the straight-line reference kernel, kept as the oracle: the hot
/// path is the blocked kernel in `soa.rs`, which the tests compare against a
/// loop of this function over the neighbor list (to 1e-9; the blocked kernel
/// reassociates).
#[inline]
pub fn pair_energy_force(ai: &Atom, aj: &Atom, r2: f64, params: &NonbondedParams) -> (f64, f64) {
    let rc = params.cutoff;
    if r2 >= rc * rc || r2 < 1e-12 {
        return (0.0, 0.0);
    }
    let r = r2.sqrt();
    let mut energy = 0.0;
    let mut de_dr = 0.0; // dE/dr

    // Lorentz-Berthelot mixing.
    let eps = (ai.lj_epsilon * aj.lj_epsilon).sqrt();
    if eps > 0.0 {
        let sigma = 0.5 * (ai.lj_sigma + aj.lj_sigma);
        let sr2 = (sigma * sigma) / r2;
        let sr6 = sr2 * sr2 * sr2;
        let sr12 = sr6 * sr6;
        // Shifted so E(rc) = 0.
        let src2 = (sigma * sigma) / (rc * rc);
        let src6 = src2 * src2 * src2;
        let eshift = 4.0 * eps * (src6 * src6 - src6);
        energy += 4.0 * eps * (sr12 - sr6) - eshift;
        de_dr += 4.0 * eps * (-12.0 * sr12 + 6.0 * sr6) / r;
    }

    let qq = ai.charge * aj.charge;
    if qq != 0.0 {
        let kappa = params.kappa();
        let pref = COULOMB_K / params.dielectric;
        let screened = |rr: f64| pref * qq * (-kappa * rr).exp() / rr;
        energy += screened(r) - screened(rc);
        // dE/dr of pref*qq*exp(-kr)/r = -pref*qq*exp(-kr)*(k r + 1)/r^2
        de_dr += -pref * qq * (-kappa * r).exp() * (kappa * r + 1.0) / r2;
    }

    (energy, -de_dr / r)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lj_atom() -> Atom {
        Atom { mass: 16.0, charge: 0.0, lj_epsilon: 0.15, lj_sigma: 3.2 }
    }

    fn charged(q: f64) -> Atom {
        Atom { mass: 23.0, charge: q, lj_epsilon: 0.0, lj_sigma: 3.0 }
    }

    #[test]
    fn lj_minimum_at_two_pow_sixth_sigma() {
        let a = lj_atom();
        let params = NonbondedParams { cutoff: 50.0, ..Default::default() };
        let rmin = 2f64.powf(1.0 / 6.0) * a.lj_sigma;
        let (_, f_over_r) = pair_energy_force(&a, &a, rmin * rmin, &params);
        assert!(f_over_r.abs() < 1e-9, "force at minimum should vanish: {f_over_r}");
        // Slightly closer -> repulsive (positive force_over_r pushes apart).
        let (_, f_in) = pair_energy_force(&a, &a, (rmin * 0.95).powi(2), &params);
        assert!(f_in > 0.0);
        // Slightly farther -> attractive.
        let (_, f_out) = pair_energy_force(&a, &a, (rmin * 1.05).powi(2), &params);
        assert!(f_out < 0.0);
    }

    #[test]
    fn energy_is_zero_at_cutoff() {
        let a = lj_atom();
        let params = NonbondedParams { cutoff: 9.0, ..Default::default() };
        let (e, f) = pair_energy_force(&a, &a, 81.0, &params);
        assert_eq!(e, 0.0);
        assert_eq!(f, 0.0);
        // Just inside the cutoff the shifted energy is continuous (tiny).
        let (e_in, _) = pair_energy_force(&a, &a, 80.9, &params);
        assert!(e_in.abs() < 1e-3, "shifted LJ near cutoff: {e_in}");
    }

    #[test]
    fn opposite_charges_attract() {
        let params = NonbondedParams { cutoff: 30.0, dielectric: 1.0, salt_molar: 0.0, ph: 7.0 };
        let (e, f_over_r) = pair_energy_force(&charged(1.0), &charged(-1.0), 25.0, &params);
        assert!(e < 0.0);
        assert!(f_over_r < 0.0, "attractive pair must pull together");
        let (e2, f2) = pair_energy_force(&charged(1.0), &charged(1.0), 25.0, &params);
        assert!(e2 > 0.0);
        assert!(f2 > 0.0);
    }

    #[test]
    fn salt_screens_coulomb() {
        let lo = NonbondedParams { cutoff: 30.0, dielectric: 1.0, salt_molar: 0.0, ph: 7.0 };
        let hi = NonbondedParams { cutoff: 30.0, dielectric: 1.0, salt_molar: 1.0, ph: 7.0 };
        let (e_lo, _) = pair_energy_force(&charged(1.0), &charged(1.0), 16.0, &lo);
        let (e_hi, _) = pair_energy_force(&charged(1.0), &charged(1.0), 16.0, &hi);
        assert!(e_hi < e_lo, "screening must reduce repulsion: {e_hi} vs {e_lo}");
        assert!(e_hi > 0.0);
    }

    #[test]
    fn kappa_scales_with_sqrt_concentration() {
        let p1 = NonbondedParams { salt_molar: 0.25, ..Default::default() };
        let p2 = NonbondedParams { salt_molar: 1.0, ..Default::default() };
        assert!((p2.kappa() / p1.kappa() - 2.0).abs() < 1e-12);
        assert_eq!(NonbondedParams::default().kappa(), 0.0);
    }

    #[test]
    fn lj_table_dedups_types() {
        let atoms = vec![
            Atom::lj(18.0, 0.15, 3.15),
            Atom::lj(18.0, 0.15, 3.15),
            Atom::lj(12.0, 0.1, 3.4),
            Atom::lj(18.0, 0.15, 3.15),
        ];
        let table = LjTable::build(&atoms);
        assert_eq!(table.n_types, 2);
        assert!(table.matches(4));
        assert!(!table.matches(5));
    }

    #[test]
    fn coulomb_force_matches_finite_difference() {
        let params = NonbondedParams { cutoff: 30.0, dielectric: 2.0, salt_molar: 0.5, ph: 7.0 };
        let (ai, aj) = (charged(0.8), charged(-0.6));
        let r = 6.0;
        let h = 1e-6;
        let (e_plus, _) = pair_energy_force(&ai, &aj, (r + h) * (r + h), &params);
        let (e_minus, _) = pair_energy_force(&ai, &aj, (r - h) * (r - h), &params);
        let de_dr_fd = (e_plus - e_minus) / (2.0 * h);
        let (_, f_over_r) = pair_energy_force(&ai, &aj, r * r, &params);
        // force_over_r = -(1/r) dE/dr  =>  dE/dr = -f_over_r * r
        assert!((de_dr_fd + f_over_r * r).abs() < 1e-6, "fd {de_dr_fd} vs {}", -f_over_r * r);
    }

    #[test]
    fn lj_force_matches_finite_difference() {
        let params = NonbondedParams { cutoff: 15.0, ..Default::default() };
        let a = lj_atom();
        for r in [3.0, 3.6, 4.5, 7.0] {
            let h = 1e-6;
            let (e_plus, _) = pair_energy_force(&a, &a, (r + h) * (r + h), &params);
            let (e_minus, _) = pair_energy_force(&a, &a, (r - h) * (r - h), &params);
            let de_dr_fd = (e_plus - e_minus) / (2.0 * h);
            let (_, f_over_r) = pair_energy_force(&a, &a, r * r, &params);
            assert!(
                (de_dr_fd + f_over_r * r).abs() < 1e-4 * de_dr_fd.abs().max(1.0),
                "r={r}: fd {de_dr_fd} vs {}",
                -f_over_r * r
            );
        }
    }
}
