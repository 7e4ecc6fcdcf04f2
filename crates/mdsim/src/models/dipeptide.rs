//! Reduced alanine-dipeptide model (Ace-Ala-Nme backbone).
//!
//! The paper validates RepEx with alanine dipeptide solvated in water
//! (2 881 atoms; 64 366 for the multi-core experiments) and measures free
//! energy over the φ/ψ backbone torsions. Our reduced model keeps exactly
//! the observable that matters — a 2-D Ramachandran-like free-energy surface
//! over (φ, ψ) with few-kcal/mol barriers — on a 7-atom heavy-backbone
//! chain:
//!
//! ```text
//!   CH3 - C' - N - CA - C' - N - CH3
//!    0     1   2    3    4    5    6
//!           φ = (1,2,3,4)   ψ = (2,3,4,5)
//! ```
//!
//! Solvated variants add neutral LJ "water" particles in a periodic box at
//! liquid-water number density, which reproduces the *computational cost*
//! scale of the paper's systems without changing the torsional physics.

use crate::forcefield::{ForceField, NonbondedParams};
use crate::system::{PbcBox, State, System};
use crate::topology::{Angle, Atom, Bond, NamedDihedral, Titratable, Topology, Torsion};
use crate::vec3::Vec3;
use rng::Rng;
use std::sync::Arc;

/// Number of backbone atoms in the reduced dipeptide.
pub const BACKBONE_ATOMS: usize = 7;

/// Liquid-water number density in atoms/Å³ (one site per water).
const WATER_NUMBER_DENSITY: f64 = 0.0334;

/// The dipeptide's topology at `total_atoms` atoms: the backbone, then
/// neutral LJ solvent, and a function of nothing else. Whoever builds many
/// systems of one size (a campaign's replicas) builds it once and hands a
/// clone of the `Arc` to [`alanine_dipeptide_on`] or its solvated twin.
pub fn dipeptide_topology(total_atoms: usize) -> Arc<Topology> {
    assert!(total_atoms >= BACKBONE_ATOMS, "the backbone alone is {BACKBONE_ATOMS} atoms");
    let b = |i: u32, j: u32| Bond { i, j, k: 300.0, r0: 1.45 };
    let a = |i: u32, j: u32, k_atom: u32| Angle { i, j, k_atom, k: 60.0, theta0: 1.95 };
    // Ramachandran-like torsion terms: a 2-fold + 1-fold combination per
    // backbone dihedral produces two basins separated by ~3-5 kcal/mol.
    let torsions = vec![
        // phi (1-2-3-4)
        Torsion { i: 1, j: 2, k_atom: 3, l: 4, k: 1.6, n: 2, delta: 0.0 },
        Torsion { i: 1, j: 2, k_atom: 3, l: 4, k: 0.8, n: 1, delta: std::f64::consts::FRAC_PI_3 },
        // psi (2-3-4-5)
        Torsion { i: 2, j: 3, k_atom: 4, l: 5, k: 1.4, n: 2, delta: 0.5 },
        Torsion { i: 2, j: 3, k_atom: 4, l: 5, k: 0.7, n: 1, delta: -std::f64::consts::FRAC_PI_4 },
        // End-cap torsions keep the chain from collapsing.
        Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 0.4, n: 3, delta: 0.0 },
        Torsion { i: 3, j: 4, k_atom: 5, l: 6, k: 0.4, n: 3, delta: 0.0 },
    ];
    // Alternating partial charges make the Coulomb term (and hence salt
    // screening, i.e. S-REMD) matter.
    let charges = [0.0, 0.45, -0.35, 0.10, 0.45, -0.35, 0.0];
    let solvent = Atom { mass: 18.0, charge: 0.0, lj_epsilon: 0.152, lj_sigma: 3.15 };
    let atoms = charges
        .iter()
        .map(|&q| Atom { mass: 13.0, charge: q, lj_epsilon: 0.09, lj_sigma: 3.3 })
        .chain(std::iter::repeat_n(solvent, total_atoms - BACKBONE_ATOMS))
        .collect();
    let mut top = Topology {
        atoms,
        bonds: (0..6).map(|i| b(i, i + 1)).collect(),
        angles: (0..5).map(|i| a(i, i + 1, i + 2)).collect(),
        torsions,
        named_dihedrals: vec![
            NamedDihedral { name: "phi".into(), atoms: [1, 2, 3, 4] },
            NamedDihedral { name: "psi".into(), atoms: [2, 3, 4, 5] },
        ],
        // Two titratable sites (amide-nitrogen-like) so pH-REMD has real
        // physics to act on: protonation shifts their effective charges.
        titratable: vec![
            Titratable { atom: 2, pka: 6.5, proton_charge: 0.5 },
            Titratable { atom: 5, pka: 4.5, proton_charge: 0.5 },
        ],
        exclusions: vec![],
    };
    top.build_exclusions();
    Arc::new(top)
}

/// Extended-chain starting coordinates for the backbone, centred at `origin`.
fn backbone_positions(origin: Vec3) -> Vec<Vec3> {
    // Zig-zag along x so no torsion starts degenerate.
    (0..BACKBONE_ATOMS)
        .map(|i| {
            origin
                + Vec3::new(
                    i as f64 * 1.25,
                    if i % 2 == 0 { 0.45 } else { -0.45 },
                    (i % 3) as f64 * 0.15,
                )
        })
        .collect()
}

/// The vacuum reduced dipeptide (7 atoms) — cheap enough for real REMD
/// sampling in tests, examples and the Fig. 4 validation run.
pub fn alanine_dipeptide() -> System {
    alanine_dipeptide_on(dipeptide_topology(BACKBONE_ATOMS))
}

/// [`alanine_dipeptide`] over a shared [`dipeptide_topology`].
pub fn alanine_dipeptide_on(topology: Arc<Topology>) -> System {
    let mut state = State::zeros(BACKBONE_ATOMS);
    state.positions = backbone_positions(Vec3::ZERO);
    System::new(topology, PbcBox::VACUUM, state).expect("backbone topology is valid")
}

/// Fewest atoms [`solvated_alanine_dipeptide`] builds: at the model's density
/// the box edge must reach twice [`dipeptide_forcefield`]'s cutoff, because
/// the nonbonded kernel and the cell search follow one image per pair.
pub fn min_solvated_atoms() -> usize {
    let edge = 2.0 * dipeptide_forcefield().nonbonded.cutoff;
    ((edge * edge * edge * WATER_NUMBER_DENSITY).ceil() as usize).max(BACKBONE_ATOMS)
}

/// A solvated dipeptide with `total_atoms` atoms (backbone + LJ solvent) in
/// a periodic box at liquid-water density. Matches the paper's cost scale:
/// `total_atoms = 2881` for the 1-D experiments, `64366` for Fig. 12.
/// Panics below [`min_solvated_atoms`].
pub fn solvated_alanine_dipeptide(total_atoms: usize, seed: u64) -> System {
    solvated_alanine_dipeptide_on(dipeptide_topology(total_atoms), seed)
}

/// [`solvated_alanine_dipeptide`] over a shared [`dipeptide_topology`]: only
/// the lattice jitter depends on `seed`.
pub fn solvated_alanine_dipeptide_on(topology: Arc<Topology>, seed: u64) -> System {
    let total_atoms = topology.n_atoms();
    let min = min_solvated_atoms();
    assert!(total_atoms >= min, "need at least {min} atoms, got {total_atoms}");
    let n_solvent = total_atoms - BACKBONE_ATOMS;
    let volume = total_atoms as f64 / WATER_NUMBER_DENSITY;
    let l = volume.cbrt();

    let mut state = State::zeros(total_atoms);
    let centre = Vec3::splat(l / 2.0);
    let bb = backbone_positions(centre - Vec3::new(3.75, 0.0, 0.0));
    state.positions[..BACKBONE_ATOMS].copy_from_slice(&bb);

    // Solvent on a jittered cubic lattice, skipping sites too close to the
    // backbone — avoids initial overlaps that would blow up the integrator.
    let mut rng = Rng::seed(seed);
    let per_side = (total_atoms as f64).cbrt().ceil() as usize;
    let spacing = l / per_side as f64;
    let mut placed = 0;
    'fill: for x in 0..per_side {
        for y in 0..per_side {
            for z in 0..per_side {
                if placed == n_solvent {
                    break 'fill;
                }
                let site = Vec3::new(
                    (x as f64 + 0.5) * spacing,
                    (y as f64 + 0.5) * spacing,
                    (z as f64 + 0.5) * spacing,
                );
                if bb.iter().any(|p| p.distance(site) < 2.5) {
                    continue;
                }
                let jitter = Vec3::new(
                    (rng.f64() - 0.5) * 0.3,
                    (rng.f64() - 0.5) * 0.3,
                    (rng.f64() - 0.5) * 0.3,
                );
                state.positions[BACKBONE_ATOMS + placed] = site + jitter;
                placed += 1;
            }
        }
    }
    assert_eq!(placed, n_solvent, "lattice too small to place all solvent");
    System::new(topology, PbcBox::cubic(l), state).expect("solvated topology is valid")
}

/// The force field the dipeptide models are parameterized for.
pub fn dipeptide_forcefield() -> ForceField {
    ForceField::new(NonbondedParams { cutoff: 9.0, dielectric: 78.5, salt_molar: 0.0, ph: 7.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::integrator::LangevinBaoab;

    #[test]
    fn vacuum_model_shape() {
        let sys = alanine_dipeptide();
        assert_eq!(sys.n_atoms(), BACKBONE_ATOMS);
        assert!(sys.topology.dihedral("phi").is_some());
        assert!(sys.topology.dihedral("psi").is_some());
        assert!(sys.topology.validate().is_ok());
        // Starting geometry is non-degenerate: both dihedrals measurable.
        assert!(sys.named_dihedral_angle("phi").unwrap().is_finite());
        assert!(sys.named_dihedral_angle("psi").unwrap().is_finite());
    }

    #[test]
    fn paper_atom_counts_build() {
        let small = solvated_alanine_dipeptide(2881, 1);
        assert_eq!(small.n_atoms(), 2881);
        assert!(small.pbc.lengths().is_some());
        // Density within 10% of water.
        let v = small.pbc.volume().unwrap();
        let density = 2881.0 / v;
        assert!((density - 0.0334).abs() < 0.004, "density {density}");
    }

    #[test]
    fn no_initial_overlaps_in_solvated_system() {
        let sys = solvated_alanine_dipeptide(600, 3);
        let p = &sys.state.positions;
        for i in 0..sys.n_atoms() {
            for j in (i + 1)..sys.n_atoms() {
                let r = sys.pbc.min_image(p[i], p[j]).norm();
                assert!(r > 0.8, "atoms {i},{j} overlap at r={r}");
            }
        }
    }

    #[test]
    fn vacuum_dynamics_is_stable() {
        let mut sys = alanine_dipeptide();
        let ff = dipeptide_forcefield();
        let mut integ = LangevinBaoab::new(0.002, 300.0, 5.0);
        let mut rng = Rng::seed(99);
        sys.assign_maxwell_boltzmann(300.0, &mut rng);
        for _ in 0..5000 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        assert!(sys.state.is_finite(), "trajectory blew up");
        // Chain stays bonded: no bond stretched beyond 2x equilibrium.
        for b in &sys.topology.bonds {
            let r = (sys.state.positions[b.i as usize] - sys.state.positions[b.j as usize]).norm();
            assert!(r < 2.0 * b.r0, "bond {}-{} at {r} Å", b.i, b.j);
        }
    }

    #[test]
    fn torsional_surface_has_multiple_basins() {
        // Scan the phi torsion energy through rotation of the terminal
        // group: the potential must be non-constant with at least ~2 kcal/mol
        // of corrugation (otherwise T-REMD would be pointless).
        let sys = alanine_dipeptide();
        let phi_terms: Vec<_> = sys
            .topology
            .torsions
            .iter()
            .filter(|t| (t.i, t.j, t.k_atom, t.l) == (1, 2, 3, 4))
            .collect();
        assert!(phi_terms.len() >= 2);
        let energy_at = |phi: f64| -> f64 {
            phi_terms.iter().map(|t| t.k * (1.0 + (t.n as f64 * phi - t.delta).cos())).sum()
        };
        let samples: Vec<f64> =
            (0..72).map(|i| energy_at(i as f64 * 5.0_f64.to_radians())).collect();
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        assert!(max - min > 2.0, "torsional corrugation only {} kcal/mol", max - min);
    }

    #[test]
    fn solvated_dynamics_short_run_is_stable() {
        let mut sys = solvated_alanine_dipeptide(500, 7);
        let ff = dipeptide_forcefield();
        let mut integ = LangevinBaoab::new(0.001, 300.0, 5.0);
        let mut rng = Rng::seed(4);
        sys.assign_maxwell_boltzmann(300.0, &mut rng);
        for _ in 0..200 {
            integ.step(&mut sys, &ff, 1, &mut rng);
        }
        assert!(sys.state.is_finite());
        let t = sys.instantaneous_temperature();
        assert!(t > 50.0 && t < 1500.0, "T = {t} K after 200 steps");
    }
}
