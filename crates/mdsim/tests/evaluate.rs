//! The force field has one evaluation and the crate one integrator; this
//! file holds what must stay true of them. The oracle for the blocked SoA
//! kernel is the straight-line `pair_energy_force`, looped here over the
//! context's pair list.

use mdsim::forcefield::bonded::{angle_energy, bond_energy, torsion_energy};
use mdsim::forcefield::nonbonded::pair_energy_force;
use mdsim::forcefield::{EnergyBreakdown, NonbondedParams, MIN_CHUNK_PAIRS};
use mdsim::integrator::LangevinBaoab;
use mdsim::models::{
    alanine_dipeptide, dipeptide_forcefield, lj_fluid, lj_forcefield, solvated_alanine_dipeptide,
};
use mdsim::neighbor::{NeighborCache, CELL_LIST_THRESHOLD};
use mdsim::topology::{Angle, Atom, Bond, NamedDihedral, Titratable, Topology, Torsion};
use mdsim::units::AKMA_PER_PS;
use mdsim::{DihedralRestraint, EvalContext, ForceField, PbcBox, State, System, Vec3};
use rng::Rng;
use std::sync::Arc;

/// A periodic LJ fluid two cells wide at its cutoff, made to answer to every
/// axis of the table: alternating charges (salt), one titratable site (pH),
/// every other atom bonded to its successor (exclusions among near
/// neighbours) and four atoms around a lattice corner named "psi".
fn charged_bonded_fluid() -> System {
    let mut sys = lj_fluid(450, 0.8, 5);
    let n = sys.n_atoms() as u32;
    let top = Arc::make_mut(&mut sys.topology);
    for (k, atom) in top.atoms.iter_mut().enumerate() {
        atom.charge = if k % 2 == 0 { 0.25 } else { -0.25 };
    }
    top.titratable = vec![Titratable { atom: 10, pka: 6.0, proton_charge: 0.5 }];
    top.bonds = (0..n - 1).step_by(2).map(|i| Bond { i, j: i + 1, k: 100.0, r0: 3.8 }).collect();
    // Lattice sites (0,0,0), (0,0,1), (0,1,1), (1,1,1) of the 8-per-side
    // fill: a right-angled chain, far from a degenerate dihedral.
    top.named_dihedrals = vec![NamedDihedral { name: "psi".into(), atoms: [0, 1, 9, 73] }];
    top.build_exclusions();
    sys
}

/// `sys` with every bonded term removed and the exclusions kept: what is
/// left of an evaluation is the nonbonded kernel alone.
fn nonbonded_only(sys: &System) -> System {
    let mut nb = sys.clone();
    let top = Arc::make_mut(&mut nb.topology);
    top.bonds.clear();
    top.angles.clear();
    top.torsions.clear();
    nb
}

/// The oracle: `pair_energy_force` over the context's pair list, with the
/// pH-adjusted charges the kernel sees.
fn oracle_nonbonded(ff: &ForceField, sys: &System, ctx: &EvalContext) -> (f64, Vec<Vec3>) {
    let mut atoms = sys.topology.atoms.clone();
    for site in &sys.topology.titratable {
        atoms[site.atom as usize].charge += site.charge_shift(ff.nonbonded.ph);
    }
    let pos = &sys.state.positions;
    let mut energy = 0.0;
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    for (i, j) in ctx.neighbors.pairs().iter() {
        let (i, j) = (i as usize, j as usize);
        let d = sys.pbc.min_image(pos[i], pos[j]);
        let (e, f_over_r) = pair_energy_force(&atoms[i], &atoms[j], d.norm_sq(), &ff.nonbonded);
        energy += e;
        forces[i] += d * f_over_r;
        forces[j] -= d * f_over_r;
    }
    (energy, forces)
}

fn assert_close(a: &[Vec3], b: &[Vec3], tol: f64, what: &str) {
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!((*x - *y).norm() <= tol, "{what}: atom {k}: {x:?} vs {y:?} (tol {tol:e})");
    }
}

/// Evaluate with forces on `threads` threads through `ctx`.
fn eval(
    ff: &ForceField,
    sys: &System,
    ctx: &mut EvalContext,
    threads: usize,
) -> (EnergyBreakdown, Vec<Vec3>) {
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    let e = ff.evaluate(sys, ctx, Some(&mut forces), threads);
    (e, forces)
}

#[test]
fn one_evaluation_across_systems_salt_ph_restraints_and_threads() {
    let systems = [
        ("vacuum dipeptide", alanine_dipeptide(), dipeptide_forcefield()),
        ("periodic fluid", charged_bonded_fluid(), lj_forcefield()),
        ("solvated dipeptide", solvated_alanine_dipeptide(2881, 9), dipeptide_forcefield()),
    ];
    for (name, sys, base) in &systems {
        let nb_sys = nonbonded_only(sys);
        let mut coulombs = Vec::new();
        for salt in [0.0, 0.5] {
            for ph in [7.0, 5.0] {
                for umbrella in [false, true] {
                    let row = format!("{name}, salt {salt}, pH {ph}, umbrella {umbrella}");
                    let mut ff = base.clone();
                    ff.nonbonded.salt_molar = salt;
                    ff.nonbonded.ph = ph;

                    // (a) The SoA kernel against the oracle, nonbonded terms
                    // alone (no restraint yet), to 1e-9 of the energy scale.
                    let mut ctx = EvalContext::new();
                    let (e_nb, f_nb) = eval(&ff, &nb_sys, &mut ctx, 1);
                    let (e_ref, f_ref) = oracle_nonbonded(&ff, &nb_sys, &ctx);
                    let scale = e_ref.abs().max(1.0);
                    assert!(
                        (e_nb.lj + e_nb.coulomb - e_ref).abs() <= 1e-9 * scale,
                        "{row}: nonbonded {} vs oracle {e_ref}",
                        e_nb.lj + e_nb.coulomb
                    );
                    assert_close(&f_nb, &f_ref, 1e-9 * scale, &row);

                    if umbrella {
                        ff.set_restraints(vec![DihedralRestraint::new("psi", 0.02, 30.0)]);
                    }
                    let mut ctx = EvalContext::new();
                    let (e1, f1) = eval(&ff, sys, &mut ctx, 1);
                    // The nonbonded channels do not see the bonded terms.
                    assert_eq!((e1.lj, e1.coulomb), (e_nb.lj, e_nb.coulomb), "{row}");
                    assert_eq!(e1.restraint > 0.0, umbrella, "{row}: restraint {}", e1.restraint);
                    if !umbrella {
                        coulombs.push(e1.coulomb);
                    }

                    // (b) Energy-only is the same bits as energy + forces.
                    assert_eq!(ff.energy_ctx(sys, &mut ctx), e1, "{row}");
                    assert_eq!(ff.energy(sys), e1, "{row}: throwaway context");

                    // (d) Every force is internal: they sum to zero.
                    let net: Vec3 = f1.iter().copied().sum();
                    let f_scale = f1.iter().map(|f| f.norm()).fold(1.0, f64::max);
                    assert!(
                        net.norm() <= 1e-9 * f_scale * sys.n_atoms() as f64,
                        "{row}: net {net:?}"
                    );

                    // (c) More threads: chunks of at least MIN_CHUNK_PAIRS.
                    let n_pairs = ctx.neighbors.pairs().len();
                    let max_chunks = (n_pairs / MIN_CHUNK_PAIRS).max(1);
                    let e_scale = e1.total().abs().max(1.0);
                    for threads in [2, 4, max_chunks + 1] {
                        let (et, ft) = eval(&ff, sys, &mut ctx, threads);
                        if max_chunks == 1 {
                            assert_eq!((et, &ft), (e1, &f1), "{row}: {threads} threads, one chunk");
                        }
                        assert_eq!(
                            (et.bond, et.angle, et.torsion, et.restraint),
                            (e1.bond, e1.angle, e1.torsion, e1.restraint),
                            "{row}"
                        );
                        assert!(
                            (et.lj - e1.lj).abs() <= 1e-9 * e_scale,
                            "{row}: {threads} threads"
                        );
                        assert!((et.coulomb - e1.coulomb).abs() <= 1e-9 * e_scale, "{row}");
                        assert_close(&ft, &f1, 1e-9 * f_scale, &row);
                        // Call to call, and with the scatter skipped: same bits.
                        assert_eq!(eval(&ff, sys, &mut ctx, threads), (et, ft), "{row}");
                        assert_eq!(ff.evaluate(sys, &mut ctx, None, threads), et, "{row}");
                    }
                }
            }
        }
        // The table's axes are live: four (salt, pH) cells, four energies.
        coulombs.sort_by(f64::total_cmp);
        coulombs.dedup();
        assert_eq!(coulombs.len(), 4, "{name}: salt and pH must each move the Coulomb energy");
    }
    // The two smaller systems sit on either side of the chunk floor.
    let pairs = |sys: &System, ff: &ForceField| {
        let mut ctx = EvalContext::new();
        ff.energy_ctx(sys, &mut ctx);
        ctx.neighbors.pairs().len()
    };
    assert!(pairs(&systems[0].1, &systems[0].2) < MIN_CHUNK_PAIRS);
    assert!(pairs(&systems[1].1, &systems[1].2) >= 4 * MIN_CHUNK_PAIRS);
}

/// Geometry the models never produce: edges 30 % apart, and atoms an
/// unwrapped run has carried up to three box lengths out of the primary
/// cell. The lattice puts the atom count on both sides of the cell-list
/// threshold (all-pairs list below, aliased and image-shift grids above).
#[test]
fn kernel_matches_the_oracle_in_orthorhombic_boxes_on_unwrapped_coordinates() {
    // Cases that went through the cell search: [aliased, image-shift].
    let mut searched = [0, 0];
    rng::check(32, |rng| {
        let cutoff = 4.0;
        let reach = cutoff + NeighborCache::DEFAULT_SKIN;
        let shortest = reach * rng.range(1.5..3.4);
        let middle = shortest * rng.range(1.3..1.32);
        let mut edges = [shortest, middle, middle * rng.range(1.3..1.31)];
        rng.shuffle(&mut edges);
        // A jittered lattice (no overlaps), each atom then moved by whole
        // box lengths of its own per axis.
        let sites = edges.map(|l| (l / 2.6) as usize);
        let mut positions = Vec::new();
        for x in 0..sites[0] {
            for y in 0..sites[1] {
                for z in 0..sites[2] {
                    let mut along = |k: usize, site: usize| {
                        let lattice = (site as f64 + 0.5 + rng.range(-0.1..0.1)) / sites[k] as f64;
                        edges[k] * (lattice + rng.range(-3i32..=3) as f64)
                    };
                    positions.push(Vec3::new(along(0, x), along(1, y), along(2, z)));
                }
            }
        }
        let n = positions.len();
        let atoms = (0..n)
            .map(|k| Atom {
                mass: 16.0,
                charge: if k % 2 == 0 { 0.3 } else { -0.3 },
                lj_epsilon: 0.1 + 0.05 * (k % 3) as f64,
                lj_sigma: 3.0,
            })
            .collect();
        let mut state = State::zeros(n);
        state.positions = positions;
        let pbc = PbcBox::new(Some(Vec3::new(edges[0], edges[1], edges[2])));
        let sys = System::new(Topology { atoms, ..Default::default() }, pbc, state).unwrap();
        let salt_molar = if rng.below(2) == 0 { 0.0 } else { 0.4 };
        let ff = ForceField::new(NonbondedParams { cutoff, dielectric: 2.0, salt_molar, ph: 7.0 });

        let mut ctx = EvalContext::new();
        let (e, f) = eval(&ff, &sys, &mut ctx, 1);
        let (e_ref, f_ref) = oracle_nonbonded(&ff, &sys, &ctx);
        let what = format!("{n} atoms, edges {edges:?}, salt {salt_molar}");
        assert!(e_ref.abs() > 1.0, "{what}: a live energy, not {e_ref}");
        let tol = 1e-9 * e_ref.abs();
        assert!((e.lj + e.coulomb - e_ref).abs() <= tol, "{what}: {} vs {e_ref}", e.lj + e.coulomb);
        for (k, (a, b)) in f.iter().zip(&f_ref).enumerate() {
            for axis in 0..3 {
                assert!((a[axis] - b[axis]).abs() <= tol, "{what}: atom {k}: {a:?} vs {b:?}");
            }
        }
        if n >= CELL_LIST_THRESHOLD {
            searched[usize::from(shortest >= 3.0 * reach)] += 1;
        }
    });
    assert!(searched.iter().all(|&c| c > 0) && searched[0] + searched[1] < 32, "{searched:?}");
}

/// Central difference of `energy` over every coordinate of `pos` against
/// `forces` (= -gradient).
fn assert_forces_are_minus_gradient(
    what: &str,
    pos: &[Vec3],
    forces: &[Vec3],
    mut energy: impl FnMut(&[Vec3]) -> f64,
) {
    let h = 1e-6;
    let mut p = pos.to_vec();
    for atom in 0..pos.len() {
        #[allow(clippy::needless_range_loop)] // index pairs (atom, axis) read best this way
        for axis in 0..3 {
            let mut at = |delta: f64| {
                let mut moved = pos[atom];
                match axis {
                    0 => moved.x += delta,
                    1 => moved.y += delta,
                    _ => moved.z += delta,
                }
                p[atom] = moved;
                let e = energy(&p);
                p[atom] = pos[atom];
                e
            };
            let de = (at(h) - at(-h)) / (2.0 * h);
            let f = forces[atom][axis];
            assert!(
                (de + f).abs() < 1e-5 * de.abs().max(1.0),
                "{what}: atom {atom} axis {axis}: dE/dx {de}, force {f}"
            );
        }
    }
}

#[test]
fn merged_bonded_terms_are_minus_the_gradient_of_their_own_energy() {
    let chain = [
        Vec3::new(0.1, 1.0, 0.2),
        Vec3::new(0.0, 0.0, 0.1),
        Vec3::new(1.0, 0.1, 0.0),
        Vec3::new(1.3, -0.9, 0.7),
    ];
    // The chain in vacuum, and in a periodic box with two of its atoms a
    // box length away, so that every term goes through the minimum image.
    let mut wrapped = chain;
    wrapped[1] += Vec3::new(4.0, 0.0, 0.0);
    wrapped[3] += Vec3::new(0.0, -4.0, 4.0);
    for (pos, pbc) in [(chain, PbcBox::VACUUM), (wrapped, PbcBox::cubic(4.0))] {
        let mut f = vec![Vec3::ZERO; 4];
        let bond = Bond { i: 0, j: 1, k: 120.0, r0: 1.2 };
        let e = bond_energy(&bond, &pos, &pbc, Some(&mut f));
        assert_eq!(e, bond_energy(&bond, &pos, &pbc, None));
        assert_forces_are_minus_gradient("bond", &pos, &f, |p| bond_energy(&bond, p, &pbc, None));

        let mut f = vec![Vec3::ZERO; 4];
        let angle = Angle { i: 0, j: 1, k_atom: 2, k: 35.0, theta0: 1.9 };
        let e = angle_energy(&angle, &pos, &pbc, Some(&mut f));
        assert_eq!(e, angle_energy(&angle, &pos, &pbc, None));
        assert_forces_are_minus_gradient("angle", &pos, &f, |p| {
            angle_energy(&angle, p, &pbc, None)
        });

        let mut f = vec![Vec3::ZERO; 4];
        let torsion = Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 3.0, n: 3, delta: 0.4 };
        let e = torsion_energy(&torsion, &pos, &pbc, Some(&mut f));
        assert_eq!(e, torsion_energy(&torsion, &pos, &pbc, None));
        assert_forces_are_minus_gradient("torsion", &pos, &f, |p| {
            torsion_energy(&torsion, p, &pbc, None)
        });

        let mut f = vec![Vec3::ZERO; 4];
        let umbrella = DihedralRestraint::new("psi", 0.02, 30.0);
        let e = umbrella.energy([0, 1, 2, 3], &pos, &pbc, Some(&mut f));
        assert_eq!(e, umbrella.energy([0, 1, 2, 3], &pos, &pbc, None));
        assert_forces_are_minus_gradient("restraint", &pos, &f, |p| {
            umbrella.energy([0, 1, 2, 3], p, &pbc, None)
        });
    }

    // And assembled: the whole vacuum dipeptide under an umbrella.
    let mut sys = alanine_dipeptide();
    let mut ff = dipeptide_forcefield();
    ff.nonbonded.salt_molar = 0.5;
    ff.set_restraints(vec![DihedralRestraint::new("psi", 0.02, 30.0)]);
    let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
    ff.energy_forces(&sys, &mut forces);
    let pos = sys.state.positions.clone();
    assert_forces_are_minus_gradient("dipeptide", &pos, &forces, |p| {
        sys.state.positions.copy_from_slice(p);
        ff.energy(&sys).total()
    });
}

/// A diatomic with a harmonic bond: analytically solvable.
fn diatomic(k: f64, r0: f64, stretch: f64) -> System {
    let top = Topology {
        atoms: vec![Atom::lj(12.0, 0.0, 3.0); 2],
        bonds: vec![Bond { i: 0, j: 1, k, r0 }],
        ..Default::default()
    };
    let mut state = State::zeros(2);
    state.positions[1] = Vec3::new(r0 + stretch, 0.0, 0.0);
    System::new(top, PbcBox::VACUUM, state).expect("state and topology agree")
}

/// BAOAB at zero friction is velocity Verlet (`c1 = 1`, `c2 = 0`); the tests
/// below are the ones the separate Verlet integrator used to carry.
fn nve(dt_ps: f64) -> LangevinBaoab {
    LangevinBaoab::new(dt_ps, 300.0, 0.0)
}

#[test]
fn zero_friction_conserves_energy_on_the_diatomic() {
    // Stretched by 0.2 Å: the shadow Hamiltonian keeps total energy bounded;
    // with omega*dt ≈ 0.04 the fluctuation must stay well below 0.1% of E0
    // over thousands of steps.
    let mut sys = diatomic(300.0, 1.5, 0.2);
    let ff = ForceField::default();
    let mut integ = nve(0.0002);
    let mut rng = Rng::seed(0);
    let e0 = ff.energy(&sys).total() + sys.kinetic_energy();
    let mut max_drift: f64 = 0.0;
    for _ in 0..5000 {
        let pe = integ.step(&mut sys, &ff, 1, &mut rng).total();
        max_drift = max_drift.max((pe + sys.kinetic_energy() - e0).abs());
    }
    assert!(max_drift < 1e-3 * e0.abs().max(1.0), "energy drift {max_drift} (E0 = {e0})");
    assert_eq!(sys.state.step, 5000);
    assert!((sys.state.time_ps - 1.0).abs() < 1e-9);

    // Cached forces or recomputed ones: the same next step.
    let mut cached = sys.clone();
    integ.step(&mut cached, &ff, 1, &mut rng);
    integ.invalidate();
    integ.step(&mut sys, &ff, 1, &mut rng);
    for (p, q) in cached.state.positions.iter().zip(&sys.state.positions) {
        assert!((*p - *q).norm() < 1e-12);
    }
}

#[test]
fn zero_friction_conserves_energy_on_the_lj_lattice() {
    // 64 argon-like atoms on a periodic lattice near the LJ minimum, given
    // thermal velocities: many-body, cell-list + cached pair list.
    let n_side = 4;
    let spacing = 4.2;
    let n = n_side * n_side * n_side;
    let top = Topology { atoms: vec![Atom::lj(40.0, 0.24, 3.4); n], ..Default::default() };
    let mut state = State::zeros(n);
    for (idx, p) in state.positions.iter_mut().enumerate() {
        let (x, y, z) = (idx / (n_side * n_side), (idx / n_side) % n_side, idx % n_side);
        *p = Vec3::new(x as f64, y as f64, z as f64) * spacing;
    }
    let mut sys = System::new(top, PbcBox::cubic(n_side as f64 * spacing), state).unwrap();
    let mut rng = Rng::seed(17);
    sys.assign_maxwell_boltzmann(60.0, &mut rng);

    let ff = ForceField::default();
    let mut integ = nve(0.002);
    let e0 = ff.energy(&sys).total() + sys.kinetic_energy();
    let mut max_drift: f64 = 0.0;
    for _ in 0..2000 {
        let pe = integ.step(&mut sys, &ff, 1, &mut rng).total();
        max_drift = max_drift.max((pe + sys.kinetic_energy() - e0).abs());
    }
    assert!(max_drift < 1e-3 * e0.abs().max(1.0), "energy drift {max_drift} (E0 = {e0})");
}

#[test]
fn zero_friction_reproduces_the_analytic_oscillation_period() {
    // Angular frequency of the relative coordinate: omega = sqrt(2k/mu) with
    // Amber convention E = k dr^2 (so spring constant = 2k) and reduced mass
    // mu = m/2 for equal masses. Convert from AKMA time units to ps.
    let k = 300.0;
    let m: f64 = 12.0;
    let mu = m / 2.0;
    let omega = (2.0 * k / mu).sqrt();
    let period = 2.0 * std::f64::consts::PI / omega / AKMA_PER_PS;

    let mut sys = diatomic(k, 1.5, 0.1);
    let ff = ForceField::default();
    let dt = 0.00002;
    let mut integ = nve(dt);
    let mut rng = Rng::seed(0);
    // Bond length starts at maximum extension and crosses r0 downward
    // exactly once per period; time three downward crossings.
    let mut prev_len = 1.6;
    let mut crossings = Vec::new();
    for step in 1..200_000 {
        integ.step(&mut sys, &ff, 1, &mut rng);
        let len = (sys.state.positions[1] - sys.state.positions[0]).norm();
        if prev_len > 1.5 && len <= 1.5 {
            crossings.push(step as f64 * dt);
            if crossings.len() == 3 {
                break;
            }
        }
        prev_len = len;
    }
    assert!(crossings.len() >= 3, "oscillation not observed");
    let measured_period = (crossings[2] - crossings[0]) / 2.0;
    assert!(
        (measured_period - period).abs() < 0.05 * period,
        "measured {measured_period} ps vs analytic {period} ps"
    );
}
