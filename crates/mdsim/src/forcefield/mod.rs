//! The complete force field: bonded + nonbonded + umbrella restraints.
//!
//! There is one evaluation, [`ForceField::evaluate`]: bonded terms and
//! restraints, then the blocked SoA nonbonded kernel (`soa.rs`) over the
//! cached pair list, with the force buffer an `Option` from top to bottom —
//! a single-point energy is the same expressions with the scatter skipped,
//! so it agrees with the energy of a force evaluation bit for bit (exchange
//! acceptance is only as exact as the single-point energies under it).
//! [`ForceField::energy_forces_ctx`] and [`ForceField::energy_ctx`] are its
//! two one-thread spellings.
//!
//! The thread count is the replica's core count (`PmemdEngine::cores`; 1 for
//! every other engine). One thread evaluates the unsplit range `0..n_pairs`.
//! More split the pair list into `min(threads, n_pairs / MIN_CHUNK_PAIRS)`
//! contiguous ranges of pair indices — boundaries a function of `(n_pairs,
//! threads)` and nothing else, never of the host, and free to fall inside a
//! home atom's run of the list — run on `std::thread::scope` workers and
//! merged in chunk order, so a multi-core replica's sums are the same on
//! every machine.
//!
//! All hot paths take an [`EvalContext`], which owns the persistent state
//! that makes repeated evaluations cheap: the Verlet neighbor list (reused
//! across MD steps until an atom moves more than half the skin), the
//! precomputed Lennard-Jones mixing table (rebuilt only for a new
//! topology), the pH-adjusted charge buffer, the kernel's packed per-atom
//! quads and block buffers, and the pooled per-chunk force buffers.
//! [`ForceField::energy_forces`] and [`ForceField::energy`] build
//! a throwaway context for one-shot calls and tests.
//!
//! The oracle for the SoA kernel is the straight-line
//! [`nonbonded::pair_energy_force`], looped over the neighbor list by the
//! tests (`tests/evaluate.rs`).

pub mod bonded;
pub mod nonbonded;
pub mod restraint;
mod soa;

pub use nonbonded::NonbondedParams;
pub use restraint::DihedralRestraint;

use crate::neighbor::NeighborCache;
use crate::system::System;
use crate::topology::Topology;
use crate::vec3::Vec3;
use nonbonded::{LjTable, NbScalars};
use soa::{Block, SoaNonbonded};
use std::ops::Range;
use std::sync::Arc;

/// Fewest pairs a chunk of a multi-thread evaluation holds: below this the
/// per-chunk O(N) force-buffer zero/merge and the thread hand-off cost more
/// than the pairs. Sized when a pair cost 35 ns; it costs about 12 now, and
/// no workload runs more than one thread, so the value is unverified until
/// the cores-per-replica measurement of ROADMAP item 1c (Fig. 12 on threads).
pub const MIN_CHUNK_PAIRS: usize = 4096;

/// Pairs of chunk `c` of `n_chunks` over `n_pairs`.
fn chunk_range(n_pairs: usize, n_chunks: usize, c: usize) -> Range<usize> {
    c * n_pairs / n_chunks..(c + 1) * n_pairs / n_chunks
}

/// Energy decomposition mirroring an Amber `mdinfo` record.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBreakdown {
    pub bond: f64,
    pub angle: f64,
    pub torsion: f64,
    pub lj: f64,
    pub coulomb: f64,
    pub restraint: f64,
}

impl EnergyBreakdown {
    /// Total potential energy in kcal/mol.
    pub fn total(&self) -> f64 {
        self.bond + self.angle + self.torsion + self.lj + self.coulomb + self.restraint
    }

    /// Potential energy excluding restraints (the "physical" energy used by
    /// temperature-exchange acceptance).
    pub fn physical(&self) -> f64 {
        self.total() - self.restraint
    }
}

/// Persistent evaluation state threaded through integrators and engines.
///
/// Owns everything the force loop would otherwise rebuild or reallocate per
/// call: the Verlet neighbor list, the LJ mixing table, the effective-charge
/// buffer, the kernel's block buffers and the pooled force buffers of a
/// multi-thread evaluation. A context belongs to one [`System`] at a time; it
/// detects a new topology (by its `Arc`, which it keeps alive so the address
/// cannot be reused), coordinate, box, atom count and cutoff changes and
/// rebuilds what is stale, so sharing one across the single-point
/// evaluations of an exchange batch (same coordinates, different
/// [`NonbondedParams`]) reuses the pair list for all of them.
#[derive(Debug, Clone, Default)]
pub struct EvalContext {
    /// The Verlet list (public so callers can inspect rebuild statistics).
    pub neighbors: NeighborCache,
    /// The topology the table and the list were made for.
    topology: Option<Arc<Topology>>,
    lj: Option<LjTable>,
    /// Effective per-atom charges (base charge plus pH shift on titratable
    /// sites), refreshed every evaluation without allocating.
    charges: Vec<f64>,
    /// Pooled force buffers of chunks `1..` of a multi-thread evaluation
    /// (chunk 0 scatters straight into the caller's buffer).
    chunk_forces: Vec<Vec<Vec3>>,
    /// The kernel's block buffers, one per chunk: chunk 0's is made before
    /// the pair list, those of chunks `1..` with their force buffers.
    blocks: Vec<Block>,
    /// The kernel's packed per-atom view, refreshed every evaluation.
    soa: SoaNonbonded,
}

impl EvalContext {
    /// Context with the default Verlet skin.
    pub fn new() -> Self {
        Self::with_skin(NeighborCache::DEFAULT_SKIN)
    }

    /// Context with an explicit skin width (0 = rebuild whenever the
    /// coordinates change at all; the fresh-build reference behavior).
    pub fn with_skin(skin: f64) -> Self {
        EvalContext { neighbors: NeighborCache::new(skin), ..Default::default() }
    }

    /// Drop all cached state (e.g. after the caller mutated the topology in
    /// place, which keeps its `Arc`).
    pub fn invalidate(&mut self) {
        self.neighbors.invalidate();
        self.topology = None;
        self.lj = None;
    }

    /// Refresh every cached component for `system` under `ff`'s parameters;
    /// the pair list last.
    fn prepare(&mut self, ff: &ForceField, system: &System) {
        if !self.topology.as_ref().is_some_and(|t| Arc::ptr_eq(t, &system.topology)) {
            self.invalidate();
            self.topology = Some(Arc::clone(&system.topology));
        }
        let top: &Topology = &system.topology;
        if self.lj.is_none() {
            self.lj = Some(LjTable::build(&top.atoms));
        }
        self.charges.clear();
        self.charges.extend(top.atoms.iter().map(|a| a.charge));
        for site in &top.titratable {
            self.charges[site.atom as usize] += site.charge_shift(ff.nonbonded.ph);
        }
        if self.blocks.is_empty() {
            self.blocks.push(Block::default());
        }
        self.soa.sync_atoms(&system.state.positions, &self.charges, &system.pbc);
        self.neighbors.ensure(system, ff.nonbonded.cutoff);
    }

    /// The nonbonded `(lj, coulomb)` sums over the prepared pair list on
    /// `threads` threads, scattering forces when given a buffer.
    fn nonbonded(
        &mut self,
        sc: &NbScalars,
        mut forces: Option<&mut [Vec3]>,
        threads: usize,
    ) -> (f64, f64) {
        let EvalContext { soa, chunk_forces, blocks, neighbors, lj, .. } = self;
        let soa: &SoaNonbonded = soa;
        let pairs = neighbors.pairs();
        let lj = lj.as_ref().expect("prepared");
        let n_pairs = pairs.len();
        let n_chunks = threads.min(n_pairs / MIN_CHUNK_PAIRS).max(1);
        if n_chunks == 1 {
            return soa.eval(sc, lj, pairs, 0..n_pairs, forces, &mut blocks[0]);
        }
        // One pooled force buffer and block buffer per spawned chunk: no
        // per-call O(N) allocation and no atomics in the pair loop. The first
        // multi-chunk evaluation allocates them above the live pair list
        // (DESIGN.md §10).
        chunk_forces.resize_with(n_chunks - 1, Vec::new);
        blocks.resize_with(n_chunks.max(blocks.len()), Block::default);
        let (head_block, blocks) = blocks.split_first_mut().expect("one block at least");
        if let Some(f) = forces.as_deref() {
            for buf in chunk_forces.iter_mut() {
                buf.clear();
                buf.resize(f.len(), Vec3::ZERO);
            }
        }
        let scatter = forces.is_some();
        let sums = std::thread::scope(|s| {
            let workers: Vec<_> = chunk_forces
                .iter_mut()
                .zip(blocks.iter_mut())
                .enumerate()
                .map(|(w, (buf, block))| {
                    let chunk = chunk_range(n_pairs, n_chunks, w + 1);
                    let buf = scatter.then_some(buf.as_mut_slice());
                    s.spawn(move || soa.eval(sc, lj, pairs, chunk, buf, block))
                })
                .collect();
            let head = chunk_range(n_pairs, n_chunks, 0);
            let head = soa.eval(sc, lj, pairs, head, forces.as_deref_mut(), head_block);
            // Chunk order, whatever order the workers finished in.
            workers.into_iter().fold(head, |(lj, coul), w| {
                let (l, c) = w.join().expect("a nonbonded worker panicked");
                (lj + l, coul + c)
            })
        });
        if let Some(forces) = forces {
            for buf in chunk_forces.iter() {
                for (f, p) in forces.iter_mut().zip(buf) {
                    *f += *p;
                }
            }
        }
        sums
    }
}

/// A complete parameterized force field.
#[derive(Debug, Clone, Default)]
pub struct ForceField {
    pub nonbonded: NonbondedParams,
    /// Umbrella restraints on named dihedrals.
    pub restraints: Vec<DihedralRestraint>,
}

impl ForceField {
    pub fn new(nonbonded: NonbondedParams) -> Self {
        ForceField { nonbonded, restraints: Vec::new() }
    }

    /// Replace all restraints (used when a replica adopts a new umbrella
    /// window after an exchange).
    pub fn set_restraints(&mut self, restraints: Vec<DihedralRestraint>) {
        self.restraints = restraints;
    }

    /// The one evaluation: bonded terms, restraints and the nonbonded
    /// kernel on `threads` threads (see the module docs for the partition).
    /// With a force buffer (must be `n_atoms` long, is zeroed first) forces
    /// are accumulated into it; the energies are the same bits either way.
    pub fn evaluate(
        &self,
        system: &System,
        ctx: &mut EvalContext,
        mut forces: Option<&mut [Vec3]>,
        threads: usize,
    ) -> EnergyBreakdown {
        if let Some(f) = forces.as_deref_mut() {
            assert_eq!(f.len(), system.n_atoms());
            f.fill(Vec3::ZERO);
        }
        let mut e = EnergyBreakdown::default();
        let pos = &system.state.positions;
        let pbc = &system.pbc;
        let top: &Topology = &system.topology;
        for b in &top.bonds {
            e.bond += bonded::bond_energy(b, pos, pbc, forces.as_deref_mut());
        }
        for a in &top.angles {
            e.angle += bonded::angle_energy(a, pos, pbc, forces.as_deref_mut());
        }
        // Consecutive terms on one quartet (phi and psi carry two each)
        // share its geometry.
        let mut quartet = None;
        let mut geometry = None;
        for t in &top.torsions {
            let atoms = [t.i, t.j, t.k_atom, t.l];
            if quartet != Some(atoms) {
                geometry = bonded::dihedral_geometry_of(atoms, pos, pbc);
                quartet = Some(atoms);
            }
            e.torsion += bonded::torsion_term(t, geometry.as_ref(), forces.as_deref_mut());
        }
        for r in &self.restraints {
            if let Some(d) = top.dihedral(&r.dihedral) {
                e.restraint += r.energy(d.atoms, pos, pbc, forces.as_deref_mut());
            }
        }
        ctx.prepare(self, system);
        (e.lj, e.coulomb) = ctx.nonbonded(&NbScalars::new(&self.nonbonded), forces, threads);
        e
    }

    /// One-thread evaluation through a persistent context: fills `forces`
    /// and returns the energy breakdown.
    pub fn energy_forces_ctx(
        &self,
        system: &System,
        ctx: &mut EvalContext,
        forces: &mut [Vec3],
    ) -> EnergyBreakdown {
        self.evaluate(system, ctx, Some(forces), 1)
    }

    /// One-thread energy-only evaluation through a persistent context
    /// (single-point energies for exchange phases).
    pub fn energy_ctx(&self, system: &System, ctx: &mut EvalContext) -> EnergyBreakdown {
        self.evaluate(system, ctx, None, 1)
    }

    /// [`ForceField::energy_forces_ctx`] with a throwaway context (one-shot
    /// calls, tests).
    pub fn energy_forces(&self, system: &System, forces: &mut [Vec3]) -> EnergyBreakdown {
        self.energy_forces_ctx(system, &mut EvalContext::new(), forces)
    }

    /// [`ForceField::energy_ctx`] with a throwaway context.
    pub fn energy(&self, system: &System) -> EnergyBreakdown {
        self.energy_ctx(system, &mut EvalContext::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neighbor::all_pairs;
    use crate::system::{PbcBox, State};
    use crate::topology::{Angle, Atom, Bond, NamedDihedral, Titratable, Topology, Torsion};
    use rng::Rng;

    /// LJ-only shifted pair energy, as an independent reference for the
    /// kernel's split (the production path gets it from one evaluation).
    fn lj_pair_energy(ai: &Atom, aj: &Atom, r2: f64, rc: f64) -> f64 {
        if r2 >= rc * rc || r2 < 1e-12 {
            return 0.0;
        }
        let eps = (ai.lj_epsilon * aj.lj_epsilon).sqrt();
        if eps <= 0.0 {
            return 0.0;
        }
        let sigma = 0.5 * (ai.lj_sigma + aj.lj_sigma);
        let sr2 = (sigma * sigma) / r2;
        let sr6 = sr2 * sr2 * sr2;
        let src2 = (sigma * sigma) / (rc * rc);
        let src6 = src2 * src2 * src2;
        4.0 * eps * (sr6 * sr6 - sr6) - 4.0 * eps * (src6 * src6 - src6)
    }

    /// A small but fully-featured system: a 4-atom chain with bonds, an
    /// angle, a torsion, a named dihedral and a few charged LJ particles.
    fn rich_system(seed: u64) -> (System, ForceField) {
        let mut rng = Rng::seed(seed);
        let mut atoms = vec![
            Atom { mass: 12.0, charge: 0.3, lj_epsilon: 0.1, lj_sigma: 3.4 },
            Atom { mass: 12.0, charge: -0.3, lj_epsilon: 0.1, lj_sigma: 3.4 },
            Atom { mass: 14.0, charge: 0.2, lj_epsilon: 0.12, lj_sigma: 3.3 },
            Atom { mass: 12.0, charge: -0.2, lj_epsilon: 0.1, lj_sigma: 3.4 },
        ];
        for _ in 0..8 {
            atoms.push(Atom { mass: 18.0, charge: 0.0, lj_epsilon: 0.15, lj_sigma: 3.15 });
        }
        let mut top = Topology {
            atoms,
            bonds: vec![
                Bond { i: 0, j: 1, k: 300.0, r0: 1.5 },
                Bond { i: 1, j: 2, k: 330.0, r0: 1.45 },
                Bond { i: 2, j: 3, k: 300.0, r0: 1.5 },
            ],
            angles: vec![
                Angle { i: 0, j: 1, k_atom: 2, k: 50.0, theta0: 1.95 },
                Angle { i: 1, j: 2, k_atom: 3, k: 50.0, theta0: 1.95 },
            ],
            torsions: vec![Torsion { i: 0, j: 1, k_atom: 2, l: 3, k: 1.4, n: 3, delta: 0.0 }],
            named_dihedrals: vec![NamedDihedral { name: "phi".into(), atoms: [0, 1, 2, 3] }],
            titratable: vec![],
            exclusions: vec![],
        };
        top.build_exclusions();

        let n = top.n_atoms();
        let mut state = State::zeros(n);
        // Chain along x; solvent on a lattice well clear of the chain so no
        // near-contact pair makes finite differencing ill-conditioned.
        state.positions[0] = Vec3::new(0.0, 0.4, 0.0);
        state.positions[1] = Vec3::new(1.4, 0.0, 0.1);
        state.positions[2] = Vec3::new(2.5, 0.8, -0.2);
        state.positions[3] = Vec3::new(3.8, 0.5, 0.6);
        for i in 4..n {
            let k = i - 4;
            let jitter = rng.f64() * 0.2;
            state.positions[i] = Vec3::new(
                (k % 4) as f64 * 3.8 - 2.0 + jitter,
                4.0 + (k / 4) as f64 * 3.8,
                3.5 + (k % 3) as f64 * 0.7,
            );
        }
        let sys = System::new(top, PbcBox::VACUUM, state).unwrap();
        let mut ff = ForceField::new(NonbondedParams {
            cutoff: 10.0,
            dielectric: 4.0,
            salt_molar: 0.15,
            ph: 7.0,
        });
        ff.set_restraints(vec![DihedralRestraint::new("phi", 0.02, 60.0)]);
        (sys, ff)
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // index pairs (atom, axis) read best this way
    fn forces_match_finite_difference_of_total_energy() {
        let (mut sys, ff) = rich_system(1);
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        ff.energy_forces(&sys, &mut forces);
        let h = 1e-6;
        for atom in 0..sys.n_atoms() {
            for axis in 0..3 {
                let orig = sys.state.positions[atom];
                let mut bump = |delta: f64| {
                    let mut p = orig;
                    match axis {
                        0 => p.x += delta,
                        1 => p.y += delta,
                        _ => p.z += delta,
                    }
                    sys.state.positions[atom] = p;
                    let e = ff.energy(&sys).total();
                    sys.state.positions[atom] = orig;
                    e
                };
                let de = (bump(h) - bump(-h)) / (2.0 * h);
                let f = forces[atom][axis];
                assert!(
                    (de + f).abs() < 1e-4 * de.abs().max(1.0),
                    "atom {atom} axis {axis}: FD {de}, force {f}"
                );
            }
        }
    }

    #[test]
    fn total_force_is_zero() {
        let (sys, ff) = rich_system(2);
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        ff.energy_forces(&sys, &mut forces);
        let total: Vec3 = forces.iter().copied().sum();
        assert!(total.norm() < 1e-9, "net force {}", total.norm());
    }

    #[test]
    fn four_threads_are_the_four_chunks_whoever_runs_them() {
        // The partition is a function of (n_pairs, threads) only: the four
        // scoped workers must give the bits one thread gives walking the
        // same four chunks in order.
        let sys = lj_fluid(600, 26.0, 3);
        let ff =
            ForceField::new(NonbondedParams { cutoff: 6.0, salt_molar: 0.5, ..Default::default() });
        let n = sys.n_atoms();
        let mut ctx = EvalContext::new();
        let mut f_par = vec![Vec3::ZERO; n];
        let e_par = ff.evaluate(&sys, &mut ctx, Some(&mut f_par), 4);

        let n_pairs = ctx.neighbors.pairs().len();
        assert!(n_pairs >= 4 * MIN_CHUNK_PAIRS, "{n_pairs} pairs do not fill four chunks");
        let sc = NbScalars::new(&ff.nonbonded);
        let table = ctx.lj.as_ref().unwrap();
        let chunk = |c: usize, f: &mut [Vec3]| {
            let range = chunk_range(n_pairs, 4, c);
            ctx.soa.eval(&sc, table, ctx.neighbors.pairs(), range, Some(f), &mut Block::default())
        };
        let mut f_seq = vec![Vec3::ZERO; n];
        let (mut lj, mut coul) = chunk(0, &mut f_seq);
        for c in 1..4 {
            let mut buf = vec![Vec3::ZERO; n];
            let (l, q) = chunk(c, &mut buf);
            lj += l;
            coul += q;
            for (f, p) in f_seq.iter_mut().zip(&buf) {
                *f += *p;
            }
        }
        assert_eq!((e_par.lj, e_par.coulomb), (lj, coul));
        assert_eq!(f_par, f_seq);
        // Energy-only on four threads: the same sums without the buffers.
        assert_eq!(ff.evaluate(&sys, &mut ctx, None, 4), e_par);
        // The chunks tile the pair list.
        assert_eq!(chunk_range(n_pairs, 4, 0).start, 0);
        assert_eq!(chunk_range(n_pairs, 4, 3).end, n_pairs);
        for c in 0..3 {
            assert_eq!(chunk_range(n_pairs, 4, c).end, chunk_range(n_pairs, 4, c + 1).start);
        }
    }

    #[test]
    fn breakdown_components_sum_to_total() {
        let (sys, ff) = rich_system(4);
        let e = ff.energy(&sys);
        let total = e.bond + e.angle + e.torsion + e.lj + e.coulomb + e.restraint;
        assert!((e.total() - total).abs() < 1e-12);
        assert!((e.physical() - (total - e.restraint)).abs() < 1e-12);
        assert!(e.restraint >= 0.0, "harmonic restraint energy can't be negative");
    }

    #[test]
    fn exclusions_remove_bonded_pairs_from_nonbonded() {
        // Two strongly charged atoms bonded together: excluded, so the
        // Coulomb contribution must come only from non-bonded pairs.
        let mut top = Topology {
            atoms: vec![
                Atom { mass: 1.0, charge: 5.0, lj_epsilon: 0.0, lj_sigma: 3.0 },
                Atom { mass: 1.0, charge: -5.0, lj_epsilon: 0.0, lj_sigma: 3.0 },
            ],
            bonds: vec![Bond { i: 0, j: 1, k: 100.0, r0: 1.0 }],
            ..Default::default()
        };
        top.build_exclusions();
        let mut state = State::zeros(2);
        state.positions[1] = Vec3::new(1.0, 0.0, 0.0);
        let sys = System::new(top, PbcBox::VACUUM, state).unwrap();
        let ff = ForceField::new(NonbondedParams {
            cutoff: 10.0,
            dielectric: 1.0,
            salt_molar: 0.0,
            ph: 7.0,
        });
        let e = ff.energy(&sys);
        assert_eq!(e.coulomb, 0.0, "bonded pair must be excluded");
        assert_eq!(e.lj, 0.0);
    }

    #[test]
    fn salt_changes_energy_of_charged_system() {
        let (sys, mut ff) = rich_system(5);
        let e0 = ff.energy(&sys).coulomb;
        ff.nonbonded.salt_molar = 2.0;
        let e1 = ff.energy(&sys).coulomb;
        assert!((e0 - e1).abs() > 1e-9, "salt must perturb Coulomb energy");
    }

    #[test]
    fn restraint_energy_appears_only_in_restraint_channel() {
        let (sys, mut ff) = rich_system(6);
        let with = ff.energy(&sys);
        ff.set_restraints(vec![]);
        let without = ff.energy(&sys);
        assert_eq!(without.restraint, 0.0);
        assert!((with.physical() - without.total()).abs() < 1e-12);
    }

    #[test]
    fn energy_only_matches_energy_forces() {
        let (sys, ff) = rich_system(7);
        let mut forces = vec![Vec3::ZERO; sys.n_atoms()];
        let with_forces = ff.energy_forces(&sys, &mut forces);
        let energy_only = ff.energy(&sys);
        assert_eq!(with_forces, energy_only, "energy-only path must agree exactly");
    }

    #[test]
    fn ctx_reuse_matches_throwaway() {
        // One persistent context across several evaluations with drifting
        // coordinates must match fresh-context evaluations each time.
        let (mut sys, ff) = rich_system(8);
        let mut ctx = EvalContext::new();
        let mut rng = Rng::seed(21);
        for _ in 0..20 {
            let mut f_ctx = vec![Vec3::ZERO; sys.n_atoms()];
            let mut f_fresh = vec![Vec3::ZERO; sys.n_atoms()];
            let e_ctx = ff.energy_forces_ctx(&sys, &mut ctx, &mut f_ctx);
            let e_fresh = ff.energy_forces(&sys, &mut f_fresh);
            assert!((e_ctx.total() - e_fresh.total()).abs() < 1e-9);
            for (a, b) in f_ctx.iter().zip(&f_fresh) {
                assert!((*a - *b).norm() < 1e-9);
            }
            for p in &mut sys.state.positions {
                *p += Vec3::new(
                    rng.f64() * 0.1 - 0.05,
                    rng.f64() * 0.1 - 0.05,
                    rng.f64() * 0.1 - 0.05,
                );
            }
        }
    }

    #[test]
    fn titratable_charges_respond_to_ph() {
        let (mut sys, mut ff) = rich_system(10);
        // Atom 3: its 1-4 partner, atom 0, is charged and not excluded (every
        // charged partner of atom 2 is, so a site there moves no energy).
        std::sync::Arc::make_mut(&mut sys.topology).titratable =
            vec![Titratable { atom: 3, pka: 6.5, proton_charge: 1.0 }];
        ff.nonbonded.ph = 4.0; // well below pKa: site nearly fully protonated
        let acidic = ff.energy(&sys).coulomb;
        ff.nonbonded.ph = 10.0; // well above: deprotonated
        let basic = ff.energy(&sys).coulomb;
        assert!(
            (acidic - basic).abs() > 1e-6,
            "pH must change the Coulomb energy: {acidic} vs {basic}"
        );
        // The ctx path sees the pH change even when the context is reused.
        let mut ctx = EvalContext::new();
        ff.nonbonded.ph = 4.0;
        let acidic_ctx = ff.energy_ctx(&sys, &mut ctx).coulomb;
        ff.nonbonded.ph = 10.0;
        let basic_ctx = ff.energy_ctx(&sys, &mut ctx).coulomb;
        assert!((acidic - acidic_ctx).abs() < 1e-12);
        assert!((basic - basic_ctx).abs() < 1e-12);
    }

    /// A context keys what it caches on the topology it was handed, not on
    /// the atom count: moved between two topologies of one size and one set
    /// of coordinates — other LJ types, charges, titratable sites and
    /// exclusions — it gives the bits a fresh context gives, each way.
    #[test]
    fn a_context_follows_a_new_topology_of_the_same_size() {
        let (a, mut ff) = rich_system(11);
        let mut b = a.clone();
        {
            let top = Arc::make_mut(&mut b.topology);
            for (k, atom) in top.atoms.iter_mut().enumerate() {
                atom.lj_epsilon = 0.05 + 0.02 * (k % 3) as f64;
                atom.lj_sigma = 3.0 + 0.1 * (k % 2) as f64;
                atom.charge = [0.3, -0.2, 0.0, -0.1][k % 4];
            }
            top.titratable = vec![Titratable { atom: 3, pka: 6.5, proton_charge: 1.0 }];
            top.bonds.pop();
            top.exclusions.clear();
            top.build_exclusions();
        }
        assert_eq!(a.n_atoms(), b.n_atoms());
        assert!(!Arc::ptr_eq(&a.topology, &b.topology));
        ff.nonbonded.ph = 5.0;
        let bits = |sys: &System, ctx: &mut EvalContext| {
            let mut f = vec![Vec3::ZERO; sys.n_atoms()];
            let e = ff.evaluate(sys, ctx, Some(&mut f), 1);
            let f: Vec<_> = f.iter().map(|v| [v.x, v.y, v.z].map(f64::to_bits)).collect();
            (format!("{e:?}"), f)
        };
        let mut shared = EvalContext::new();
        for sys in [&a, &b, &a, &b] {
            assert_eq!(bits(sys, &mut shared), bits(sys, &mut EvalContext::new()));
        }
        assert_ne!(bits(&a, &mut shared), bits(&b, &mut shared), "the two systems differ");
    }

    /// A 500-atom LJ fluid in a periodic box: crosses CELL_LIST_THRESHOLD.
    fn lj_fluid(n: usize, l: f64, seed: u64) -> System {
        let mut rng = Rng::seed(seed);
        let top = Topology {
            atoms: vec![Atom { mass: 18.0, charge: 0.0, lj_epsilon: 0.15, lj_sigma: 3.15 }; n],
            ..Default::default()
        };
        let mut state = State::zeros(n);
        for p in &mut state.positions {
            *p = Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l);
        }
        System::new(top, PbcBox::cubic(l), state).unwrap()
    }

    #[test]
    fn exchange_batch_reuses_pair_list() {
        // The S-exchange shape: repeated single-point energies on identical
        // coordinates under different salt concentrations. With one shared
        // context the pair list is built once and reused for the rest.
        let sys = lj_fluid(500, 24.0, 12);
        let mut ctx = EvalContext::new();
        for salt in [0.0, 0.15, 0.5, 2.0] {
            let ff = ForceField::new(NonbondedParams {
                cutoff: 6.0,
                dielectric: 1.0,
                salt_molar: salt,
                ph: 7.0,
            });
            ff.energy_ctx(&sys, &mut ctx);
        }
        assert_eq!(ctx.neighbors.rebuilds(), 1, "one build for the whole batch");
        assert_eq!(ctx.neighbors.reuses(), 3);
    }

    #[test]
    fn large_system_uses_cell_list_and_matches() {
        // Cross the CELL_LIST_THRESHOLD and verify against direct O(N^2).
        let sys = lj_fluid(500, 24.0, 9);
        let n = 500;
        let ff = ForceField::new(NonbondedParams {
            cutoff: 6.0,
            dielectric: 1.0,
            salt_molar: 0.0,
            ph: 7.0,
        });
        // Direct evaluation (bypass the threshold by scanning all pairs).
        let mut direct = 0.0;
        for (i, j) in all_pairs(n) {
            let d =
                sys.pbc.min_image(sys.state.positions[i as usize], sys.state.positions[j as usize]);
            direct += lj_pair_energy(
                &sys.topology.atoms[i as usize],
                &sys.topology.atoms[j as usize],
                d.norm_sq(),
                6.0,
            );
        }
        let e = ff.energy(&sys);
        assert!((e.lj - direct).abs() < 1e-6 * direct.abs().max(1.0), "{} vs {direct}", e.lj);
    }

    /// The oracle: the straight-line `pair_energy_force` looped over the
    /// context's pair list, with the pH-adjusted charges the kernel sees.
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
            let (e, f_over_r) =
                nonbonded::pair_energy_force(&atoms[i], &atoms[j], d.norm_sq(), &ff.nonbonded);
            energy += e;
            forces[i] += d * f_over_r;
            forces[j] -= d * f_over_r;
        }
        (energy, forces)
    }

    /// The SoA kernel is a pure layout/scheduling transform: on random
    /// systems — vacuum and periodic, with and without exclusions,
    /// screened and unscreened, charged and neutral, LJ-inactive types
    /// mixed in — energies and forces must match the oracle kernel to
    /// 1e-9 (relative to the energy scale).
    #[test]
    fn soa_matches_the_pair_oracle() {
        rng::check(48, |rng| {
            let n = rng.range(2usize..60);
            let [periodic, bonded, salted] = [(); 3].map(|()| rng.below(2) == 1);
            let l = 14.0;
            let atoms: Vec<Atom> = (0..n)
                .map(|k| Atom {
                    mass: 12.0,
                    charge: [0.0, 0.4, -0.4][k % 3],
                    lj_epsilon: if k % 4 == 0 { 0.0 } else { 0.12 },
                    lj_sigma: 3.2,
                })
                .collect();
            let mut top = Topology { atoms, ..Default::default() };
            if bonded {
                for i in 0..(n as u32 - 1).min(6) {
                    top.bonds.push(Bond { i, j: i + 1, k: 200.0, r0: 1.4 });
                }
                top.build_exclusions();
            }
            let mut state = State::zeros(n);
            // Jittered lattice: dense enough for many in-cutoff pairs,
            // without pathological overlaps.
            for (k, p) in state.positions.iter_mut().enumerate() {
                let jitter = Vec3::new(rng.f64(), rng.f64(), rng.f64());
                *p = Vec3::new(
                    (k % 4) as f64 * 3.4,
                    ((k / 4) % 4) as f64 * 3.4,
                    (k / 16) as f64 * 3.4,
                ) + jitter;
            }
            let pbc = if periodic { PbcBox::cubic(l) } else { PbcBox::VACUUM };
            let mut sys = System::new(top, pbc, state).unwrap();
            // Nonbonded only on both sides: the bonds go, their exclusions stay.
            std::sync::Arc::make_mut(&mut sys.topology).bonds.clear();
            let ff = ForceField::new(NonbondedParams {
                cutoff: 6.0,
                dielectric: 4.0,
                salt_molar: if salted { 0.5 } else { 0.0 },
                ph: 7.0,
            });
            let mut ctx = EvalContext::new();
            let mut f_soa = vec![Vec3::ZERO; n];
            let e_soa = ff.energy_forces_ctx(&sys, &mut ctx, &mut f_soa);
            let (e_ref, f_ref) = oracle_nonbonded(&ff, &sys, &ctx);
            let scale = e_ref.abs().max(1.0);
            assert!(
                (e_soa.lj + e_soa.coulomb - e_ref).abs() < 1e-9 * scale,
                "nonbonded {} vs {}",
                e_soa.lj + e_soa.coulomb,
                e_ref
            );
            for (a, b) in f_soa.iter().zip(&f_ref) {
                assert!((*a - *b).norm() < 1e-9 * scale, "{:?} vs {:?}", a, b);
            }
        });
    }
}
