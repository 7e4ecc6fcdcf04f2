//! The `NeighborCache` filters pairs while the cell list enumerates them and
//! stores them by home atom; the oracle is the materialised list,
//! `CellList::pairs()`, filtered afterwards: the same pairs in the same order,
//! on the all-pairs, aliased and image-shift paths.

use mdsim::forcefield::EvalContext;
use mdsim::models::{dipeptide_forcefield, lj_fluid, lj_forcefield, solvated_alanine_dipeptide};
use mdsim::neighbor::{CellList, NeighborCache, CELL_LIST_THRESHOLD};
use mdsim::topology::Bond;
use mdsim::{System, Vec3};
use rng::Rng;

/// Move every coordinate by up to half of `amplitude` either way.
fn shake(sys: &mut System, amplitude: f64, rng: &mut Rng) {
    for p in &mut sys.state.positions {
        *p += Vec3::new(rng.f64() - 0.5, rng.f64() - 0.5, rng.f64() - 0.5) * amplitude;
    }
}

/// Chain every other atom to its successor, so the exclusion filter has
/// something to remove among near neighbours.
fn with_bonds(mut sys: System) -> System {
    let n = sys.n_atoms() as u32;
    let top = std::sync::Arc::make_mut(&mut sys.topology);
    top.bonds = (0..n - 1).step_by(2).map(|i| Bond { i, j: i + 1, k: 100.0, r0: 3.8 }).collect();
    top.build_exclusions();
    sys
}

fn oracle(sys: &System, cutoff: f64, skin: f64) -> Vec<(u32, u32)> {
    let reach = cutoff + skin;
    let pos = &sys.state.positions;
    CellList::build(pos, &sys.pbc, reach)
        .pairs()
        .into_iter()
        .filter(|&(i, j)| !sys.topology.is_excluded(i, j))
        .filter(|&(i, j)| {
            sys.pbc.min_image(pos[i as usize], pos[j as usize]).norm_sq() <= reach * reach
        })
        .collect()
}

#[test]
fn streamed_list_equals_materialised_then_filtered() {
    // Box edge over reach decides the cell grid: 450 atoms at liquid density
    // give 2 cells per axis (periodic aliasing: sort + dedup of the filtered
    // list), 1500 give 4 (enumeration order kept as is).
    let cases: Vec<(&str, System, f64)> = vec![
        ("fluid, 2 cells per axis", with_bonds(lj_fluid(450, 0.8, 5)), 8.5),
        ("fluid, 4 cells per axis", with_bonds(lj_fluid(1500, 0.8, 6)), 8.5),
        ("fluid, short cutoff", with_bonds(lj_fluid(600, 0.6, 7)), 4.0),
        ("solvated dipeptide", solvated_alanine_dipeptide(2881, 9), 9.0),
    ];
    let mut rng = Rng::seed(42);
    for (what, mut sys, cutoff) in cases {
        let mut cache = NeighborCache::default();
        for round in 0..3 {
            assert!(cache.ensure(&sys, cutoff), "{what}: round {round} must rebuild");
            let expect = oracle(&sys, cutoff, cache.skin());
            assert!(expect.len() > sys.n_atoms(), "{what}: a dense list");
            assert_eq!(cache.pairs().len(), expect.len(), "{what}: round {round}");
            assert!(cache.pairs().iter().eq(expect), "{what}: round {round}");
            // Past skin/2 for most atoms: the next `ensure` rebuilds.
            shake(&mut sys, 2.5, &mut rng);
        }
    }
}

/// Below `CELL_LIST_THRESHOLD` the cache lists every pair but the excluded
/// ones, whatever the coordinates: what a search with one cell, reaching
/// across the whole box, materialises and the filter keeps, in its order.
#[test]
fn all_pairs_list_equals_a_search_that_reaches_everything() {
    let cases = [
        ("solvated dipeptide, 300 atoms", solvated_alanine_dipeptide(300, 2)),
        ("fluid, 350 atoms", with_bonds(lj_fluid(350, 0.8, 4))),
    ];
    for (what, sys) in cases {
        let n = sys.n_atoms();
        assert!(n < CELL_LIST_THRESHOLD, "{what}");
        let mut cache = NeighborCache::default();
        cache.ensure(&sys, 9.0);
        let edges = sys.pbc.lengths().expect("a periodic box");
        let everywhere = 2.0 * (edges.x + edges.y + edges.z);
        let expect: Vec<_> = CellList::build(&sys.state.positions, &sys.pbc, everywhere)
            .pairs()
            .into_iter()
            .filter(|&(i, j)| !sys.topology.is_excluded(i, j))
            .collect();
        assert!(expect.len() < n * (n - 1) / 2, "{what}: no exclusion to filter");
        assert_eq!(cache.pairs().len(), expect.len(), "{what}");
        assert!(cache.pairs().iter().eq(expect), "{what}");
    }
}

#[test]
fn cached_energy_matches_fresh_on_the_cell_list_path() {
    let fluid = (with_bonds(lj_fluid(450, 0.8, 3)), lj_forcefield());
    let solvated = (solvated_alanine_dipeptide(2881, 4), dipeptide_forcefield());
    let mut rng = Rng::seed(7);
    for (mut sys, ff) in [fluid, solvated] {
        let mut ctx = EvalContext::new();
        let n = sys.n_atoms();
        for _ in 0..12 {
            let (mut f_ctx, mut f_fresh) = (vec![Vec3::ZERO; n], vec![Vec3::ZERO; n]);
            let e_ctx = ff.energy_forces_ctx(&sys, &mut ctx, &mut f_ctx);
            let e_fresh = ff.energy_forces(&sys, &mut f_fresh);
            let scale = e_fresh.total().abs().max(1.0);
            assert!((e_ctx.total() - e_fresh.total()).abs() < 1e-9 * scale);
            for (a, b) in f_ctx.iter().zip(&f_fresh) {
                assert!((*a - *b).norm() < 1e-9 * scale, "{a:?} vs {b:?}");
            }
            // Small drift: most evaluations reuse the list, some rebuild.
            shake(&mut sys, 0.3, &mut rng);
        }
        assert!(ctx.neighbors.reuses() > 0 && ctx.neighbors.rebuilds() > 1);
    }
}
