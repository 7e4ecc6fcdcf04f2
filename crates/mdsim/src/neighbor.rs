//! Neighbor search for the nonbonded loop.
//!
//! Three strategies:
//!
//! * [`all_pairs`] — O(N²) half loop over every pair `i < j`, used for small
//!   systems and as a reference in tests.
//! * [`CellList`] — O(N) cell-grid search for the pairs `i < j` within a
//!   cutoff, used when the atom count makes the quadratic loop too slow. For
//!   periodic boxes the cells tile the box; in vacuum the bounding box of
//!   the coordinates is used.
//! * [`NeighborCache`] — a persistent Verlet list built from the cell list
//!   with a skin margin (reach `cutoff + skin`, topology exclusions removed),
//!   reused across MD steps until an atom has moved far enough to invalidate
//!   it. This is what the evaluation context of
//!   [`crate::forcefield::EvalContext`] holds.
//!
//! The Verlet list is a [`PairList`]: the pairs grouped by home atom, one
//! `u16` per pair — the partner's index within its 65 536-atom page — and
//! one `(home, page, start)` per run of a home atom on one page. A quarter
//! of the bytes of a flat `(u32, u32)` list (237 289 pairs at 2881 solvated
//! atoms: 0.48 MB where the flat list took 1.90). The cell search emits pairs
//! home atom outermost, so the runs are long (≈ 82 partners each); both of
//! the paper's systems (2 881 and 64 366 atoms) are one page, and a larger
//! one splits a home's stretch into a run per page change — more runs, the
//! same pairs in the same order.
//!
//! The nonbonded kernel re-checks `r² < rc²` on whatever list it is given.

use crate::system::{PbcBox, System};
use crate::topology::Topology;
use crate::vec3::Vec3;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atom count above which the cell list beats the O(N²) loop. Small systems
/// (the reduced dipeptide) are faster without the list.
pub const CELL_LIST_THRESHOLD: usize = 400;

/// Process-wide count of [`CellList::build`] calls. Diagnostics only: the
/// `mdsim.cell_list_builds_total` gauge of a campaign's metrics export.
static CELL_LIST_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Total number of cell-list builds performed by this process so far.
pub fn cell_list_builds() -> u64 {
    CELL_LIST_BUILDS.load(Ordering::Relaxed)
}

/// Process-wide count of [`NeighborCache`] rebuilds (across every cache
/// instance). Feeds the observability metrics export; like
/// [`cell_list_builds`] it is diagnostics-only and monotone.
static NEIGHBOR_REBUILDS: AtomicU64 = AtomicU64::new(0);

/// Total number of neighbor-cache rebuilds performed by this process so far.
pub fn neighbor_cache_rebuilds() -> u64 {
    NEIGHBOR_REBUILDS.load(Ordering::Relaxed)
}

/// Generate all unique pairs `i < j`.
pub fn all_pairs(n: usize) -> impl Iterator<Item = (u32, u32)> {
    (0..n as u32).flat_map(move |i| (i + 1..n as u32).map(move |j| (i, j)))
}

/// Index of cell `c` in a grid of `dims` cells, x fastest.
#[inline]
fn flat(dims: [usize; 3], c: [usize; 3]) -> usize {
    (c[2] * dims[1] + c[1]) * dims[0] + c[0]
}

/// Cell-grid neighbor search.
///
/// Atoms are counting-sorted by cell: cell `c` owns the slice
/// `start[c]..start[c + 1]` of `order` (atom indices, ascending within a
/// cell — the sort is stable) and of `coords` (their coordinates, wrapped
/// into the primary cell when periodic), so the search walks contiguous
/// memory instead of chasing per-atom links.
///
/// **Image-shift invariant.** With cells at least `reach` wide and at least
/// three of them along every periodic axis, a pair within `reach` sits in
/// the same or in adjacent cells, the offset between the two cells is unique,
/// and the periodic image of the neighbor that lies in the adjacent cell is
/// the minimum image: any other image is a whole box — three cells or more —
/// further along some axis, hence beyond `reach`. The box vector that maps a
/// neighbor cell next to its home cell is therefore computed once per cell
/// pair and the inner loop is a plain difference. A periodic grid with fewer
/// than three cells along some axis is *aliased* (two offsets reach the same
/// cell): it takes the minimum image per pair and may visit a pair twice.
#[derive(Debug, Clone, Default)]
pub struct CellList {
    /// Number of cells in each direction.
    dims: [usize; 3],
    /// Box the coordinates were wrapped into.
    pbc: PbcBox,
    /// Periodic with fewer than 3 cells along some axis.
    aliased: bool,
    /// Squared search radius.
    reach_sq: f64,
    /// Volume the cells tile: the box, or the coordinates' bounding box.
    volume: f64,
    /// Cell `c` owns `start[c]..start[c + 1]` of `order` and `coords`.
    start: Vec<u32>,
    order: Vec<u32>,
    coords: Vec<Vec3>,
}

impl CellList {
    /// Sort `positions` into cells at least `cutoff` wide; the search then
    /// reports the pairs within `cutoff` of each other.
    pub fn build(positions: &[Vec3], pbc: &PbcBox, cutoff: f64) -> Self {
        let mut grid = CellList::default();
        grid.sort(positions, pbc, cutoff);
        grid
    }

    /// [`CellList::build`] into this grid's buffers: sorting the same atom
    /// count into the same box again allocates nothing.
    pub fn sort(&mut self, positions: &[Vec3], pbc: &PbcBox, cutoff: f64) {
        assert!(cutoff > 0.0, "cutoff must be positive");
        let (origin, extent) = match pbc.lengths() {
            Some(l) => (Vec3::ZERO, l),
            None if positions.is_empty() => (Vec3::ZERO, Vec3::splat(cutoff + 1e-6)),
            None => {
                let lo = positions.iter().fold(Vec3::splat(f64::INFINITY), |lo, p| lo.min(*p));
                let hi = positions.iter().fold(Vec3::splat(f64::NEG_INFINITY), |hi, p| hi.max(*p));
                // Pad so the extent is positive even for a single point.
                (lo, hi - lo + Vec3::splat(1e-6))
            }
        };
        // `as usize` truncates, which is `floor` for a non-negative quotient.
        let dim = |extent: f64| ((extent / cutoff) as usize).max(1);
        let dims = [dim(extent.x), dim(extent.y), dim(extent.z)];
        let per_length = Vec3::new(
            dims[0] as f64 / extent.x,
            dims[1] as f64 / extent.y,
            dims[2] as f64 / extent.z,
        );
        let n_cells = dims[0] * dims[1] * dims[2];
        // An atom's cell and wrapped coordinate, taken in both passes. Atoms on
        // the upper face, or wrapped onto it by rounding, belong to the last cell.
        let place = |p: &Vec3| {
            let p = pbc.wrap(*p - origin);
            let along = |v: f64, n: usize| (v as usize).min(n - 1);
            let c = [
                along(p.x * per_length.x, dims[0]),
                along(p.y * per_length.y, dims[1]),
                along(p.z * per_length.z, dims[2]),
            ];
            (flat(dims, c), p)
        };
        // Counting sort, stable in the atom index. Cell `c` is counted in `start[c + 2]`:
        // the running sum leaves its first slot in `start[c + 1]`, and filling moves it on.
        let start = &mut self.start;
        start.clear();
        start.resize(n_cells + 2, 0);
        for p in positions {
            start[place(p).0 + 2] += 1;
        }
        for c in 0..n_cells {
            start[c + 2] += start[c + 1];
        }
        self.order.resize(positions.len(), 0);
        self.coords.resize(positions.len(), Vec3::ZERO);
        for (idx, p) in positions.iter().enumerate() {
            let (c, p) = place(p);
            let slot = &mut start[c + 1];
            self.order[*slot as usize] = idx as u32;
            self.coords[*slot as usize] = p;
            *slot += 1;
        }
        start.pop();
        CELL_LIST_BUILDS.fetch_add(1, Ordering::Relaxed);
        self.dims = dims;
        self.pbc = *pbc;
        self.aliased = pbc.lengths().is_some() && dims.iter().any(|&d| d < 3);
        self.reach_sq = cutoff * cutoff;
        self.volume = extent.x * extent.y * extent.z;
    }

    /// Collect the pairs (`i < j`) within the cutoff, each once: the
    /// materialised list the tests hold a [`NeighborCache`] to. An aliased
    /// grid (see the type docs) reaches a pair through different images, so
    /// its list is sorted and deduplicated.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        let mut out = Vec::with_capacity(self.expected_pairs());
        self.for_each_pair(|home, partner| out.push((home.min(partner), home.max(partner))));
        if self.aliased {
            out.sort_unstable();
            out.dedup();
        }
        out
    }

    /// The pairs within the cutoff if the atoms were spread evenly over the
    /// volume, plus an eighth: what a collector of [`CellList::for_each_pair`]
    /// reserves, so the list is one allocation, made by the thread that uses
    /// it (DESIGN.md §10). An underestimate only brings the doubling back.
    fn expected_pairs(&self) -> usize {
        let n = self.order.len();
        let sphere = 4.0 / 3.0 * std::f64::consts::PI * self.reach_sq * self.reach_sq.sqrt();
        let share = (sphere / self.volume).min(1.0);
        (1.125 * share * (n * n.saturating_sub(1) / 2) as f64) as usize
    }

    /// Visit the pairs within the cutoff as `(home, partner)`, home atom
    /// outermost — every pair of a home atom in one stretch, the partner's
    /// index above or below the home's — from each cell and its half-shell of
    /// neighbor cells, without materialising them: a caller that filters
    /// further (the [`NeighborCache`] drops exclusions) does so here. An
    /// aliased grid (see the type docs) can visit a pair more than once, from
    /// either end.
    pub fn for_each_pair(&self, mut visit: impl FnMut(u32, u32)) {
        let dims = self.dims.map(|d| d as isize);
        let cell_at = |c: [isize; 3]| flat(self.dims, c.map(|v| v as usize));
        let atoms_of = |cell: usize| self.start[cell] as usize..self.start[cell + 1] as usize;
        let edge = self.pbc.edge();
        let periodic = self.pbc.lengths().is_some();
        // `from` is the home atom's position less the neighbor cell's image
        // shift, so `coords[b] - from` is the displacement to that image.
        let mut scan = |ia: u32, from: Vec3, others: Range<usize>| {
            for b in others {
                let d = if self.aliased {
                    self.pbc.min_image(self.coords[b], from)
                } else {
                    self.coords[b] - from
                };
                if d.norm_sq() <= self.reach_sq {
                    visit(ia, self.order[b]);
                }
            }
        };
        let mut shell: [_; HALF_SHELL.len()] = std::array::from_fn(|_| (0..0, Vec3::ZERO));
        for cz in 0..dims[2] {
            for cy in 0..dims[1] {
                for cx in 0..dims[0] {
                    let home = cell_at([cx, cy, cz]);
                    // Neighbor cells of the half-shell, each with the box
                    // vector that brings it next to the home cell.
                    let mut in_shell = 0;
                    for offset in HALF_SHELL {
                        let mut c = [cx + offset[0], cy + offset[1], cz + offset[2]];
                        if !periodic && (0..3).any(|k| c[k] < 0 || c[k] >= dims[k]) {
                            continue;
                        }
                        let mut turns = [0.0; 3];
                        for k in 0..3 {
                            let t = c[k].div_euclid(dims[k]);
                            c[k] -= t * dims[k];
                            turns[k] = t as f64;
                        }
                        let shift =
                            Vec3::new(turns[0] * edge.x, turns[1] * edge.y, turns[2] * edge.z);
                        let other = cell_at(c);
                        // An aliased grid can wrap a neighbor back onto the
                        // home cell, whose pairs are already covered.
                        if other != home {
                            shell[in_shell] = (atoms_of(other), shift);
                            in_shell += 1;
                        }
                    }
                    for a in atoms_of(home) {
                        let (ia, pa) = (self.order[a], self.coords[a]);
                        scan(ia, pa, a + 1..atoms_of(home).end);
                        for (others, shift) in &shell[..in_shell] {
                            scan(ia, pa - *shift, others.clone());
                        }
                    }
                }
            }
        }
    }
}

/// Atoms per page of a [`PairList`]: a partner is stored as its index's
/// low 16 bits, its run carrying the rest.
const PAGE_BITS: u32 = 16;

/// One run of a [`PairList`]: home atom `home` paired with each partner
/// `page | lo` for the `lo` of `partners[start..]`, up to the next run's
/// `start`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Run {
    pub(crate) home: u32,
    /// The partners' page: their index with the low 16 bits cleared.
    pub(crate) page: u32,
    pub(crate) start: u32,
}

/// A pair list stored by home atom, in 16-bit pages: run `r` pairs atom
/// `runs[r].home` with each `runs[r].page | lo` for the `lo` of
/// `partners[runs[r].start..runs[r + 1].start]` (the last run ends at
/// `partners.len()`). A home's stretch of pairs is one run per page it
/// visits, split wherever the page changes. A pair is `(home, partner)` with
/// the partner's index above or below the home's; [`PairList::iter`] and the
/// kernel read it as `(min, max)`. Pairs are numbered by their place in
/// `partners`, so a range of pair indices is a range of `partners` and may
/// start or end inside a run.
#[derive(Debug, Clone, Default)]
pub struct PairList {
    /// `start` ascending; no run is empty.
    pub(crate) runs: Vec<Run>,
    pub(crate) partners: Vec<u16>,
}

impl PairList {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.partners.len()
    }

    pub fn is_empty(&self) -> bool {
        self.partners.is_empty()
    }

    /// Every pair as `(min, max)`, in list order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.runs.len()).flat_map(move |r| {
            let Run { home, page, start } = self.runs[r];
            self.partners[start as usize..self.run_end(r)].iter().map(move |&lo| {
                let partner = page | u32::from(lo);
                (home.min(partner), home.max(partner))
            })
        })
    }

    /// The run that holds pair `pair`, by bisection.
    pub(crate) fn run_of(&self, pair: usize) -> usize {
        self.runs.partition_point(|run| run.start as usize <= pair).saturating_sub(1)
    }

    /// One past the last pair of run `r`.
    #[inline]
    pub(crate) fn run_end(&self, r: usize) -> usize {
        self.runs.get(r + 1).map_or(self.partners.len(), |run| run.start as usize)
    }

    /// An appender of pairs `(home, partner)`: it opens a run when the home
    /// or the partner's page changes, keeping the current run's home and page
    /// in registers rather than reading them back from `runs` per pair.
    pub(crate) fn appender(&mut self) -> impl FnMut(u32, u32) + '_ {
        // No atom has index `u32::MAX`: the first pair opens a run.
        let (mut home_now, mut page_now) =
            self.runs.last().map_or((u32::MAX, 0), |run| (run.home, run.page));
        move |home, partner| {
            let page = partner >> PAGE_BITS << PAGE_BITS;
            if home != home_now || page != page_now {
                let start = self.partners.len() as u32;
                self.runs.push(Run { home, page, start });
                (home_now, page_now) = (home, page);
            }
            self.partners.push(partner as u16);
        }
    }

    /// Rebuild an aliased grid's list: every pair once, sorted as `(min,
    /// max)`, with home = `min` — what [`CellList::pairs`] gives, filtered.
    /// The search may visit a pair more than once and from either end, so
    /// one pass counts the visits per bucket — a smaller atom and the larger
    /// one's page, `n_atoms × pages` of them, held in `runs` — one places the
    /// larger atoms' low bits into `partners` by bucket, and each bucket is
    /// sorted, deduplicated and moved down in place: within a bucket the low
    /// bits order the full indices, and the buckets follow `(min, max)`
    /// order. Both buffers, emptied by the caller, are sized before they are
    /// filled, `runs` first.
    fn collect_sorted(&mut self, n_atoms: usize, search: impl Fn(&mut dyn FnMut(u32, u32))) {
        let PairList { runs, partners } = self;
        let pages = n_atoms.div_ceil(1 << PAGE_BITS).max(1);
        let bucket =
            move |a: u32, b: u32| a.min(b) as usize * pages + (a.max(b) >> PAGE_BITS) as usize;
        runs.resize(n_atoms * pages, Run::default());
        search(&mut |a, b| runs[bucket(a, b)].start += 1);
        let mut visits = 0;
        for run in runs.iter_mut() {
            (run.start, visits) = (visits, visits + run.start);
        }
        partners.resize(visits as usize, 0);
        // Each bucket's cursor moves from its first slot to the next bucket's.
        search(&mut |a, b| {
            let slot = &mut runs[bucket(a, b)].start;
            partners[*slot as usize] = a.max(b) as u16;
            *slot += 1;
        });
        let (mut kept, mut n_runs, mut from) = (0, 0, 0);
        for k in 0..runs.len() {
            let to = runs[k].start as usize;
            partners[from..to].sort_unstable();
            let start = kept;
            for p in from..to {
                if kept == start || partners[p] != partners[kept - 1] {
                    partners[kept] = partners[p];
                    kept += 1;
                }
            }
            // `n_runs <= k`: the entries still to be read are not overwritten.
            if kept > start {
                let (home, page) = ((k / pages) as u32, ((k % pages) as u32) << PAGE_BITS);
                runs[n_runs] = Run { home, page, start: start as u32 };
                n_runs += 1;
            }
            from = to;
        }
        partners.truncate(kept);
        runs.truncate(n_runs);
    }
}

/// A persistent Verlet neighbor list with a skin margin.
///
/// The list is built from the [`CellList`] with reach `cutoff + skin`,
/// pre-filtered to drop topology exclusions and pairs beyond the reach. It
/// stays valid until some atom has moved more than `skin / 2` from its
/// position at build time: two atoms approaching each other can then close
/// at most `skin`, so no pair outside the reach at build time can come
/// within the cutoff before a rebuild. Rebuild checks are O(N) per
/// evaluation instead of the O(N + pairs) full rebuild.
///
/// Systems below [`CELL_LIST_THRESHOLD`] atoms get an exclusion-filtered
/// all-pairs list instead; that list is position-independent and never needs
/// a rebuild.
///
/// A cache must not be shared between different systems: it keys its
/// validity on atom count, box and displacement only (the topology is
/// assumed immutable for the cache's lifetime, which holds for any one
/// [`System`]). [`crate::forcefield::EvalContext`] invalidates its cache when it is handed
/// another topology.
#[derive(Debug, Clone)]
pub struct NeighborCache {
    skin: f64,
    cutoff: f64,
    n_atoms: usize,
    pbc: PbcBox,
    /// Exclusion-filtered pairs within `cutoff + skin` at build time.
    pairs: PairList,
    /// Positions at build time (displacement reference).
    ref_positions: Vec<Vec3>,
    /// The cell grid the list was searched on, kept for its buffers.
    grid: CellList,
    /// Whether `pairs` is a position-independent all-pairs list.
    all_pairs_list: bool,
    valid: bool,
    rebuilds: u64,
    reuses: u64,
}

impl Default for NeighborCache {
    fn default() -> Self {
        NeighborCache::new(NeighborCache::DEFAULT_SKIN)
    }
}

impl NeighborCache {
    /// Default Verlet skin width in Å: wide enough to amortize rebuilds over
    /// tens of MD steps at typical thermal speeds, narrow enough that the
    /// extra in-shell pairs cost little.
    pub const DEFAULT_SKIN: f64 = 1.5;

    pub fn new(skin: f64) -> Self {
        assert!(skin >= 0.0, "skin must be non-negative");
        NeighborCache {
            skin,
            cutoff: 0.0,
            n_atoms: 0,
            pbc: PbcBox::VACUUM,
            pairs: PairList::default(),
            ref_positions: Vec::new(),
            grid: CellList::default(),
            all_pairs_list: false,
            valid: false,
            rebuilds: 0,
            reuses: 0,
        }
    }

    /// The configured skin width in Å.
    pub fn skin(&self) -> f64 {
        self.skin
    }

    /// Make the cached list valid for the system's current coordinates and
    /// the given cutoff; rebuilds only when required. Returns `true` when a
    /// rebuild happened.
    pub fn ensure(&mut self, system: &System, cutoff: f64) -> bool {
        let stale = !self.valid
            || self.n_atoms != system.n_atoms()
            || self.cutoff != cutoff
            || self.pbc != system.pbc
            || (!self.all_pairs_list && self.moved_beyond_half_skin(system));
        if stale {
            self.rebuild(system, cutoff);
            self.rebuilds += 1;
            NEIGHBOR_REBUILDS.fetch_add(1, Ordering::Relaxed);
        } else {
            self.reuses += 1;
        }
        stale
    }

    /// The cached candidate pairs, exclusions already removed. Only
    /// meaningful after [`NeighborCache::ensure`].
    pub fn pairs(&self) -> &PairList {
        &self.pairs
    }

    /// Force a rebuild on the next [`NeighborCache::ensure`].
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// Rebuilds performed over this cache's lifetime.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Evaluations that reused the cached list without rebuilding.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    fn moved_beyond_half_skin(&self, system: &System) -> bool {
        if self.skin <= 0.0 {
            // No slack: the list is exact for the reference coordinates and
            // stays valid only while they are bitwise unchanged (which still
            // covers repeated single-points on the same configuration).
            return self.ref_positions != system.state.positions;
        }
        let limit_sq = (0.5 * self.skin) * (0.5 * self.skin);
        self.ref_positions
            .iter()
            .zip(&system.state.positions)
            .any(|(r, p)| system.pbc.min_image(*p, *r).norm_sq() > limit_sq)
    }

    fn rebuild(&mut self, system: &System, cutoff: f64) {
        let n = system.n_atoms();
        let pos = &system.state.positions;
        let top: &Topology = &system.topology;
        // The list last, its runs (one per atom and page visited: at most
        // one per atom in one page) before its partners: nothing a cache
        // allocates lies above a live list (DESIGN.md §10).
        self.all_pairs_list = n < CELL_LIST_THRESHOLD;
        // An all-pairs list never looks at displacements.
        self.ref_positions.clear();
        if !self.all_pairs_list {
            self.ref_positions.extend_from_slice(pos);
        }
        let list = &mut self.pairs;
        list.runs.clear();
        list.runs.reserve(n);
        list.partners.clear();
        if self.all_pairs_list {
            list.partners.reserve(n * n.saturating_sub(1) / 2);
            let mut push = list.appender();
            for (i, j) in all_pairs(n) {
                if !top.is_excluded(i, j) {
                    push(i, j);
                }
            }
        } else {
            let grid = &mut self.grid;
            grid.sort(pos, &system.pbc, cutoff + self.skin);
            if grid.aliased {
                list.collect_sorted(n, |visit| {
                    grid.for_each_pair(|a, b| {
                        if !top.is_excluded(a, b) {
                            visit(a, b);
                        }
                    });
                });
            } else {
                list.partners.reserve(grid.expected_pairs());
                let mut push = list.appender();
                grid.for_each_pair(|home, partner| {
                    if !top.is_excluded(home, partner) {
                        push(home, partner);
                    }
                });
            }
        }
        self.n_atoms = n;
        self.cutoff = cutoff;
        self.pbc = system.pbc;
        self.valid = true;
    }
}

/// 13 of the 26 neighbor offsets: a deterministic half-shell.
const HALF_SHELL: [[isize; 3]; 13] = [
    [1, 0, 0],
    [-1, 1, 0],
    [0, 1, 0],
    [1, 1, 0],
    [-1, -1, 1],
    [0, -1, 1],
    [1, -1, 1],
    [-1, 0, 1],
    [0, 0, 1],
    [1, 0, 1],
    [-1, 1, 1],
    [0, 1, 1],
    [1, 1, 1],
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::State;
    use crate::topology::{Atom, Topology};
    use rng::Rng;
    use std::collections::BTreeSet;

    fn within_cutoff_pairs(
        positions: &[Vec3],
        pbc: &PbcBox,
        cutoff: f64,
        pairs: impl Iterator<Item = (u32, u32)>,
    ) -> BTreeSet<(u32, u32)> {
        pairs
            .filter(|&(i, j)| {
                pbc.min_image(positions[i as usize], positions[j as usize]).norm_sq()
                    < cutoff * cutoff
            })
            .collect()
    }

    /// Move every atom up to `max` along a random direction.
    fn displace_within(sys: &mut System, max: f64, rng: &mut Rng) {
        for p in &mut sys.state.positions {
            let dir =
                Vec3::new(rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0, rng.f64() * 2.0 - 1.0);
            let norm = dir.norm().max(1e-9);
            *p += dir * (rng.f64() * max / norm);
        }
    }

    #[test]
    fn all_pairs_count() {
        assert_eq!(all_pairs(5).count(), 10);
        assert_eq!(all_pairs(0).count(), 0);
        assert_eq!(all_pairs(1).count(), 0);
    }

    #[test]
    fn cell_list_matches_all_pairs_periodic() {
        let mut rng = Rng::seed(42);
        let pbc = PbcBox::cubic(20.0);
        let positions: Vec<Vec3> = (0..300)
            .map(|_| Vec3::new(rng.f64() * 20.0, rng.f64() * 20.0, rng.f64() * 20.0))
            .collect();
        let cutoff = 4.0;
        let cl = CellList::build(&positions, &pbc, cutoff);
        let from_cells = within_cutoff_pairs(&positions, &pbc, cutoff, cl.pairs().into_iter());
        let from_all = within_cutoff_pairs(&positions, &pbc, cutoff, all_pairs(positions.len()));
        assert_eq!(from_cells, from_all);
    }

    #[test]
    fn cell_list_matches_all_pairs_vacuum() {
        let mut rng = Rng::seed(11);
        let pbc = PbcBox::VACUUM;
        let positions: Vec<Vec3> = (0..200)
            .map(|_| {
                Vec3::new(rng.f64() * 30.0 - 15.0, rng.f64() * 30.0 - 15.0, rng.f64() * 30.0 - 15.0)
            })
            .collect();
        let cutoff = 5.0;
        let cl = CellList::build(&positions, &pbc, cutoff);
        let from_cells = within_cutoff_pairs(&positions, &pbc, cutoff, cl.pairs().into_iter());
        let from_all = within_cutoff_pairs(&positions, &pbc, cutoff, all_pairs(positions.len()));
        assert_eq!(from_cells, from_all);
    }

    #[test]
    fn tiny_periodic_box_has_no_duplicates() {
        // Box barely larger than the cutoff: worst case for cell aliasing.
        let pbc = PbcBox::cubic(6.0);
        let positions = vec![
            Vec3::new(0.5, 0.5, 0.5),
            Vec3::new(5.5, 5.5, 5.5),
            Vec3::new(3.0, 3.0, 3.0),
            Vec3::new(0.2, 5.8, 3.1),
        ];
        let cl = CellList::build(&positions, &pbc, 2.9);
        let pairs = cl.pairs();
        let set: BTreeSet<_> = pairs.iter().copied().collect();
        assert_eq!(set.len(), pairs.len(), "duplicate pairs emitted");
        let from_cells = within_cutoff_pairs(&positions, &pbc, 2.9, pairs.into_iter());
        let from_all = within_cutoff_pairs(&positions, &pbc, 2.9, all_pairs(positions.len()));
        assert_eq!(from_cells, from_all);
    }

    #[test]
    fn empty_and_single_atom() {
        let pbc = PbcBox::VACUUM;
        let cl = CellList::build(&[], &pbc, 3.0);
        assert!(cl.pairs().is_empty());
        let cl1 = CellList::build(&[Vec3::ZERO], &pbc, 3.0);
        assert!(cl1.pairs().is_empty());
    }

    fn cache_system(positions: Vec<Vec3>, pbc: PbcBox) -> System {
        let top = Topology {
            atoms: vec![Atom::lj(18.0, 0.15, 3.15); positions.len()],
            ..Default::default()
        };
        let mut state = State::zeros(positions.len());
        state.positions = positions;
        System::new(top, pbc, state).unwrap()
    }

    /// Pairs within the cutoff according to a cache's candidate list.
    fn cached_within_cutoff(
        sys: &System,
        cache: &NeighborCache,
        cutoff: f64,
    ) -> BTreeSet<(u32, u32)> {
        within_cutoff_pairs(&sys.state.positions, &sys.pbc, cutoff, cache.pairs().iter())
    }

    #[test]
    fn cache_reuses_until_half_skin_displacement() {
        let mut rng = Rng::seed(3);
        let l = 30.0;
        let n = 600; // above CELL_LIST_THRESHOLD: the cell-list path
        let positions: Vec<Vec3> =
            (0..n).map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l)).collect();
        let mut sys = cache_system(positions, PbcBox::cubic(l));
        let cutoff = 6.0;
        let mut cache = NeighborCache::new(2.0);
        assert!(cache.ensure(&sys, cutoff), "first ensure builds");
        assert!(!cache.ensure(&sys, cutoff), "unchanged coordinates reuse");
        // Displace one atom by less than skin/2: still valid.
        sys.state.positions[0] += Vec3::new(0.9, 0.0, 0.0);
        assert!(!cache.ensure(&sys, cutoff), "sub-skin/2 move reuses");
        // Push the same atom past skin/2 total displacement: rebuild.
        sys.state.positions[0] += Vec3::new(0.2, 0.0, 0.0);
        assert!(cache.ensure(&sys, cutoff), "beyond skin/2 rebuilds");
        assert_eq!(cache.rebuilds(), 2);
        assert_eq!(cache.reuses(), 2);
    }

    #[test]
    fn global_rebuild_counter_tracks_cache_rebuilds() {
        let positions =
            vec![Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 0.0, 0.0), Vec3::new(4.0, 0.0, 0.0)];
        let sys = cache_system(positions, PbcBox::VACUUM);
        let before = neighbor_cache_rebuilds();
        let mut cache = NeighborCache::new(1.0);
        cache.ensure(&sys, 5.0);
        cache.invalidate();
        cache.ensure(&sys, 5.0);
        // Other tests run concurrently against the same process-wide
        // counter, so assert a lower bound only.
        assert!(neighbor_cache_rebuilds() >= before + 2);
    }

    #[test]
    fn cache_small_system_is_position_independent() {
        let mut rng = Rng::seed(8);
        let positions: Vec<Vec3> = (0..50)
            .map(|_| Vec3::new(rng.f64() * 10.0, rng.f64() * 10.0, rng.f64() * 10.0))
            .collect();
        let mut sys = cache_system(positions, PbcBox::VACUUM);
        let mut cache = NeighborCache::new(1.0);
        cache.ensure(&sys, 5.0);
        assert_eq!(cache.pairs().len(), 50 * 49 / 2);
        for p in &mut sys.state.positions {
            *p += Vec3::new(100.0, -3.0, 7.0);
        }
        assert!(!cache.ensure(&sys, 5.0), "all-pairs list never rebuilds");
    }

    #[test]
    fn cache_prefilters_exclusions() {
        let mut top = Topology {
            atoms: vec![Atom::lj(12.0, 0.1, 3.0); 3],
            bonds: vec![crate::topology::Bond { i: 0, j: 1, k: 100.0, r0: 1.0 }],
            ..Default::default()
        };
        top.build_exclusions();
        let mut state = State::zeros(3);
        state.positions[1] = Vec3::new(1.0, 0.0, 0.0);
        state.positions[2] = Vec3::new(2.0, 0.0, 0.0);
        let sys = System::new(top, PbcBox::VACUUM, state).unwrap();
        let mut cache = NeighborCache::new(1.0);
        cache.ensure(&sys, 5.0);
        let pairs: BTreeSet<_> = cache.pairs().iter().collect();
        assert!(!pairs.contains(&(0, 1)), "bonded pair filtered out");
        assert!(pairs.contains(&(0, 2)));
        assert!(pairs.contains(&(1, 2)));
    }

    #[test]
    fn cache_invalidate_forces_rebuild() {
        let positions: Vec<Vec3> = (0..10).map(|i| Vec3::new(i as f64, 0.0, 0.0)).collect();
        let sys = cache_system(positions, PbcBox::VACUUM);
        let mut cache = NeighborCache::new(1.0);
        cache.ensure(&sys, 3.0);
        assert!(!cache.ensure(&sys, 3.0));
        cache.invalidate();
        assert!(cache.ensure(&sys, 3.0));
        // A different cutoff also rebuilds.
        assert!(cache.ensure(&sys, 4.0));
    }

    /// The Verlet guarantee: after arbitrary per-atom displacements of at
    /// most skin/2, a cached list built at the original coordinates still
    /// finds every within-cutoff pair (periodic and vacuum).
    #[test]
    fn verlet_skin_never_misses_after_displacement() {
        rng::check(256, |rng| {
            let n = rng.range(2usize..60);
            let l = 14.0 + rng.below(5) as f64;
            let pbc = if rng.below(2) == 1 { PbcBox::cubic(l) } else { PbcBox::VACUUM };
            let positions: Vec<Vec3> =
                (0..n).map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l)).collect();
            let cutoff = 3.5;
            let skin = 1.2;
            let mut sys = cache_system(positions, pbc);
            let mut cache = NeighborCache::new(skin);
            cache.ensure(&sys, cutoff);
            // Random displacement of up to skin/2 per atom (the validity
            // envelope; `ensure` is deliberately NOT called afterwards).
            displace_within(&mut sys, 0.5 * skin, rng);
            let got = cached_within_cutoff(&sys, &cache, cutoff);
            let expect = within_cutoff_pairs(&sys.state.positions, &sys.pbc, cutoff, all_pairs(n));
            assert_eq!(got, expect);
        });
    }

    /// Same guarantee through the cell-list path (above the threshold).
    #[test]
    fn verlet_skin_never_misses_large_system() {
        rng::check(256, |rng| {
            let n = 450; // > CELL_LIST_THRESHOLD
            let l = 26.0;
            let pbc = if rng.below(2) == 0 { PbcBox::cubic(l) } else { PbcBox::VACUUM };
            let positions: Vec<Vec3> =
                (0..n).map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l)).collect();
            let cutoff = 5.0;
            let skin = 1.5;
            let mut sys = cache_system(positions, pbc);
            let mut cache = NeighborCache::new(skin);
            cache.ensure(&sys, cutoff);
            displace_within(&mut sys, 0.5 * skin, rng);
            let got = cached_within_cutoff(&sys, &cache, cutoff);
            let expect = within_cutoff_pairs(&sys.state.positions, &sys.pbc, cutoff, all_pairs(n));
            assert_eq!(got, expect);
        });
    }

    /// Geometry the models never produce: an orthorhombic box whose edges
    /// differ pairwise by 30 % or more, 1–5 cells per axis (aliased, or three
    /// and more along every axis: the image-shift search), and coordinates
    /// up to three box lengths out of the primary cell, as an unwrapped run
    /// leaves them. A per-axis shift applied to the wrong axis fails here.
    #[test]
    fn orthorhombic_unwrapped_pairs_equal_brute_force_each_once() {
        rng::check(192, |rng| {
            let reach = rng.range(2.5..4.0);
            let aliased = rng.below(2) == 0;
            let shortest =
                reach * if aliased { rng.range(1.02..2.98) } else { rng.range(3.02..3.4) };
            let middle = shortest * rng.range(1.3..1.32);
            let mut edges = [shortest, middle, middle * rng.range(1.3..1.31)];
            rng.shuffle(&mut edges);
            let pbc = PbcBox::new(Some(Vec3::new(edges[0], edges[1], edges[2])));
            let n = rng.range(2usize..220);
            let positions: Vec<Vec3> = (0..n)
                .map(|_| {
                    let mut along = |l: f64| l * rng.range(-3.0..4.0);
                    Vec3::new(along(edges[0]), along(edges[1]), along(edges[2]))
                })
                .collect();
            let cl = CellList::build(&positions, &pbc, reach);
            assert_eq!(cl.aliased, aliased, "{:?} cells", cl.dims);
            assert!(cl.dims.iter().all(|d| (1..=5).contains(d)), "{:?} cells", cl.dims);
            let got = cl.pairs();
            let set: BTreeSet<_> = got.iter().copied().collect();
            assert_eq!(set.len(), got.len(), "a pair listed twice");
            let expect: BTreeSet<_> = all_pairs(n)
                .filter(|&(i, j)| {
                    let d = pbc.min_image(positions[i as usize], positions[j as usize]);
                    d.norm_sq() <= reach * reach
                })
                .collect();
            assert_eq!(set, expect, "{:?} cells, edges {edges:?}", cl.dims);
        });
    }

    /// The reservation covers a uniform periodic fluid's list, so collecting
    /// it never regrows, and is not far over it.
    #[test]
    fn expected_pairs_cover_a_uniform_fluid_closely() {
        rng::check(32, |rng| {
            let l = rng.range(20.0..30.0);
            let n = rng.range(800usize..1500);
            let positions: Vec<Vec3> =
                (0..n).map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l)).collect();
            let cl = CellList::build(&positions, &PbcBox::cubic(l), rng.range(5.0..7.0));
            let (found, reserved) = (cl.pairs().len(), cl.expected_pairs());
            assert!(found <= reserved && reserved <= found * 5 / 4, "{found} found, {reserved}");
        });
    }

    /// The benchmark's system (a solute in a solvent placed on a jittered
    /// lattice, not a uniform fluid): its partners fit the reservation too,
    /// and its runs the one-per-atom reservation made before them.
    #[test]
    fn solvated_dipeptide_list_is_allocated_once() {
        let sys = crate::models::solvated_alanine_dipeptide(2881, 7);
        let cutoff = crate::models::dipeptide_forcefield().nonbonded.cutoff;
        let mut cache = NeighborCache::default();
        cache.ensure(&sys, cutoff);
        let grid = CellList::build(&sys.state.positions, &sys.pbc, cutoff + cache.skin);
        assert!(!grid.aliased, "{:?} cells", grid.dims);
        let list = &cache.pairs;
        assert_eq!(list.partners.capacity(), grid.expected_pairs(), "{} pairs", list.len());
        assert_eq!(list.runs.capacity(), sys.n_atoms(), "{} runs", list.runs.len());
    }

    #[test]
    fn cell_list_never_misses_a_pair() {
        rng::check(256, |rng| {
            let n = rng.range(2usize..80);
            let l = 12.0 + rng.below(7) as f64;
            let pbc = PbcBox::cubic(l);
            let positions: Vec<Vec3> =
                (0..n).map(|_| Vec3::new(rng.f64() * l, rng.f64() * l, rng.f64() * l)).collect();
            let cutoff = 3.5;
            let cl = CellList::build(&positions, &pbc, cutoff);
            let got = within_cutoff_pairs(&positions, &pbc, cutoff, cl.pairs().into_iter());
            let expect = within_cutoff_pairs(&positions, &pbc, cutoff, all_pairs(n));
            assert_eq!(got, expect);
        });
    }
}
