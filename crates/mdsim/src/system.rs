//! Dynamic simulation state: positions, velocities and the periodic box.

use crate::topology::Topology;
use crate::units::{kbt, wrap_angle};
use crate::vec3::Vec3;
use rng::Rng;
use std::sync::Arc;

/// Round to the nearest integer by adding and subtracting 1.5·2⁵², exact for
/// `|x| < 2⁵¹`: two additions, where `f64::round` is a call into libm on the
/// default x86-64 target (DESIGN.md §10). A tie rounds to even instead of
/// away from zero; as a count of box lengths that selects the other of two
/// equidistant images, both `L/2` away on that axis.
#[inline]
pub(crate) fn nearest(x: f64) -> f64 {
    const SHIFT: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
    (x + SHIFT) - SHIFT
}

/// Orthorhombic periodic box (or `None` extent for vacuum).
///
/// The reciprocal edge lengths are precomputed at construction so that
/// [`PbcBox::min_image`] and [`PbcBox::wrap`] cost one multiply and one
/// rounding per axis instead of a division. In vacuum `edge` and `inv` are
/// zero, which makes the shift term vanish and keeps both methods
/// branch-free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbcBox {
    /// Edge lengths in Å; `None` means no periodicity.
    lengths: Option<Vec3>,
    /// Edge lengths with vacuum represented as zero (for branch-free math).
    edge: Vec3,
    /// Reciprocal edge lengths `1/L` (zero in vacuum).
    inv: Vec3,
}

impl Default for PbcBox {
    fn default() -> Self {
        PbcBox::VACUUM
    }
}

impl PbcBox {
    pub const VACUUM: PbcBox = PbcBox { lengths: None, edge: Vec3::ZERO, inv: Vec3::ZERO };

    /// Build a box from optional edge lengths (`None` = vacuum). Panics on
    /// non-positive edges, which would previously have produced NaN shifts.
    pub fn new(lengths: Option<Vec3>) -> Self {
        match lengths {
            None => PbcBox::VACUUM,
            Some(l) => {
                assert!(
                    l.x > 0.0 && l.y > 0.0 && l.z > 0.0,
                    "box edge lengths must be positive, got {l:?}"
                );
                PbcBox {
                    lengths: Some(l),
                    edge: l,
                    inv: Vec3::new(1.0 / l.x, 1.0 / l.y, 1.0 / l.z),
                }
            }
        }
    }

    pub fn cubic(l: f64) -> Self {
        PbcBox::new(Some(Vec3::splat(l)))
    }

    /// Edge lengths in Å; `None` means no periodicity.
    pub fn lengths(&self) -> Option<Vec3> {
        self.lengths
    }

    /// Edge lengths with vacuum as zero — pairs with [`PbcBox::inv_edge`]
    /// for branch-free minimum-image arithmetic in SoA kernels.
    pub fn edge(&self) -> Vec3 {
        self.edge
    }

    /// Precomputed reciprocal edge lengths (`1/L`, zero in vacuum).
    pub fn inv_edge(&self) -> Vec3 {
        self.inv
    }

    /// Minimum-image displacement `a - b`.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        // Branch-free: in vacuum edge and inv are zero, so the shift is 0.
        let mut d = a - b;
        d.x -= self.edge.x * nearest(d.x * self.inv.x);
        d.y -= self.edge.y * nearest(d.y * self.inv.y);
        d.z -= self.edge.z * nearest(d.z * self.inv.z);
        d
    }

    /// Wrap a position into the primary cell `[0, L)`.
    #[inline]
    pub fn wrap(&self, mut p: Vec3) -> Vec3 {
        p.x -= self.edge.x * (p.x * self.inv.x).floor();
        p.y -= self.edge.y * (p.y * self.inv.y).floor();
        p.z -= self.edge.z * (p.z * self.inv.z).floor();
        p
    }

    pub fn volume(&self) -> Option<f64> {
        self.lengths.map(|l| l.x * l.y * l.z)
    }
}

/// Mutable per-step state of a system.
#[derive(Debug, Clone, PartialEq)]
pub struct State {
    pub positions: Vec<Vec3>,
    pub velocities: Vec<Vec3>,
    /// Simulation time in ps.
    pub time_ps: f64,
    /// Completed MD steps.
    pub step: u64,
}

impl State {
    pub fn zeros(n: usize) -> Self {
        State {
            positions: vec![Vec3::ZERO; n],
            velocities: vec![Vec3::ZERO; n],
            time_ps: 0.0,
            step: 0,
        }
    }

    pub fn n_atoms(&self) -> usize {
        self.positions.len()
    }

    pub fn is_finite(&self) -> bool {
        self.positions.iter().all(|p| p.is_finite())
            && self.velocities.iter().all(|v| v.is_finite())
    }
}

/// A complete molecular system: immutable topology + box + mutable state.
///
/// The topology is shared: systems built over one `Arc` (a campaign's
/// replicas, a clone) hold one allocation, and nothing that runs a system
/// writes to it. Whoever edits one after construction — tests do — goes
/// through [`Arc::make_mut`], which copies it for that system first, and
/// invalidates any [`crate::forcefield::EvalContext`] built before.
#[derive(Debug, Clone)]
pub struct System {
    pub topology: Arc<Topology>,
    pub pbc: PbcBox,
    pub state: State,
}

impl System {
    pub fn new(top: impl Into<Arc<Topology>>, pbc: PbcBox, state: State) -> Result<Self, String> {
        let topology = top.into();
        topology.validate()?;
        if topology.n_atoms() != state.n_atoms() {
            return Err(format!(
                "topology has {} atoms but state has {}",
                topology.n_atoms(),
                state.n_atoms()
            ));
        }
        Ok(System { topology, pbc, state })
    }

    pub fn n_atoms(&self) -> usize {
        self.topology.n_atoms()
    }

    /// Kinetic energy in kcal/mol. Velocities are stored in Å per AKMA time
    /// unit, so `1/2 m v²` is already in kcal/mol.
    pub fn kinetic_energy(&self) -> f64 {
        self.topology
            .atoms
            .iter()
            .zip(&self.state.velocities)
            .map(|(a, v)| 0.5 * a.mass * v.norm_sq())
            .sum()
    }

    /// Instantaneous temperature in K from the equipartition theorem.
    pub fn instantaneous_temperature(&self) -> f64 {
        let dof = self.topology.degrees_of_freedom() as f64;
        2.0 * self.kinetic_energy() / (dof * crate::units::KB)
    }

    /// Draw velocities from the Maxwell-Boltzmann distribution at `t` K and
    /// remove centre-of-mass drift.
    pub fn assign_maxwell_boltzmann(&mut self, t: f64, rng: &mut Rng) {
        for (atom, v) in self.topology.atoms.iter().zip(self.state.velocities.iter_mut()) {
            let sigma = (kbt(t) / atom.mass).sqrt();
            *v = Vec3::new(sigma * rng.normal(), sigma * rng.normal(), sigma * rng.normal());
        }
        self.remove_com_motion();
    }

    /// Subtract the centre-of-mass velocity.
    pub fn remove_com_motion(&mut self) {
        let total_mass = self.topology.total_mass();
        if total_mass <= 0.0 {
            return;
        }
        let p: Vec3 =
            self.topology.atoms.iter().zip(&self.state.velocities).map(|(a, v)| *v * a.mass).sum();
        let v_com = p / total_mass;
        for v in &mut self.state.velocities {
            *v -= v_com;
        }
    }

    /// Measure a dihedral angle over four atom indices, in radians wrapped to
    /// `(-pi, pi]`. Uses the standard atan2 formulation, which is stable near
    /// 0 and pi.
    pub fn dihedral_angle(&self, atoms: [u32; 4]) -> f64 {
        let p = &self.state.positions;
        let (i, j, k, l) =
            (atoms[0] as usize, atoms[1] as usize, atoms[2] as usize, atoms[3] as usize);
        let b1 = self.pbc.min_image(p[j], p[i]);
        let b2 = self.pbc.min_image(p[k], p[j]);
        let b3 = self.pbc.min_image(p[l], p[k]);
        let n1 = b1.cross(b2);
        let n2 = b2.cross(b3);
        let m1 = n1.cross(b2.normalized().unwrap_or(Vec3::new(1.0, 0.0, 0.0)));
        let x = n1.dot(n2);
        let y = m1.dot(n2);
        wrap_angle(y.atan2(x))
    }

    /// Measure a named dihedral (e.g. "phi"), in radians.
    pub fn named_dihedral_angle(&self, name: &str) -> Option<f64> {
        self.topology.dihedral(name).map(|d| self.dihedral_angle(d.atoms))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Atom, NamedDihedral};

    fn four_atom_system(positions: [Vec3; 4]) -> System {
        let topology = Topology {
            atoms: vec![Atom::lj(12.0, 0.1, 3.4); 4],
            named_dihedrals: vec![NamedDihedral { name: "phi".into(), atoms: [0, 1, 2, 3] }],
            ..Default::default()
        };
        let mut state = State::zeros(4);
        state.positions = positions.to_vec();
        System::new(topology, PbcBox::VACUUM, state).unwrap()
    }

    #[test]
    fn min_image_wraps_across_boundary() {
        let b = PbcBox::cubic(10.0);
        let d = b.min_image(Vec3::new(9.5, 0.0, 0.0), Vec3::new(0.5, 0.0, 0.0));
        assert!((d.x + 1.0).abs() < 1e-12, "expected -1.0, got {}", d.x);
    }

    #[test]
    fn nearest_is_round_off_ties_and_even_on_them() {
        rng::check(4096, |r| {
            let x = r.range(-2147483648.0..2147483648.0); // ±2³¹
            if x.fract().abs() != 0.5 {
                assert_eq!(nearest(x), x.round(), "{x}");
            }
            // Whole numbers, and the last value below a tie, stay put.
            let k = x.trunc();
            assert_eq!(nearest(k), k);
            let below = f64::from_bits((k.abs() + 0.5).to_bits() - 1).copysign(k);
            assert_eq!(nearest(below), k, "{below}");
        });
        for (tie, even) in [(0.5, 0.0), (1.5, 2.0), (2.5, 2.0), (-0.5, 0.0), (-1.5, -2.0)] {
            assert_eq!(nearest(tie), even);
        }
    }

    /// Each axis folds by its own edge: edges 30 % apart and coordinates
    /// several boxes out of the primary cell, as an unwrapped run leaves
    /// them, so a swapped axis lands outside `L/2` or off the lattice.
    #[test]
    fn min_image_is_within_half_an_edge_on_every_axis() {
        rng::check(1024, |r| {
            let lx = r.range(5.0..40.0);
            let ly = lx * r.range(1.3..1.5);
            let lz = ly * r.range(1.3..1.5);
            let edges = [lx, ly, lz];
            let b = PbcBox::new(Some(Vec3::new(lx, ly, lz)));
            let mut point = |tie: bool| {
                let c: Vec<f64> = edges
                    .iter()
                    // On a tie the separation is a whole number of half edges.
                    .map(|l| {
                        if tie {
                            l * 0.5 * r.range(-6i32..=6) as f64
                        } else {
                            l * r.range(-3.0..4.0)
                        }
                    })
                    .collect();
                Vec3::new(c[0], c[1], c[2])
            };
            for (p, q) in [(point(false), point(false)), (point(true), Vec3::ZERO)] {
                let d = b.min_image(p, q);
                for k in 0..3 {
                    let l = edges[k];
                    assert!(d[k].abs() <= 0.5 * l * (1.0 + 1e-12), "axis {k}: {} of {l}", d[k]);
                    let boxes = ((p - q)[k] - d[k]) / l;
                    assert!((boxes - boxes.round()).abs() < 1e-9, "axis {k}: {boxes} boxes");
                }
            }
        });
    }

    #[test]
    fn vacuum_min_image_is_plain_difference() {
        let b = PbcBox::VACUUM;
        let d = b.min_image(Vec3::new(100.0, 0.0, 0.0), Vec3::ZERO);
        assert_eq!(d.x, 100.0);
        assert!(b.volume().is_none());
    }

    #[test]
    fn wrap_into_primary_cell() {
        let b = PbcBox::cubic(10.0);
        let p = b.wrap(Vec3::new(-0.5, 10.5, 25.0));
        assert!((p.x - 9.5).abs() < 1e-12);
        assert!((p.y - 0.5).abs() < 1e-12);
        assert!((p.z - 5.0).abs() < 1e-12);
    }

    #[test]
    fn trans_dihedral_is_pi() {
        // Planar zig-zag: trans configuration -> |phi| = pi.
        let sys = four_atom_system([
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, -1.0, 0.0),
        ]);
        let phi = sys.named_dihedral_angle("phi").unwrap();
        assert!((phi.abs() - std::f64::consts::PI).abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn cis_dihedral_is_zero() {
        let sys = four_atom_system([
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 1.0, 0.0),
        ]);
        let phi = sys.named_dihedral_angle("phi").unwrap();
        assert!(phi.abs() < 1e-9, "phi = {phi}");
    }

    #[test]
    fn perpendicular_dihedral_sign() {
        let sys = four_atom_system([
            Vec3::new(0.0, 1.0, 0.0),
            Vec3::new(0.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 1.0),
        ]);
        let phi = sys.named_dihedral_angle("phi").unwrap();
        assert!((phi.abs() - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn maxwell_boltzmann_temperature_is_close() {
        let topology =
            Topology { atoms: vec![Atom::lj(18.0, 0.15, 3.2); 2000], ..Default::default() };
        let state = State::zeros(2000);
        let mut sys = System::new(topology, PbcBox::cubic(50.0), state).unwrap();
        let mut rng = Rng::seed(7);
        sys.assign_maxwell_boltzmann(300.0, &mut rng);
        let t = sys.instantaneous_temperature();
        assert!((t - 300.0).abs() < 15.0, "T = {t}");
    }

    #[test]
    fn com_motion_removed() {
        let topology = Topology { atoms: vec![Atom::lj(10.0, 0.1, 3.0); 50], ..Default::default() };
        let mut sys = System::new(topology, PbcBox::VACUUM, State::zeros(50)).unwrap();
        let mut rng = Rng::seed(3);
        sys.assign_maxwell_boltzmann(500.0, &mut rng);
        let p: Vec3 =
            sys.topology.atoms.iter().zip(&sys.state.velocities).map(|(a, v)| *v * a.mass).sum();
        assert!(p.norm() < 1e-9, "residual momentum {}", p.norm());
    }

    #[test]
    fn new_rejects_mismatched_sizes() {
        let topology = Topology { atoms: vec![Atom::lj(1.0, 0.1, 3.0); 3], ..Default::default() };
        assert!(System::new(topology, PbcBox::VACUUM, State::zeros(2)).is_err());
    }
}
