//! Multi-dimensional parameter grids and exchange-group decomposition.
//!
//! An M-REMD simulation places replicas on a grid with one axis per exchange
//! dimension (e.g. TSU: 12×12×12 = 1 728). Exchange happens in one dimension
//! at a time: replicas sharing all *other* coordinates form a group (a 1-D
//! sub-ladder), and pairing runs within each group. The paper notes replicas
//! are "group\[ed\] by parameter values in each dimension" (Section 4.4).

use crate::param::{Dimension, ExchangeParam};

/// The full parameter grid: ordered dimensions (the paper's "arbitrary
/// ordering" TSU vs TUU is simply the order of this vector).
#[derive(Debug, Clone, PartialEq)]
pub struct ParamGrid {
    pub dims: Vec<Dimension>,
}

impl ParamGrid {
    pub fn new(dims: Vec<Dimension>) -> Result<Self, String> {
        if dims.is_empty() {
            return Err("parameter grid needs at least one dimension".into());
        }
        if dims.iter().any(|d| d.is_empty()) {
            return Err("every dimension needs at least one ladder rung".into());
        }
        if dims.len() > 3 {
            // Matches the paper's "up to three dimensional REMD simulations".
            return Err(format!("RepEx supports up to 3 dimensions, got {}", dims.len()));
        }
        Ok(ParamGrid { dims })
    }

    pub fn n_dims(&self) -> usize {
        self.dims.len()
    }

    /// Total number of grid slots (= replicas).
    pub fn n_slots(&self) -> usize {
        self.dims.iter().map(|d| d.len()).product()
    }

    /// The TSU/TUU-style type string.
    pub fn type_string(&self) -> String {
        self.dims.iter().map(|d| d.kind_letter()).collect()
    }

    /// Decompose a flat slot index into per-dimension coordinates
    /// (row-major: the last dimension varies fastest).
    pub fn coords_of(&self, slot: usize) -> Vec<usize> {
        assert!(slot < self.n_slots(), "slot {slot} out of range");
        let mut rem = slot;
        let mut coords = vec![0; self.n_dims()];
        for d in (0..self.n_dims()).rev() {
            let len = self.dims[d].len();
            coords[d] = rem % len;
            rem /= len;
        }
        coords
    }

    /// Flatten coordinates back to a slot index.
    pub fn slot_of(&self, coords: &[usize]) -> usize {
        assert_eq!(coords.len(), self.n_dims());
        let mut slot = 0;
        for (d, &c) in coords.iter().enumerate() {
            assert!(c < self.dims[d].len(), "coord {c} out of range in dim {d}");
            slot = slot * self.dims[d].len() + c;
        }
        slot
    }

    /// The parameter values held by a grid slot.
    pub fn params_at(&self, coords: &[usize]) -> Vec<ExchangeParam> {
        coords.iter().enumerate().map(|(d, &c)| self.dims[d].ladder[c].clone()).collect()
    }

    /// Exchange groups for dimension `d`: each group lists the slots that
    /// share all other coordinates, ordered by their coordinate in `d`
    /// (i.e., each group is one 1-D sub-ladder).
    pub fn groups_for_dimension(&self, d: usize) -> Vec<Vec<usize>> {
        assert!(d < self.n_dims());
        let n_groups = self.n_slots() / self.dims[d].len();
        let mut groups = Vec::with_capacity(n_groups);
        // Iterate over all coordinate combinations of the other dims.
        let mut other_coords = vec![0usize; self.n_dims()];
        loop {
            // Build the group by sweeping dimension d.
            let mut group = Vec::with_capacity(self.dims[d].len());
            for c in 0..self.dims[d].len() {
                let mut coords = other_coords.clone();
                coords[d] = c;
                group.push(self.slot_of(&coords));
            }
            groups.push(group);
            // Odometer increment over the other dimensions.
            let mut dim = self.n_dims();
            loop {
                if dim == 0 {
                    return groups;
                }
                dim -= 1;
                if dim == d {
                    continue;
                }
                other_coords[dim] += 1;
                if other_coords[dim] < self.dims[dim].len() {
                    break;
                }
                other_coords[dim] = 0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tsu_grid(n: usize) -> ParamGrid {
        ParamGrid::new(vec![
            Dimension::temperature_geometric(273.0, 373.0, n),
            Dimension::salt_linear(0.0, 1.0, n),
            Dimension::umbrella_uniform("phi", n, 0.02),
        ])
        .unwrap()
    }

    #[test]
    fn paper_replica_counts() {
        // Weak-scaling sweep of Fig. 9: n per dim 4..12 -> 64..1728 total.
        for (n, total) in [(4, 64), (6, 216), (8, 512), (10, 1000), (12, 1728)] {
            assert_eq!(tsu_grid(n).n_slots(), total);
        }
    }

    #[test]
    fn type_string_reflects_ordering() {
        assert_eq!(tsu_grid(4).type_string(), "TSU");
        let tuu = ParamGrid::new(vec![
            Dimension::temperature_geometric(273.0, 373.0, 6),
            Dimension::umbrella_uniform("phi", 6, 0.02),
            Dimension::umbrella_uniform("psi", 6, 0.02),
        ])
        .unwrap();
        assert_eq!(tuu.type_string(), "TUU");
    }

    #[test]
    fn coords_roundtrip() {
        let g = tsu_grid(5);
        for slot in 0..g.n_slots() {
            let c = g.coords_of(slot);
            assert_eq!(g.slot_of(&c), slot);
        }
    }

    #[test]
    fn groups_partition_all_slots() {
        let g = tsu_grid(4);
        for d in 0..3 {
            let groups = g.groups_for_dimension(d);
            assert_eq!(groups.len(), 16, "64 slots / 4 per group");
            let mut seen = vec![false; g.n_slots()];
            for group in &groups {
                assert_eq!(group.len(), 4);
                for &s in group {
                    assert!(!seen[s], "slot {s} in two groups");
                    seen[s] = true;
                }
            }
            assert!(seen.iter().all(|&b| b), "every slot grouped");
        }
    }

    #[test]
    fn group_members_differ_only_in_target_dimension() {
        let g = tsu_grid(3);
        for d in 0..3 {
            for group in g.groups_for_dimension(d) {
                let base = g.coords_of(group[0]);
                for (rank, &slot) in group.iter().enumerate() {
                    let c = g.coords_of(slot);
                    assert_eq!(c[d], rank, "ordered by coordinate in dim {d}");
                    for other in 0..3 {
                        if other != d {
                            assert_eq!(c[other], base[other]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn params_at_matches_ladders() {
        let g = tsu_grid(4);
        let coords = vec![2, 1, 3];
        let params = g.params_at(&coords);
        assert_eq!(params[0], g.dims[0].ladder[2]);
        assert_eq!(params[1], g.dims[1].ladder[1]);
        assert_eq!(params[2], g.dims[2].ladder[3]);
    }

    #[test]
    fn one_dimensional_grid_is_single_group() {
        let g = ParamGrid::new(vec![Dimension::temperature_geometric(273.0, 373.0, 8)]).unwrap();
        let groups = g.groups_for_dimension(0);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0], (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn validation_errors() {
        assert!(ParamGrid::new(vec![]).is_err());
        let four = vec![
            Dimension::temperature_geometric(273.0, 373.0, 2),
            Dimension::salt_linear(0.0, 1.0, 2),
            Dimension::umbrella_uniform("phi", 2, 0.02),
            Dimension::umbrella_uniform("psi", 2, 0.02),
        ];
        assert!(ParamGrid::new(four).is_err(), "more than 3 dims rejected");
    }

    #[test]
    fn validation_of_paper_grid_384() {
        // Fig. 4 validation: 6 T × 8 U(phi) × 8 U(psi) = 384 replicas.
        let g = ParamGrid::new(vec![
            Dimension::temperature_geometric(273.0, 373.0, 6),
            Dimension::umbrella_uniform("phi", 8, 0.02),
            Dimension::umbrella_uniform("psi", 8, 0.02),
        ])
        .unwrap();
        assert_eq!(g.n_slots(), 384);
        assert_eq!(g.type_string(), "TUU");
    }
}
