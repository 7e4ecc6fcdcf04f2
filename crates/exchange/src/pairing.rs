//! Exchange-partner selection within a ladder.
//!
//! The workhorse is alternating nearest-neighbour pairing: even cycles pair
//! (0,1)(2,3)..., odd cycles pair (1,2)(3,4)... so parameters can random-walk
//! along the whole ladder. Random pairing ([`Rng::shuffle`]) is an ablation
//! baseline (it mixes worse because distant pairs rarely accept).

use rng::Rng;

/// Strategy for picking exchange partners within one dimension's group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairingStrategy {
    /// Alternating nearest neighbours by cycle parity (standard REMD).
    NeighborAlternating,
    /// Uniformly random disjoint pairs (ablation baseline).
    Random,
}

obs::json_enum!(PairingStrategy { NeighborAlternating: "neighbor-alternating", Random: "random" });

/// Produce disjoint index pairs over `n` ladder slots for a given cycle.
/// Indices refer to *ladder positions* (0 = lowest parameter value).
pub fn select_pairs(
    strategy: PairingStrategy,
    n: usize,
    cycle: u64,
    rng: &mut Rng,
) -> Vec<(usize, usize)> {
    match strategy {
        PairingStrategy::NeighborAlternating => {
            let start = (cycle % 2) as usize;
            (start..n.saturating_sub(1)).step_by(2).map(|i| (i, i + 1)).collect()
        }
        PairingStrategy::Random => {
            let mut idx: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut idx);
            idx.chunks_exact(2).map(|c| (c[0].min(c[1]), c[0].max(c[1]))).collect()
        }
    }
}

/// Check that a pairing is valid: disjoint, in-range, no self-pairs.
pub fn validate_pairs(pairs: &[(usize, usize)], n: usize) -> Result<(), String> {
    let mut seen = vec![false; n];
    for &(a, b) in pairs {
        if a >= n || b >= n {
            return Err(format!("pair ({a},{b}) out of range 0..{n}"));
        }
        if a == b {
            return Err(format!("self-pair ({a},{b})"));
        }
        if seen[a] || seen[b] {
            return Err(format!("index reused in pair ({a},{b})"));
        }
        seen[a] = true;
        seen[b] = true;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_cycle_pairs_from_zero() {
        let mut rng = Rng::seed(0);
        let p = select_pairs(PairingStrategy::NeighborAlternating, 6, 0, &mut rng);
        assert_eq!(p, vec![(0, 1), (2, 3), (4, 5)]);
    }

    #[test]
    fn odd_cycle_pairs_from_one() {
        let mut rng = Rng::seed(0);
        let p = select_pairs(PairingStrategy::NeighborAlternating, 6, 1, &mut rng);
        assert_eq!(p, vec![(1, 2), (3, 4)]);
        // Ends 0 and 5 rest this cycle; they pair next cycle.
    }

    #[test]
    fn alternation_covers_every_adjacent_pair_over_two_cycles() {
        let mut rng = Rng::seed(0);
        let mut covered = std::collections::BTreeSet::new();
        for cycle in 0..2 {
            for (a, b) in select_pairs(PairingStrategy::NeighborAlternating, 8, cycle, &mut rng) {
                covered.insert((a, b));
            }
        }
        let expected: std::collections::BTreeSet<_> = (0..7).map(|i| (i, i + 1)).collect();
        assert_eq!(covered, expected);
    }

    #[test]
    fn odd_ladder_sizes() {
        let mut rng = Rng::seed(0);
        let p0 = select_pairs(PairingStrategy::NeighborAlternating, 5, 0, &mut rng);
        assert_eq!(p0, vec![(0, 1), (2, 3)]);
        let p1 = select_pairs(PairingStrategy::NeighborAlternating, 5, 1, &mut rng);
        assert_eq!(p1, vec![(1, 2), (3, 4)]);
    }

    #[test]
    fn degenerate_sizes() {
        let mut rng = Rng::seed(0);
        assert!(select_pairs(PairingStrategy::NeighborAlternating, 0, 0, &mut rng).is_empty());
        assert!(select_pairs(PairingStrategy::NeighborAlternating, 1, 0, &mut rng).is_empty());
        assert!(select_pairs(PairingStrategy::Random, 1, 0, &mut rng).is_empty());
    }

    #[test]
    fn random_pairs_are_valid_and_cover_most_indices() {
        let mut rng = Rng::seed(5);
        for n in [2usize, 7, 16, 33] {
            let p = select_pairs(PairingStrategy::Random, n, 3, &mut rng);
            validate_pairs(&p, n).unwrap();
            assert_eq!(p.len(), n / 2);
        }
    }

    #[test]
    fn validator_catches_problems() {
        assert!(validate_pairs(&[(0, 0)], 2).is_err());
        assert!(validate_pairs(&[(0, 5)], 2).is_err());
        assert!(validate_pairs(&[(0, 1), (1, 2)], 3).is_err());
        assert!(validate_pairs(&[(0, 1), (2, 3)], 4).is_ok());
    }

    #[test]
    fn neighbor_pairs_always_valid() {
        rng::check(256, |r| {
            let (n, cycle) = (r.range(0usize..64), r.range(0u64..8));
            let p = select_pairs(PairingStrategy::NeighborAlternating, n, cycle, r);
            assert!(validate_pairs(&p, n.max(1)).is_ok() || n == 0);
            for (a, b) in p {
                assert_eq!(b, a + 1, "neighbours only");
            }
        });
    }
}
