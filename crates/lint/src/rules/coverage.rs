//! L5xx — pairing round-trip coverage.
//!
//! Round trips (rung 0 → top → rung 0) require every adjacent bond of a
//! ladder to form *some* cycle. Alternating nearest-neighbour pairing
//! bonds `(i, i+1)` only on cycles whose parity matches `i % 2` — so a
//! single-cycle plan only ever forms even-parity bonds and the ladder
//! falls apart into disconnected 2-rung blocks. Which bonds can form is a
//! pure function of the pairing strategy and the cycle count, so the
//! coverage graph is computable without simulating.

use crate::PlanCtx;
use exchange::pairing::PairingStrategy;
use obs::Diagnostic;
use repex::config::Pattern;

/// Connected components of `len` ladder positions under the bonds the
/// plan can ever form: `(i, i+1)` exists iff `i % 2` is in `parities`.
/// Components are returned in ladder order.
pub fn reachable_components(len: usize, parities: &[usize]) -> Vec<Vec<usize>> {
    let mut comps: Vec<Vec<usize>> = Vec::new();
    for i in 0..len {
        if i > 0 && parities.contains(&((i - 1) % 2)) {
            if let Some(last) = comps.last_mut() {
                last.push(i);
                continue;
            }
        }
        comps.push(vec![i]);
    }
    comps
}

pub fn check(ctx: &PlanCtx, out: &mut Vec<Diagnostic>) {
    for (d, dim) in ctx.grid.dims.iter().enumerate() {
        if dim.len() == 1 {
            out.push(
                Diagnostic::warning(
                    "L502",
                    format!("dimension {d} has a single rung: it can never exchange"),
                )
                .with_path(format!("/dimensions/{d}"))
                .with_hint("give the dimension at least 2 rungs, or drop it"),
            );
        }
    }
    // Random pairing eventually proposes every pair; the parity argument
    // below is specific to alternating pairing under synchronous cycles
    // (the async pattern counts rounds, not cycles).
    if ctx.cfg.pairing != PairingStrategy::NeighborAlternating
        || ctx.cfg.pattern != Pattern::Synchronous
    {
        return;
    }
    let parities: &[usize] = if ctx.cfg.n_cycles == 1 { &[0] } else { &[0, 1] };
    for (d, dim) in ctx.grid.dims.iter().enumerate() {
        let comps = reachable_components(dim.len(), parities);
        if comps.len() > 1 {
            out.push(
                Diagnostic::warning(
                    "L501",
                    format!(
                        "with n-cycles = {} alternating pairing only forms even-indexed pairs \
                         in dimension {d}: the {}-rung ladder splits into {} disconnected \
                         blocks and no replica can ever round-trip",
                        ctx.cfg.n_cycles,
                        dim.len(),
                        comps.len(),
                    ),
                )
                .with_path("/n-cycles")
                .with_hint("run at least 2 cycles so odd-parity pairs also form"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint_config;
    use crate::tests::codes;
    use repex::config::{DimensionConfig, SimulationConfig};

    #[test]
    fn even_parity_only_splits_into_pair_blocks() {
        assert_eq!(reachable_components(6, &[0]), vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
        assert_eq!(reachable_components(5, &[0]), vec![vec![0, 1], vec![2, 3], vec![4]]);
    }

    #[test]
    fn both_parities_connect_the_whole_ladder() {
        assert_eq!(reachable_components(6, &[0, 1]), vec![(0..6).collect::<Vec<_>>()]);
        assert_eq!(reachable_components(1, &[0, 1]), vec![vec![0]]);
        assert!(reachable_components(0, &[0]).is_empty());
    }

    #[test]
    fn single_cycle_plan_cannot_round_trip() {
        let cfg = SimulationConfig::t_remd(8, 600, 1);
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"L501"), "{diags:?}");
    }

    #[test]
    fn two_cycles_restore_coverage() {
        let cfg = SimulationConfig::t_remd(8, 600, 2);
        let diags = lint_config(&cfg);
        assert!(!codes(&diags).contains(&"L501"), "{diags:?}");
    }

    #[test]
    fn two_rung_ladder_is_connected_even_with_one_cycle() {
        let cfg = SimulationConfig::t_remd(2, 600, 1);
        let diags = lint_config(&cfg);
        assert!(!codes(&diags).contains(&"L501"), "{diags:?}");
    }

    #[test]
    fn single_rung_dimension_in_a_grid_warns() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.dimensions = vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
            DimensionConfig::Salt { min_molar: 0.1, max_molar: 0.1, count: 1 },
        ];
        let diags = lint_config(&cfg);
        assert!(codes(&diags).contains(&"L502"), "{diags:?}");
    }
}
