//! # bench — the paper's evaluation as one table of functions
//!
//! Every table and figure of the paper's evaluation, and every ablation, is
//! a function returning a [`Figure`]: its text and its shape checks.
//! [`REGISTRY`] lists them once. The `paper` binary runs the registry,
//! writes `results/<name>.txt` and exits 1 if any check failed;
//! `tests/paper.rs` calls the same functions under tier-1. Timed
//! microbenchmarks are the `BENCHMARK.json` probes under `benchmark/`.

pub mod ablations;
pub mod experiments;
pub mod figures;
pub mod output;

pub use experiments::*;
pub use output::*;

/// One entry of the evaluation: a run and the figures drawn from it.
pub struct Experiment {
    /// The `results/` stems `run` returns, in order.
    pub figures: &'static [&'static str],
    pub run: fn() -> Vec<Figure>,
}

/// The paper's evaluation (DESIGN.md §4), in the order it is regenerated.
/// Where a function takes a size, this is the recorded one; `tests/paper.rs`
/// is its other caller, with a size a debug build affords.
pub const REGISTRY: [Experiment; 13] = [
    Experiment { figures: &["table1_comparison"], run: || vec![figures::table1_comparison()] },
    Experiment {
        figures: &["fig04_validation"],
        run: || vec![figures::fig04_validation(24, 600, 40)],
    },
    Experiment { figures: &["fig05_overheads"], run: || vec![figures::fig05_overheads()] },
    Experiment {
        figures: &["fig06_weak_1d", "fig07_efficiency_1d"],
        run: || figures::one_d_scaling(4),
    },
    Experiment { figures: &["fig08_namd"], run: || vec![figures::fig08_namd()] },
    Experiment {
        figures: &["fig09_weak_tsu", "fig10_strong_tsu", "fig11_efficiency_tsu"],
        run: || figures::tsu_scaling(2),
    },
    Experiment { figures: &["fig12_multicore"], run: || vec![figures::fig12_multicore()] },
    Experiment {
        figures: &["fig13_async_utilization"],
        run: || vec![figures::fig13_async_utilization()],
    },
    Experiment { figures: &["ablate_straggler"], run: || vec![ablations::ablate_straggler()] },
    Experiment {
        figures: &["ablate_batch_fraction"],
        run: || vec![ablations::ablate_batch_fraction()],
    },
    Experiment { figures: &["ablate_pairing"], run: || vec![ablations::ablate_pairing()] },
    Experiment { figures: &["ablate_gpu"], run: || vec![ablations::ablate_gpu()] },
    Experiment { figures: &["ablate_ladder_opt"], run: || vec![ablations::ablate_ladder_opt()] },
];
