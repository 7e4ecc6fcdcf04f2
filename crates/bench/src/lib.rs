//! # bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md's
//! per-experiment index); shared sweep helpers live here. Timed
//! microbenchmarks are the `BENCHMARK.json` probes under `benchmark/`.

pub mod experiments;
pub mod output;

pub use experiments::*;
pub use output::*;
