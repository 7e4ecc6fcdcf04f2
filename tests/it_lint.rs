//! Integration: the pre-flight plan linter end to end.
//!
//! Covers the shared severity convention (one test per level), that every
//! shipped example config lints without error-level findings, and that the
//! round-trip-coverage rule (L501/L502) agrees with what a simulated run
//! actually measures via `exchange::stats`.

use lint::lint_config;
use obs::Severity;
use repex::config::{DimensionConfig, SimulationConfig};
use repex::simulation::RemdSimulation;

fn codes(diags: &[obs::Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.code.as_str()).collect()
}

#[test]
fn example_configs_lint_clean() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/configs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let cfg = SimulationConfig::from_json(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
        cfg.validate().unwrap_or_else(|e| panic!("{path:?}: {e}"));
        let diags = lint_config(&cfg);
        assert!(!obs::diag::has_errors(&diags), "{path:?} has error findings: {diags:?}");
        checked += 1;
    }
    assert!(checked >= 5, "expected the shipped example configs, found {checked}");
}

#[test]
fn clean_plan_produces_no_findings() {
    let diags = lint_config(&SimulationConfig::t_remd(8, 6000, 2));
    assert!(diags.is_empty(), "{diags:?}");
}

/// Info level: Mode II batching is worth knowing about, not a problem.
#[test]
fn info_level_mode_ii_plan() {
    let mut cfg = SimulationConfig::t_remd(16, 6000, 4);
    cfg.resource.cores = Some(8);
    let diags = lint_config(&cfg);
    assert!(codes(&diags).contains(&"L001"), "{diags:?}");
    assert_eq!(obs::diag::max_severity(&diags), Some(Severity::Info), "{diags:?}");
}

/// Warning level: the plan runs but won't do what the user wants.
#[test]
fn warning_level_single_cycle_plan() {
    let diags = lint_config(&SimulationConfig::t_remd(8, 6000, 1));
    assert!(codes(&diags).contains(&"L501"), "{diags:?}");
    assert_eq!(obs::diag::max_severity(&diags), Some(Severity::Warning), "{diags:?}");
}

/// Error level: the plan cannot work as configured.
#[test]
fn error_level_underprovisioned_salt_plan() {
    let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
    ];
    cfg.resource.cores = Some(2);
    let diags = lint_config(&cfg);
    assert!(codes(&diags).contains(&"L201"), "{diags:?}");
    assert_eq!(obs::diag::max_severity(&diags), Some(Severity::Error), "{diags:?}");
}

/// A 1-rung ladder: the linter warns it can never exchange (L502), and a
/// real run indeed measures zero round trips.
#[test]
fn single_rung_ladder_lint_agrees_with_simulation() {
    let mut cfg = SimulationConfig::t_remd(1, 600, 2);
    cfg.dimensions = vec![DimensionConfig::TemperatureList { temps_k: vec![300.0] }];
    cfg.surrogate_steps = 5;
    let diags = lint_config(&cfg);
    assert!(codes(&diags).contains(&"L502"), "{diags:?}");

    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.round_trips, 0);
    assert!(report.acceptance.iter().all(|(_, a)| a.attempts == 0), "nothing to pair with");
}

/// An odd-count ladder under a single cycle: alternating pairing only ever
/// forms even-parity bonds, the linter predicts disconnected blocks
/// (L501), and the simulated run confirms zero round trips.
#[test]
fn single_cycle_odd_ladder_lint_agrees_with_simulation() {
    let mut cfg = SimulationConfig::t_remd(5, 600, 1);
    cfg.surrogate_steps = 5;
    let diags = lint_config(&cfg);
    assert!(codes(&diags).contains(&"L501"), "{diags:?}");

    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.round_trips, 0, "blocks [0,1] [2,3] [4] cannot round-trip");
}

/// With both parities in play the linter is satisfied, and a long enough
/// run on a short ladder measures actual round trips — the rule's clean
/// verdict is not vacuous.
#[test]
fn multi_cycle_ladder_round_trips_where_lint_is_quiet() {
    let mut cfg = SimulationConfig::t_remd(3, 600, 100);
    cfg.surrogate_steps = 5;
    let diags = lint_config(&cfg);
    assert!(!codes(&diags).contains(&"L501"), "{diags:?}");
    assert!(!codes(&diags).contains(&"L502"), "{diags:?}");

    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert!(report.round_trips > 0, "100 cycles on a 3-rung ladder must round-trip");
}
