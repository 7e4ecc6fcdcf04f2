//! The paper's evaluation as a tier-1 gate: every experiment of
//! [`bench::REGISTRY`] runs here through the same functions the `paper`
//! binary calls — at the recorded size wherever a debug build affords it —
//! and every shape check must pass. A driver or performance-model change
//! that bends a paper curve fails here; so does a committed `results/` file
//! that is not a regeneration of its figure. Nothing here writes `results/`.

use bench::{exit_status, figures, results_dir, Figure, REGISTRY};
use std::collections::BTreeSet;

fn is_check_line(line: &str) -> bool {
    line.starts_with("[PASS] ") || line.starts_with("[FAIL] ")
}

/// Every check of `fig` passes, and the committed `results/<name>.txt` was
/// written by the `paper` binary from the same set of checks.
fn gate(fig: &Figure) {
    assert_eq!(fig.failed().collect::<Vec<_>>(), Vec::<&str>::new(), "{} [FAIL]", fig.name);
    assert!(!fig.checks.is_empty(), "{} checks nothing", fig.name);
    assert_eq!(fig.text.lines().filter(|l| is_check_line(l)).count(), fig.checks.len());

    let path = results_dir().join(format!("{}.txt", fig.name));
    let committed =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let regenerate = "regenerate with `cargo run --release -p bench --bin paper`";
    assert!(committed.starts_with("# meta: "), "{}: no `# meta:` line; {regenerate}", fig.name);
    assert!(!committed.contains("[FAIL]"), "{}: a committed [FAIL]", fig.name);
    assert_eq!(
        committed.lines().filter(|l| is_check_line(l)).count(),
        fig.checks.len(),
        "{}: the committed file predates a check; {regenerate}",
        fig.name
    );
}

/// Gate every figure of one experiment's run; the run returns what its
/// registry entry declares.
fn gate_all(figures: Vec<Figure>) -> Vec<Figure> {
    let first = figures.first().expect("an experiment draws a figure").name;
    let experiment = REGISTRY.iter().find(|e| e.figures[0] == first).expect("registered");
    assert_eq!(figures.iter().map(|f| f.name).collect::<Vec<_>>(), experiment.figures);
    figures.iter().for_each(gate);
    figures
}

/// Run the registry entry that draws `name`, at the recorded size.
fn run_and_gate(name: &str) -> Vec<Figure> {
    gate_all((REGISTRY.iter().find(|e| e.figures[0] == name).expect("registered").run)())
}

#[test]
fn table1_comparison() {
    run_and_gate("table1_comparison");
}

// Three experiments run below their recorded size, which a debug build does
// not afford (Fig. 4 alone takes over a minute): same ensembles, same
// checks. Fig. 4 runs 2 cycles of 400 steps instead of 24 of 600 and
// samples every 5 steps instead of every 40, so the surfaces are still
// covered; the two scaling sweeps average fewer cycles of the same runs.

#[test]
fn fig04_validation() {
    gate_all(vec![figures::fig04_validation(2, 400, 5)]);
}

#[test]
fn fig05_overheads() {
    run_and_gate("fig05_overheads");
}

#[test]
fn fig06_fig07_one_d_scaling() {
    gate_all(figures::one_d_scaling(1));
}

#[test]
fn fig08_namd() {
    run_and_gate("fig08_namd");
}

#[test]
fn fig09_fig10_fig11_tsu_scaling() {
    gate_all(figures::tsu_scaling(1));
}

#[test]
fn fig12_multicore() {
    run_and_gate("fig12_multicore");
}

/// Also the determinism check: a results file is a function of the code.
#[test]
fn fig13_async_utilization_twice_the_same() {
    assert_eq!(run_and_gate("fig13_async_utilization"), [figures::fig13_async_utilization()]);
}

#[test]
fn ablate_straggler() {
    run_and_gate("ablate_straggler");
}

#[test]
fn ablate_batch_fraction() {
    run_and_gate("ablate_batch_fraction");
}

#[test]
fn ablate_pairing() {
    run_and_gate("ablate_pairing");
}

#[test]
fn ablate_gpu() {
    run_and_gate("ablate_gpu");
}

#[test]
fn ablate_ladder_opt() {
    run_and_gate("ablate_ladder_opt");
}

/// The registry and `results/` name the same figures: no unregistered file
/// of the three families, no registered figure without a record, no name
/// twice.
#[test]
fn registry_names_are_unique_and_are_the_results_stems() {
    let registered: Vec<&str> = REGISTRY.iter().flat_map(|e| e.figures.iter().copied()).collect();
    let unique: BTreeSet<String> = registered.iter().map(|n| n.to_string()).collect();
    assert_eq!(unique.len(), registered.len(), "a figure is registered twice: {registered:?}");

    let committed: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/")
        .filter_map(|entry| {
            entry.ok()?.file_name().to_str()?.strip_suffix(".txt").map(String::from)
        })
        .filter(|stem| ["table1", "fig", "ablate_"].iter().any(|family| stem.starts_with(family)))
        .collect();
    assert_eq!(unique, committed);
}

#[test]
fn one_failing_check_fails_the_command() {
    let mut passing = Figure::new("passing");
    passing.check("holds", true);
    let mut failing = Figure::new("failing");
    failing.check("holds", true);
    failing.check("does not", false);
    assert_eq!(exit_status(&[]), 0);
    assert_eq!(exit_status(&[passing.clone()]), 0);
    assert_ne!(exit_status(&[passing, failing]), 0);
}
