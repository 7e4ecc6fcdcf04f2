//! `paper [name…]` — regenerate the paper's evaluation: run the named
//! figures (all of them without arguments) in-process, print each, write it
//! to `results/<name>.txt`, and exit 1 if any shape check is `[FAIL]`.

use bench::{exit_status, meta_line, Figure, REGISTRY};
use std::process::ExitCode;

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = || REGISTRY.iter().flat_map(|e| e.figures.iter().copied());
    if let Some(unknown) = names.iter().find(|n| !known().any(|k| k == n.as_str())) {
        eprintln!("paper: no figure named {unknown:?}; one of:");
        known().for_each(|k| eprintln!("  {k}"));
        return ExitCode::from(2);
    }
    let wanted = |name: &str| names.is_empty() || names.iter().any(|n| n == name);

    // Provenance first: writing a results file makes the tree dirty.
    let meta = meta_line();
    let mut figures: Vec<Figure> = Vec::new();
    for experiment in REGISTRY.iter().filter(|e| e.figures.iter().any(|f| wanted(f))) {
        for figure in (experiment.run)().into_iter().filter(|f| wanted(f.name)) {
            println!("\n=== {} ===\n{}", figure.name, figure.text);
            match figure.write(&meta) {
                Ok(path) => eprintln!("[written: {}]", path.display()),
                Err(e) => {
                    eprintln!("paper: cannot write results/{}.txt: {e}", figure.name);
                    return ExitCode::from(2);
                }
            }
            figures.push(figure);
        }
    }

    let checks = figures.iter().map(|f| f.checks.len()).sum::<usize>();
    println!("{meta}");
    println!("{} figures, {checks} checks", figures.len());
    for figure in &figures {
        figure.failed().for_each(|label| println!("[FAIL] {}: {label}", figure.name));
    }
    ExitCode::from(exit_status(&figures))
}
