//! Result emission: every figure binary prints to stdout and writes the same
//! text into `results/<name>.txt` so EXPERIMENTS.md can reference stable
//! artifacts. Perf-trajectory binaries additionally write `BENCH_*.json`
//! records at the repo root via [`write_bench_json`], stamped with
//! provenance metadata ([`bench_meta`]) so points are comparable across
//! machines and commits.

use obs::json::Value;
use std::fs;
use std::path::PathBuf;
use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Directory the binaries write into (repo-relative).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop();
    p.pop();
    p.push("results");
    p
}

/// The repository root (parent of `results/`).
pub fn repo_root() -> PathBuf {
    let mut p = results_dir();
    p.pop();
    p
}

/// Provenance block every `BENCH_*.json` record carries: toolchain, commit,
/// the host's thread count (`available_parallelism`, what the simulated
/// executor's MD waves run on) and wall-clock stamp. Numbers measured under different
/// thread counts are not comparable — `repex analyze --bench` warns on that.
pub fn bench_meta() -> Value {
    let unix = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs());
    obs::obj! {
        "rustc_version" => command_line("rustc", &["--version"]),
        "git_rev" => command_line("git", &["rev-parse", "--short", "HEAD"]),
        "n_threads" => std::thread::available_parallelism().map_or(1, |n| n.get()),
        "timestamp" => unix,
    }
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    match Command::new(cmd).args(args).current_dir(repo_root()).output() {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".into(),
    }
}

/// Write a `BENCH_*.json` payload at the repo root.
pub fn write_bench_json(filename: &str, payload: &Value) {
    let path = repo_root().join(filename);
    match fs::write(&path, payload.pretty()) {
        Ok(()) => eprintln!("[written: {}]", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
}

/// Print `content` and persist it under `results/<name>.txt`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let dir = results_dir();
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Err(e) = fs::write(&path, content) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            eprintln!("[written: {}]", path.display());
        }
    }
}

/// A PASS/FAIL line for the shape checks each binary performs against the
/// paper's qualitative claims.
pub fn check(label: &str, ok: bool) -> String {
    format!("[{}] {label}", if ok { "PASS" } else { "FAIL" })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_repo_root_results() {
        let d = results_dir();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists(), "repo root");
    }

    #[test]
    fn check_formatting() {
        assert_eq!(check("x", true), "[PASS] x");
        assert_eq!(check("y", false), "[FAIL] y");
    }

    #[test]
    fn bench_meta_has_provenance_fields() {
        let meta = bench_meta();
        for key in ["rustc_version", "git_rev", "n_threads", "timestamp"] {
            assert!(meta.get(key).is_some(), "missing {key}");
        }
        assert!(meta["n_threads"].as_u64().unwrap() >= 1);
    }
}
