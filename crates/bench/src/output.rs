//! What an experiment returns and how it is recorded: a [`Figure`] is the
//! text of one table/figure plus its shape checks; the `paper` binary writes
//! it to `results/<name>.txt` under a `# meta:` provenance line and folds
//! every figure's checks into one exit status ([`exit_status`]).

use analysis::tables::TextTable;
use std::fs;
use std::path::PathBuf;
use std::process::Command;

/// One regenerated table or figure of the paper's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure {
    /// Stem of the `results/` file.
    pub name: &'static str,
    pub text: String,
    /// The shape checks against the paper's qualitative claims, in the order
    /// their `[PASS]`/`[FAIL]` lines appear in `text`.
    pub checks: Vec<(String, bool)>,
}

impl Figure {
    pub fn new(name: &'static str) -> Self {
        Figure { name, text: String::new(), checks: Vec::new() }
    }

    pub fn line(&mut self, text: impl AsRef<str>) {
        self.text.push_str(text.as_ref());
        self.text.push('\n');
    }

    /// A rendered table followed by the blank line that separates it from
    /// the checks.
    pub fn table(&mut self, table: &TextTable) {
        self.text.push_str(&table.render());
        self.text.push('\n');
    }

    /// Record a shape check and print its `[PASS]`/`[FAIL]` line.
    pub fn check(&mut self, label: impl Into<String>, ok: bool) {
        let label = label.into();
        self.line(format!("[{}] {label}", if ok { "PASS" } else { "FAIL" }));
        self.checks.push((label, ok));
    }

    pub fn failed(&self) -> impl Iterator<Item = &str> {
        self.checks.iter().filter(|(_, ok)| !ok).map(|(label, _)| label.as_str())
    }

    /// Write `results/<name>.txt`: the provenance line, then the text.
    pub fn write(&self, meta: &str) -> std::io::Result<PathBuf> {
        let path = results_dir().join(format!("{}.txt", self.name));
        fs::write(&path, format!("{meta}\n{}", self.text))?;
        Ok(path)
    }
}

/// The process status for a set of regenerated figures: 1 if any check of
/// any figure failed.
pub fn exit_status(figures: &[Figure]) -> u8 {
    u8::from(figures.iter().any(|f| f.failed().next().is_some()))
}

/// Directory the `paper` binary writes into (repo-relative).
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; results live at the repo root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// The `# meta:` line every results file starts with: toolchain, commit
/// (`-dirty` when the work tree differs from it) and the host's thread
/// count. No timestamp — git knows when. Read it before writing anything:
/// a regenerated file makes the tree dirty.
pub fn meta_line() -> String {
    let clean = command_line("git", &["status", "--porcelain"]).is_some_and(|s| s.is_empty());
    let rev = match command_line("git", &["rev-parse", "--short", "HEAD"]) {
        Some(rev) if clean => rev,
        Some(rev) => format!("{rev}-dirty"),
        None => "unknown".into(),
    };
    format!(
        "# meta: {} | rev {rev} | threads {}",
        command_line("rustc", &["--version"]).unwrap_or_else(|| "rustc unknown".into()),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).current_dir(results_dir()).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_repo_root_results() {
        let d = results_dir().canonicalize().unwrap();
        assert!(d.ends_with("results"));
        assert!(d.parent().unwrap().join("Cargo.toml").exists(), "repo root");
    }

    #[test]
    fn check_formatting() {
        let mut fig = Figure::new("x");
        fig.line("title");
        fig.check("x", true);
        fig.check(format!("y {}", 2), false);
        assert_eq!(fig.text, "title\n[PASS] x\n[FAIL] y 2\n");
        assert_eq!(fig.checks, [("x".to_string(), true), ("y 2".to_string(), false)]);
        assert_eq!(fig.failed().collect::<Vec<_>>(), ["y 2"]);
    }

    #[test]
    fn bench_meta_has_provenance_fields() {
        let meta = meta_line();
        let fields: Vec<&str> = meta.strip_prefix("# meta: ").unwrap().split(" | ").collect();
        assert_eq!(fields.len(), 3, "{meta}");
        assert!(fields[0].starts_with("rustc "), "{meta}");
        assert!(fields[1].starts_with("rev ") && !meta.contains('\n'), "{meta}");
        assert!(fields[2].strip_prefix("threads ").unwrap().parse::<usize>().unwrap() >= 1);
    }
}
