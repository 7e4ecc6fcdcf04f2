//! Rendering: the shared `--json` diagnostics schema and the
//! compiler-style human format (`file:line:col: severity[CODE]: message`).
//!
//! `repex check` and `repex analyze` emit the *same* JSON shape:
//!
//! ```json
//! {
//!   "diagnostics": [
//!     {"code": "L201", "severity": "error", "message": "...",
//!      "path": "/resource/cores", "hint": "...", "line": 12, "col": 14}
//!   ],
//!   "summary": {"errors": 1, "warnings": 0, "infos": 0}
//! }
//! ```

use obs::diag::{severity_counts, Diagnostic};
use obs::json::{self, Encode, Value};
use obs::json_fields;

/// One diagnostic plus its resolved source span (when the config source
/// text contains the flagged path).
#[derive(Debug, Clone)]
pub struct Located {
    pub diagnostic: Diagnostic,
    pub line: Option<usize>,
    pub col: Option<usize>,
}

/// The diagnostic's own keys, then `line` and `col` when the span resolved.
impl Encode for Located {
    fn encode(&self) -> Value {
        self.diagnostic.encode().with("line", self.line).with("col", self.col).without_nulls()
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub errors: usize,
    pub warnings: usize,
    pub infos: usize,
}

impl Encode for Summary {
    fn encode(&self) -> Value {
        json_fields!(self; errors, warnings, infos)
    }
}

/// A complete lint/analyze report, ready for either output format.
#[derive(Debug, Clone)]
pub struct Report {
    pub diagnostics: Vec<Located>,
    pub summary: Summary,
}

impl Encode for Report {
    fn encode(&self) -> Value {
        json_fields!(self; diagnostics, summary)
    }
}

impl Report {
    /// Build a report, resolving each diagnostic's path against the
    /// config source text when available.
    pub fn new(diagnostics: Vec<Diagnostic>, source: Option<&str>) -> Self {
        let (errors, warnings, infos) = severity_counts(&diagnostics);
        let diagnostics = diagnostics
            .into_iter()
            .map(|d| {
                let at =
                    source.zip(d.path.as_deref()).and_then(|(text, path)| json::locate(text, path));
                Located { diagnostic: d, line: at.map(|(l, _)| l), col: at.map(|(_, c)| c) }
            })
            .collect();
        Report { diagnostics, summary: Summary { errors, warnings, infos } }
    }

    pub fn has_errors(&self) -> bool {
        self.summary.errors > 0
    }

    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The shared `--json` schema.
    pub fn to_json(&self) -> String {
        self.encode().pretty()
    }

    /// Compiler-style listing, one finding per line plus hints.
    pub fn render_human(&self, filename: &str) -> String {
        let mut out = String::new();
        for loc in &self.diagnostics {
            let d = &loc.diagnostic;
            match (loc.line, loc.col) {
                (Some(l), Some(c)) => {
                    out.push_str(&format!("{filename}:{l}:{c}: {d}\n"));
                }
                _ => out.push_str(&format!("{filename}: {d}\n")),
            }
            if let Some(hint) = &d.hint {
                out.push_str(&format!("  hint: {hint}\n"));
            }
        }
        let s = self.summary;
        out.push_str(&format!(
            "{}: {} error(s), {} warning(s), {} info(s)\n",
            filename, s.errors, s.warnings, s.infos
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::Diagnostic;

    fn sample() -> Vec<Diagnostic> {
        vec![
            Diagnostic::error("L201", "needs 4 cores").with_path("/resource/cores"),
            Diagnostic::warning("L101", "imbalance").with_hint("use 8 cores"),
            Diagnostic::info("L001", "Mode II"),
        ]
    }

    #[test]
    fn summary_counts_by_severity() {
        let r = Report::new(sample(), None);
        assert_eq!((r.summary.errors, r.summary.warnings, r.summary.infos), (1, 1, 1));
        assert!(r.has_errors());
        assert!(!r.is_empty());
    }

    #[test]
    fn json_schema_shape() {
        let src = r#"{"resource": {"cores": 2}}"#;
        let r = Report::new(sample(), Some(src));
        let v = json::parse(&r.to_json()).expect("valid json");
        let diags = v["diagnostics"].as_array().expect("array");
        assert_eq!(diags.len(), 3);
        assert_eq!(diags[0]["code"], "L201");
        assert_eq!(diags[0]["severity"], "error");
        assert_eq!(diags[0]["path"], "/resource/cores");
        assert_eq!(diags[0]["line"], 1, "span resolved against source");
        assert!(diags[2].get("path").is_none(), "absent fields are omitted");
        assert_eq!(v["summary"]["errors"], 1);
    }

    #[test]
    fn human_format_is_compiler_style() {
        let src = "{\n  \"resource\": {\"cores\": 2}\n}";
        let r = Report::new(sample(), Some(src));
        let text = r.render_human("plan.json");
        assert!(text.contains("plan.json:2:25: error[L201]"), "{text}");
        assert!(text.contains("  hint: use 8 cores"), "{text}");
        assert!(text.contains("1 error(s), 1 warning(s), 1 info(s)"), "{text}");
    }
}
