//! Structured diagnostics: the one finding type of configuration
//! validation, the `lint` static analyzer and the run-health rules.
//!
//! A [`Diagnostic`] is a typed finding: a stable code (`C0xx` for config
//! validity, `L1xx`–`L6xx` for lint rules, `A1xx` for trace analysis, `W2xx`
//! for the live rules), a severity, a human message, an optional
//! JSON-pointer-style path into the config document (kebab-case keys, e.g.
//! `/resource/cores`) and an optional fix-it hint. The CLI renders these
//! uniformly (`repex check`, `repex analyze`, `repex watch`) and maps them
//! onto one exit code convention: 0 = clean, 1 = Error-level findings,
//! 2 = usage error.

use crate::json::{self, Decode, Encode, Value};
use crate::obj;
use std::fmt;

/// How bad a finding is. Ordered: `Info < Warning < Error`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a prediction or note, nothing to fix.
    Info,
    /// The plan runs but will likely waste resources or sample poorly.
    Warning,
    /// The plan is invalid or guaranteed to misbehave; `repex run` refuses
    /// it unless forced.
    Error,
}

crate::json_enum!(Severity { Info: "info", Warning: "warning", Error: "error" });

/// One typed finding about a simulation plan or a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule code, e.g. `C020` or `L401`.
    pub code: String,
    pub severity: Severity,
    pub message: String,
    /// JSON-pointer-style path into the config document (kebab-case keys),
    /// e.g. `/dimensions/0/count`. `None` for whole-document findings.
    pub path: Option<String>,
    /// Suggested fix.
    pub hint: Option<String>,
}

/// `path` and `hint` are left out when there is none.
impl Encode for Diagnostic {
    fn encode(&self) -> Value {
        let all = obj! {
            "code" => self.code,
            "severity" => self.severity,
            "message" => self.message,
            "path" => self.path,
            "hint" => self.hint,
        };
        all.without_nulls()
    }
}

impl Decode for Diagnostic {
    fn decode(v: &Value) -> Result<Self, json::Error> {
        Ok(Diagnostic {
            code: v.field("code", None)?,
            severity: v.field("severity", None)?,
            message: v.field("message", None)?,
            path: v.field("path", None)?,
            hint: v.field("hint", None)?,
        })
    }
}

impl Diagnostic {
    pub fn new(severity: Severity, code: &str, message: impl Into<String>) -> Self {
        Diagnostic {
            code: code.to_string(),
            severity,
            message: message.into(),
            path: None,
            hint: None,
        }
    }

    pub fn error(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Error, code, message)
    }

    pub fn warning(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Warning, code, message)
    }

    pub fn info(code: &str, message: impl Into<String>) -> Self {
        Diagnostic::new(Severity::Info, code, message)
    }

    pub fn with_path(mut self, path: impl Into<String>) -> Self {
        self.path = Some(path.into());
        self
    }

    pub fn with_hint(mut self, hint: impl Into<String>) -> Self {
        self.hint = Some(hint.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity.name(), self.code, self.message)?;
        if let Some(path) = &self.path {
            write!(f, " (at {path})")?;
        }
        Ok(())
    }
}

/// The worst severity present, if any.
pub fn max_severity(diags: &[Diagnostic]) -> Option<Severity> {
    diags.iter().map(|d| d.severity).max()
}

/// Whether any finding is Error-level.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Counts by severity: (errors, warnings, infos).
pub fn severity_counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => c.0 += 1,
            Severity::Warning => c.1 += 1,
            Severity::Info => c.2 += 1,
        }
    }
    c
}

/// Sort findings most-severe first, stable within a severity (rule order).
pub fn sort_by_severity(diags: &mut [Diagnostic]) {
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_ordered() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.name(), "error");
    }

    #[test]
    fn display_includes_code_and_path() {
        let d = Diagnostic::error("C020", "steps-per-cycle must be positive")
            .with_path("/steps-per-cycle")
            .with_hint("set steps-per-cycle to a positive integer");
        let s = d.to_string();
        assert!(s.contains("error[C020]"), "{s}");
        assert!(s.contains("/steps-per-cycle"), "{s}");
    }

    #[test]
    fn helpers_summarize() {
        let diags = vec![
            Diagnostic::info("L001", "predicted cycle time 12 s"),
            Diagnostic::warning("L101", "last wave 25% utilized"),
            Diagnostic::error("C001", "dimensions list is empty"),
        ];
        assert_eq!(max_severity(&diags), Some(Severity::Error));
        assert!(has_errors(&diags));
        assert_eq!(severity_counts(&diags), (1, 1, 1));
        let mut sorted = diags.clone();
        sort_by_severity(&mut sorted);
        assert_eq!(sorted[0].code, "C001");
        assert_eq!(sorted[2].code, "L001");
        assert_eq!(max_severity(&[]), None);
    }

    #[test]
    fn json_schema_shape() {
        let d = Diagnostic::warning("L401", "predicted acceptance 0.02 below 0.05")
            .with_path("/dimensions/0");
        let v = d.encode();
        assert_eq!(v["code"], "L401");
        assert_eq!(v["severity"], "warning");
        assert_eq!(v["path"], "/dimensions/0");
        assert!(v.get("hint").is_none(), "absent hint is omitted");
        assert_eq!(Diagnostic::decode(&v), Ok(d));
    }
}
