//! `compare A B`: apply each end-to-end metric's bound to two sets of run
//! records and say, per (workload, metric), whether B is the same as A,
//! improved, regressed, or too noisy to tell.

use crate::catalogue::{self, Better};
use crate::json::{self, Value};
use crate::stats::{median, spread};
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Improved,
    Regressed,
    /// Run-to-run spread is wider than the bound, so "unchanged" cannot be
    /// claimed (and B is not better on every run either).
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A for one metric. `a`/`b` hold one value per run.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (med_a, med_b) = (median(a), median(b));
    // Positive = B is worse, as a share of A's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = if med_a == 0.0 { 0.0 } else { sign * (med_b - med_a) / med_a.abs() };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    if spread(a).max(spread(b)) > bound {
        let every_b_better = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
        return if every_b_better { Verdict::Improved } else { Verdict::Unresolved };
    }
    if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Same
    }
}

/// workload -> metric -> one value per run record.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Read a set: one JSON document per line, each either a run record or a
/// document with a `runs` array of them (what the all-workloads mode prints).
pub fn load_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (i, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let records = match doc.get("runs").and_then(Value::as_array) {
            Some(runs) => runs.to_vec(),
            None => vec![doc],
        };
        for r in &records {
            let workload = r
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: record without a workload", i + 1))?;
            let metrics = r
                .get("metrics")
                .and_then(Value::as_object)
                .ok_or_else(|| format!("line {}: record without metrics", i + 1))?;
            let per_metric = set.entry(workload.to_string()).or_default();
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Value::as_f64)
                    .ok_or_else(|| format!("line {}: metric {name} without a value", i + 1))?;
                per_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if set.is_empty() {
        return Err("no run records".to_string());
    }
    Ok(set)
}

/// Compare two sets; returns the printed table and whether anything regressed.
pub fn compare(a: &Set, b: &Set) -> (String, bool) {
    let mut out = String::new();
    let mut regressed = false;
    out.push_str(&format!(
        "{:<12} {:<22} {:>14} {:>14} {:>8} {:>7} {:>5} {:>5}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "bound", "n A", "n B"
    ));
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else { continue };
        for m in &catalogue::END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let verdict = judge(va, vb, m.better, m.bound);
            regressed |= verdict == Verdict::Regressed;
            let (med_a, med_b) = (median(va), median(vb));
            let change = if med_a == 0.0 { 0.0 } else { (med_b - med_a) / med_a.abs() * 100.0 };
            out.push_str(&format!(
                "{:<12} {:<22} {:>14.6} {:>14.6} {:>+7.2}% {:>6.0}% {:>5} {:>5}  {}\n",
                workload,
                m.name,
                med_a,
                med_b,
                change,
                m.bound * 100.0,
                va.len(),
                vb.len(),
                verdict.as_str()
            ));
        }
    }
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let lower = Better::Lower;
        assert_eq!(judge(&base, &base, lower, 0.1), Verdict::Same);
        assert_eq!(judge(&base, &[10.5, 10.6, 10.4], lower, 0.1), Verdict::Same);
        assert_eq!(judge(&base, &[11.5, 11.6, 11.4], lower, 0.1), Verdict::Regressed);
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9], lower, 0.1), Verdict::Improved);
        // Direction flips for higher-is-better.
        assert_eq!(judge(&base, &[8.0, 8.1, 7.9], Better::Higher, 0.1), Verdict::Regressed);
        assert_eq!(judge(&base, &[12.0, 12.1, 11.9], Better::Higher, 0.1), Verdict::Improved);
        // Noisy: spread wider than the bound and the ranges overlap.
        let noisy_a = [8.0, 10.0, 12.0, 9.0, 11.0];
        let noisy_b = [8.5, 10.2, 11.5, 9.5, 10.5];
        assert_eq!(judge(&noisy_a, &noisy_b, lower, 0.1), Verdict::Unresolved);
        // Noisy, but every B run beats every A run.
        assert_eq!(judge(&noisy_a, &[5.0, 6.0, 7.0], lower, 0.1), Verdict::Improved);
        // A regression is called even through noise.
        assert_eq!(judge(&noisy_a, &[14.0, 16.0, 18.0], lower, 0.1), Verdict::Regressed);
        // Exact counts: zero medians never divide.
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0], lower, 0.05), Verdict::Same);
    }

    fn record(workload: &str, wall: f64, makespan: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"metrics\":{{\
             \"campaign_wall_s\":{{\"value\":{wall},\"unit\":\"s\"}},\
             \"virt_makespan_s\":{{\"value\":{makespan},\"unit\":\"s\"}},\
             \"mdsim.step_us\":{{\"value\":3,\"unit\":\"us\"}}}}}}"
        )
    }

    #[test]
    fn sets_load_from_lines_and_from_runs_documents() {
        let lines = [record("wide-1d", 3.0, 100.0), String::new(), record("wide-1d", 3.2, 100.0)];
        let a = load_set(&lines.join("\n")).unwrap();
        assert_eq!(a["wide-1d"]["campaign_wall_s"], [3.0, 3.2]);
        let doc = format!("{{\"meta\":{{}},\"runs\":[{},{}]}}", lines[0], record("md", 1.0, 5.0));
        let b = load_set(&doc).unwrap();
        assert_eq!(b.len(), 2);
        assert!(load_set("").is_err());
        assert!(load_set("{\"metrics\":{}}").unwrap_err().contains("workload"));
        assert!(load_set("not json").unwrap_err().contains("line 1"));
    }

    #[test]
    fn compare_flags_a_regression_and_ignores_unbounded_metrics() {
        let a = load_set(&[record("w", 3.0, 100.0), record("w", 3.1, 100.0)].join("\n")).unwrap();
        let same =
            load_set(&[record("w", 3.05, 100.0), record("w", 3.0, 100.0)].join("\n")).unwrap();
        let slow =
            load_set(&[record("w", 4.0, 100.0), record("w", 4.1, 100.0)].join("\n")).unwrap();
        let (table, regressed) = compare(&a, &same);
        assert!(!regressed, "{table}");
        assert!(table.contains("campaign_wall_s") && !table.contains("mdsim.step_us"));
        let (table, regressed) = compare(&a, &slow);
        assert!(regressed && table.contains("regressed"), "{table}");
        assert!(table.lines().any(|l| l.contains("virt_makespan_s") && l.ends_with("same")));
    }
}
