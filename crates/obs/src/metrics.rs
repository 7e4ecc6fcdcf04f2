//! Prometheus text exposition of live telemetry.
//!
//! One writer serves every `/metrics` page and `--prom` file:
//! [`prometheus_gauge`] writes a metric's `# HELP`/`# TYPE` header once and
//! then its samples, and [`prometheus_text`] renders the
//! [`TelemetrySnapshot`]s of distinct campaigns through it, so several
//! campaigns share one header per metric and their `campaign` labels keep
//! the series disjoint. The campaign service writes its own gauges with the
//! same writer before the campaigns' snapshots.

use crate::live::{DimSnapshot, TelemetrySnapshot};

/// Sanitize a name into the Prometheus metric-name alphabet
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (invalid characters map to `_`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape any campaign string as a Prometheus label value (`\` → `\\`,
/// `"` → `\"`, newline → `\n`). This is the single shared sanitizer: the
/// exporter uses it for the `campaign` label and the campaign service uses
/// it for service-level series, so the two can never drift. For ids
/// accepted by [`validate_campaign_id`](crate::validate_campaign_id) it is
/// the identity.
pub fn campaign_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// `{key="value",..}` with every value escaped through [`campaign_label`];
/// empty for no labels.
pub fn prometheus_labels(pairs: &[(&str, &str)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        pairs.iter().map(|(k, v)| format!("{k}=\"{}\"", campaign_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

/// Append one gauge: its `# HELP`/`# TYPE` header once, then one sample per
/// `(labels, value)` pair; nothing at all without samples. The name goes
/// through [`sanitize_metric_name`].
pub fn prometheus_gauge(
    out: &mut String,
    name: &str,
    help: &str,
    samples: impl IntoIterator<Item = (String, String)>,
) {
    let name = sanitize_metric_name(name);
    let mut samples = samples.into_iter().peekable();
    if samples.peek().is_some() {
        out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
    }
    for (labels, value) in samples {
        out.push_str(&format!("{name}{labels} {value}\n"));
    }
}

/// Render snapshots of distinct campaigns as one Prometheus text
/// exposition: each metric's header once, then one sample per snapshot
/// (per dimension, per firing rule). Every sample carries the `campaign`
/// label; a dimension's samples add its index (`dim`) and kind letter
/// (`kind`), so the two U dimensions of a T×U×U campaign stay two series.
pub fn prometheus_text(snaps: &[TelemetrySnapshot]) -> String {
    use crate::json::num_exact as n;
    type Scalar = fn(&TelemetrySnapshot) -> String;
    let scalars: [(&str, &str, Scalar); 15] = [
        ("repex_snapshot_seq", "monotonic telemetry snapshot counter", |s| s.seq.to_string()),
        ("repex_sim_time_seconds", "virtual clock at snapshot time", |s| n(s.time)),
        ("repex_completed_units", "work units completed (cycles or segments)", |s| {
            s.completed.to_string()
        }),
        ("repex_total_units", "work units in the whole campaign", |s| s.total.to_string()),
        ("repex_eta_seconds", "projected seconds to makespan", |s| n(s.eta_seconds)),
        ("repex_done", "1 when the campaign has finished", |s| u64::from(s.done).to_string()),
        ("repex_units_submitted_total", "pilot compute units submitted", |s| {
            s.units_submitted.to_string()
        }),
        ("repex_units_completed_total", "pilot compute units completed", |s| {
            s.units_completed.to_string()
        }),
        ("repex_failed_tasks_total", "task failures observed", |s| s.failed_tasks.to_string()),
        ("repex_relaunched_tasks_total", "task relaunches performed", |s| {
            s.relaunched_tasks.to_string()
        }),
        ("repex_md_segments_total", "successful MD segments", |s| s.md_segments.to_string()),
        ("repex_round_trips_total", "completed ladder round trips", |s| s.round_trips.to_string()),
        ("repex_stragglers_total", "straggler flags this leg", |s| s.stragglers.to_string()),
        ("repex_cycle_seconds_p50", "median per-cycle Tc this leg", |s| n(s.tc.p50)),
        ("repex_cycle_seconds_p99", "p99 per-cycle Tc this leg", |s| n(s.tc.p99)),
    ];
    type PerDim = fn(&DimSnapshot) -> String;
    let per_dim: [(&str, &str, PerDim); 3] = [
        ("repex_exchange_attempts_total", "exchange attempts per dimension", |d| {
            d.attempts.to_string()
        }),
        ("repex_exchange_accepted_total", "accepted exchanges per dimension", |d| {
            d.accepted.to_string()
        }),
        ("repex_exchange_acceptance_ratio", "cumulative acceptance ratio per dimension", |d| {
            n(d.ratio())
        }),
    ];
    let mut out = String::with_capacity(1024 * snaps.len());
    for (name, help, value) in scalars {
        let samples =
            snaps.iter().map(|s| (prometheus_labels(&[("campaign", &s.campaign)]), value(s)));
        prometheus_gauge(&mut out, name, help, samples);
    }
    for (name, help, value) in per_dim {
        let samples = snaps.iter().flat_map(|s| {
            s.dims.iter().map(move |d| {
                let (dim, kind) = (d.dim.to_string(), d.kind.to_string());
                let labels = [("campaign", s.campaign.as_str()), ("dim", &dim), ("kind", &kind)];
                (prometheus_labels(&labels), value(d))
            })
        });
        prometheus_gauge(&mut out, name, help, samples);
    }
    // A rule firing for two dimensions is still one series.
    let active = snaps.iter().flat_map(|s| {
        let mut seen = std::collections::BTreeSet::new();
        let codes = s.findings.iter().map(|f| f.code.as_str()).filter(move |c| seen.insert(*c));
        codes.map(|code| {
            (prometheus_labels(&[("campaign", &s.campaign), ("code", code)]), "1".into())
        })
    });
    prometheus_gauge(&mut out, "repex_finding_active", "1 while the W2xx rule is firing", active);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::live_findings;

    /// Every sample's (name, labels) once, and one `# TYPE` per name.
    fn assert_valid_exposition(text: &str) {
        let (mut series, mut names, mut types) = (Vec::new(), Vec::new(), Vec::new());
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                types.push(rest.split(' ').next().unwrap());
            } else if !line.starts_with('#') {
                let (id, _) = line.rsplit_once(' ').unwrap();
                assert!(!series.contains(&id), "repeated series {id}:\n{text}");
                series.push(id);
                names.push(id.split('{').next().unwrap());
            }
        }
        names.dedup();
        for name in names {
            let n = types.iter().filter(|t| **t == name).count();
            assert_eq!(n, 1, "{name} has {n} # TYPE lines:\n{text}");
        }
    }

    #[test]
    fn a_t_u_u_exposition_repeats_no_series() {
        let dim = |dim, kind| DimSnapshot { dim, kind, attempts: 12, ..Default::default() };
        let mut snap = TelemetrySnapshot {
            campaign: "tuu".into(),
            dims: vec![dim(0, 'T'), dim(1, 'U'), dim(2, 'U')],
            ..Default::default()
        };
        snap.findings = live_findings(&snap, 0);
        assert_eq!(snap.findings.len(), 3, "W201 for each starved dimension");
        let text = prometheus_text(&[snap]);
        assert_valid_exposition(&text);
        assert!(text
            .contains("repex_exchange_attempts_total{campaign=\"tuu\",dim=\"2\",kind=\"U\"} 12\n"));
        assert_eq!(text.matches("repex_finding_active{").count(), 1, "{text}");
    }

    fn snap(campaign: &str, completed: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            campaign: campaign.into(),
            completed,
            dims: vec![DimSnapshot { kind: 'T', attempts: 4, accepted: 2, ..Default::default() }],
            ..Default::default()
        }
    }

    #[test]
    fn merge_emits_one_header_block_per_metric() {
        let text = prometheus_text(&[snap("a", 1), snap("b", 2)]);
        assert_valid_exposition(&text);
        assert_eq!(text.matches("# HELP repex_completed_units ").count(), 1);
        // Samples sit directly under their one header, in snapshot order.
        assert!(text.contains(
            "# TYPE repex_completed_units gauge\nrepex_completed_units{campaign=\"a\"} 1\n\
             repex_completed_units{campaign=\"b\"} 2\n"
        ));
        assert!(!text.contains("repex_finding_active"), "no rule fires, no header");
    }

    #[test]
    fn merged_series_stay_disjoint_per_campaign_label() {
        let text = prometheus_text(&[snap("a", 1), snap("b", 2)]);
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
            assert!(seen.insert(series), "duplicate series {series}");
        }
        assert!(text.contains(
            "repex_exchange_attempts_total{campaign=\"a\",dim=\"0\",kind=\"T\"} 4\n\
             repex_exchange_attempts_total{campaign=\"b\",dim=\"0\",kind=\"T\"} 4\n"
        ));
    }

    #[test]
    fn merge_is_deterministic_and_order_preserving() {
        let snaps = [snap("a", 1), snap("b", 2)];
        let text = prometheus_text(&snaps);
        assert_eq!(text, prometheus_text(&snaps), "deterministic");
        let at = |needle: &str| text.find(needle).unwrap();
        assert!(at("# HELP repex_snapshot_seq") < at("# HELP repex_completed_units"));
        assert!(
            at("repex_snapshot_seq{campaign=\"a\"}") < at("repex_snapshot_seq{campaign=\"b\"}")
        );
        let swapped = prometheus_text(&[snap("b", 2), snap("a", 1)]);
        assert!(
            swapped.find("{campaign=\"b\"}").unwrap() < swapped.find("{campaign=\"a\"}").unwrap()
        );
    }

    #[test]
    fn service_gauges_render_with_and_without_labels() {
        let mut out = String::new();
        let one = [(String::new(), "4".to_string())];
        prometheus_gauge(&mut out, "repex_svc_queue_depth", "queued jobs", one);
        let states = ["done", "queued"].map(|s| (prometheus_labels(&[("state", s)]), "2".into()));
        // The name goes through the shared sanitizer.
        prometheus_gauge(&mut out, "repex.svc-jobs", "jobs by state", states);
        prometheus_gauge(&mut out, "repex_none", "no samples", std::iter::empty());
        assert_eq!(
            out,
            "# HELP repex_svc_queue_depth queued jobs\n# TYPE repex_svc_queue_depth gauge\n\
             repex_svc_queue_depth 4\n# HELP repex_svc_jobs jobs by state\n\
             # TYPE repex_svc_jobs gauge\nrepex_svc_jobs{state=\"done\"} 2\n\
             repex_svc_jobs{state=\"queued\"} 2\n"
        );
        assert_valid_exposition(&out);
    }
}
