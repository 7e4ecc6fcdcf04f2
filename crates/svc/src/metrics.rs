//! Merging per-campaign Prometheus text into one `/metrics` exposition.
//!
//! Every running campaign writes its own `metrics.prom` through the
//! `obs::live` exporter, each sample already carrying a unique (validated,
//! admission-deduplicated) `campaign` label. Concatenating the files
//! verbatim would repeat `# HELP`/`# TYPE` headers per campaign, which the
//! Prometheus text format forbids — so the merger groups samples by metric
//! name under one header block, first-seen header text winning, and keeps
//! file order deterministic (metric names in first-appearance order,
//! samples in input order).

use std::collections::HashMap;

#[derive(Default)]
struct MetricBlock {
    help: Option<String>,
    typ: Option<String>,
    samples: Vec<String>,
}

/// Extract the metric name from a sample line (`name{labels} value` or
/// `name value`).
fn sample_name(line: &str) -> &str {
    let end = line.find(['{', ' ']).unwrap_or(line.len());
    &line[..end]
}

/// Merge several Prometheus text expositions into one: a single
/// `# HELP`/`# TYPE` block per metric name, all samples preserved. The
/// inputs' `campaign` labels keep the merged series disjoint — the merger
/// itself never rewrites a sample line.
pub fn merge_prometheus(parts: &[String]) -> String {
    let mut order: Vec<String> = Vec::new();
    let mut blocks: HashMap<String, MetricBlock> = HashMap::new();
    for text in parts {
        for line in text.lines() {
            if line.is_empty() {
                continue;
            }
            let (name, kind) = if let Some(rest) = line.strip_prefix("# HELP ") {
                (sample_name(rest).to_string(), "help")
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                (sample_name(rest).to_string(), "type")
            } else if line.starts_with('#') {
                continue; // stray comment: not representable in the merge
            } else {
                (sample_name(line).to_string(), "sample")
            };
            if !blocks.contains_key(&name) {
                order.push(name.clone());
            }
            let block = blocks.entry(name).or_default();
            match kind {
                "help" if block.help.is_none() => block.help = Some(line.to_string()),
                "type" if block.typ.is_none() => block.typ = Some(line.to_string()),
                "sample" => block.samples.push(line.to_string()),
                _ => {}
            }
        }
    }
    let mut out = String::new();
    for name in order {
        let Some(block) = blocks.get(&name) else { continue };
        if let Some(help) = &block.help {
            out.push_str(help);
            out.push('\n');
        }
        if let Some(typ) = &block.typ {
            out.push_str(typ);
            out.push('\n');
        }
        for sample in &block.samples {
            out.push_str(sample);
            out.push('\n');
        }
    }
    out
}

/// Render one service-level gauge block (name sanitized through the same
/// `obs` alphabet as campaign metrics, labels escaped through the shared
/// [`obs::campaign_label`] sanitizer).
pub fn service_gauge(
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    value: impl std::fmt::Display,
) -> String {
    let name = obs::sanitize_metric_name(name);
    let label_text = if labels.is_empty() {
        String::new()
    } else {
        let inner: Vec<String> =
            labels.iter().map(|(k, v)| format!("{k}=\"{}\"", obs::campaign_label(v))).collect();
        format!("{{{}}}", inner.join(","))
    };
    format!("# HELP {name} {help}\n# TYPE {name} gauge\n{name}{label_text} {value}\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prom(campaign: &str, completed: u64) -> String {
        format!(
            "# HELP repex_snapshot_seq monotonic telemetry snapshot counter\n\
             # TYPE repex_snapshot_seq gauge\n\
             repex_snapshot_seq{{campaign=\"{campaign}\"}} 3\n\
             # HELP repex_completed_units work units completed (cycles or segments)\n\
             # TYPE repex_completed_units gauge\n\
             repex_completed_units{{campaign=\"{campaign}\"}} {completed}\n"
        )
    }

    #[test]
    fn merge_emits_one_header_block_per_metric() {
        let merged = merge_prometheus(&[prom("a", 1), prom("b", 2)]);
        assert_eq!(merged.matches("# TYPE repex_completed_units gauge").count(), 1);
        assert_eq!(merged.matches("# HELP repex_completed_units").count(), 1);
        assert!(merged.contains("repex_completed_units{campaign=\"a\"} 1"));
        assert!(merged.contains("repex_completed_units{campaign=\"b\"} 2"));
        // Samples of one metric are grouped directly under its header.
        let type_pos = merged.find("# TYPE repex_completed_units").unwrap();
        let a_pos = merged.find("repex_completed_units{campaign=\"a\"}").unwrap();
        let next_help = merged[type_pos..].find("# HELP repex_snapshot_seq");
        assert!(a_pos > type_pos);
        assert!(next_help.is_none() || a_pos - type_pos < next_help.unwrap());
    }

    #[test]
    fn merged_series_stay_disjoint_per_campaign_label() {
        let merged = merge_prometheus(&[prom("a", 1), prom("b", 2)]);
        let mut seen = std::collections::HashSet::new();
        for line in merged.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
            let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
            assert!(seen.insert(series.to_string()), "duplicate series {series}");
        }
    }

    #[test]
    fn service_gauges_render_with_and_without_labels() {
        let plain = service_gauge("repex_svc_queue_depth", "queued jobs", &[], 4);
        assert!(plain.contains("repex_svc_queue_depth 4\n"), "{plain}");
        let labeled = service_gauge("repex_svc_jobs", "jobs by state", &[("state", "done")], 2);
        assert!(labeled.contains("repex_svc_jobs{state=\"done\"} 2\n"), "{labeled}");
        // Name goes through the shared sanitizer.
        let odd = service_gauge("repex.svc-odd", "x", &[], 1);
        assert!(odd.contains("repex_svc_odd 1"), "{odd}");
    }

    #[test]
    fn merge_is_deterministic_and_order_preserving() {
        let a = prom("a", 1);
        let b = prom("b", 2);
        let once = merge_prometheus(&[a.clone(), b.clone()]);
        let twice = merge_prometheus(&[a, b]);
        assert_eq!(once, twice);
        let seq_pos = once.find("# HELP repex_snapshot_seq").unwrap();
        let units_pos = once.find("# HELP repex_completed_units").unwrap();
        assert!(seq_pos < units_pos, "first-appearance order is kept");
    }
}
