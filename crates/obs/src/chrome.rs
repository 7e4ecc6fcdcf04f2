//! Chrome Trace Event Format: the export and its reader.
//!
//! The output loads in `chrome://tracing` or <https://ui.perfetto.dev>:
//! process 0 ("replicas") has one row (tid) per replica showing its MD
//! segments; process 1 ("framework") shows exchange/data/overhead windows
//! per dimension plus instant marks for relaunches and cache rebuilds.
//! Timestamps are microseconds, converted from sim-clock seconds.
//! [`parse_chrome_trace`] reads such a file back into the event stream, so
//! the categories and `args` keys are known to this module alone.

use crate::event::{Event, OverheadScope};
use crate::json::{self, escape, num, Value};

const PID_REPLICAS: u32 = 0;
const PID_FRAMEWORK: u32 = 1;
/// Framework rows that must not collide with per-dimension tids.
const TID_MD_PHASE: u32 = 50;
const TID_REPEX_OVER: u32 = 100;
const TID_RP_OVER: u32 = 101;
const TID_RELAUNCH: u32 = 102;
const TID_CACHE: u32 = 103;

fn us(seconds: f64) -> String {
    num(seconds * 1e6)
}

/// A `ph:"X"` complete event.
#[allow(clippy::too_many_arguments)]
fn complete(
    pid: u32,
    tid: u32,
    cat: &str,
    name: &str,
    start: f64,
    end: f64,
    args: &[(&str, String)],
) -> String {
    let args_json: Vec<String> =
        args.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
    format!(
        "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\"name\":\"{}\",\"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
        escape(name),
        us(start),
        us(end - start),
        args_json.join(",")
    )
}

/// A `ph:"i"` instant event (global scope).
fn instant(pid: u32, tid: u32, cat: &str, name: &str, at: f64, args: &[(&str, String)]) -> String {
    let args_json: Vec<String> =
        args.iter().map(|(k, v)| format!("\"{}\":{}", escape(k), v)).collect();
    format!(
        "{{\"ph\":\"i\",\"s\":\"g\",\"pid\":{pid},\"tid\":{tid},\"cat\":\"{cat}\",\"name\":\"{}\",\"ts\":{},\"args\":{{{}}}}}",
        escape(name),
        us(at),
        args_json.join(",")
    )
}

fn process_name(pid: u32, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    )
}

/// `thread_name` + `thread_sort_index` metadata so viewers label rows and
/// sort them numerically (tid 10 below tid 9, not lexically after tid 1).
fn thread_meta(pid: u32, tid: u32, name: &str, sort_index: u32) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}},\n\
         {{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_sort_index\",\"args\":{{\"sort_index\":{sort_index}}}}}",
        escape(name)
    )
}

/// Render the full event stream as one Chrome-trace JSON document.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut parts: Vec<String> = Vec::with_capacity(events.len() + 2);
    parts.push(process_name(PID_REPLICAS, "replicas"));
    parts.push(process_name(PID_FRAMEWORK, "framework"));
    // Row metadata: name + numeric sort index per tid actually in use.
    let mut replicas: std::collections::BTreeSet<usize> = Default::default();
    let mut dims: std::collections::BTreeSet<usize> = Default::default();
    let mut fixed: std::collections::BTreeSet<u32> = Default::default();
    for event in events {
        match event {
            Event::MdSegment { replica, .. } => {
                replicas.insert(*replica);
            }
            Event::ExchangeWindow { dim, .. }
            | Event::DataStage { dim, .. }
            | Event::ExchangeOutcome { dim, .. } => {
                dims.insert(*dim);
            }
            Event::MdPhase { .. } => {
                fixed.insert(TID_MD_PHASE);
            }
            Event::Overhead { scope, .. } => {
                fixed.insert(match scope {
                    OverheadScope::Repex => TID_REPEX_OVER,
                    OverheadScope::Rp => TID_RP_OVER,
                });
            }
            Event::TaskRelaunch { .. } => {
                fixed.insert(TID_RELAUNCH);
            }
            Event::CacheRebuild { .. } => {
                fixed.insert(TID_CACHE);
            }
        }
    }
    for r in &replicas {
        parts.push(thread_meta(PID_REPLICAS, *r as u32, &format!("replica {r}"), *r as u32));
    }
    for d in &dims {
        parts.push(thread_meta(PID_FRAMEWORK, *d as u32, &format!("dim {d}"), *d as u32));
    }
    for tid in &fixed {
        let name = match *tid {
            TID_MD_PHASE => "md-phase",
            TID_REPEX_OVER => "repex-overhead",
            TID_RP_OVER => "rp-overhead",
            TID_RELAUNCH => "relaunches",
            _ => "neighbor-cache",
        };
        parts.push(thread_meta(PID_FRAMEWORK, *tid, name, *tid));
    }
    for event in events {
        match event {
            Event::MdSegment { replica, slot, cycle, dim, attempt, cores, start, end, ok } => {
                parts.push(complete(
                    PID_REPLICAS,
                    *replica as u32,
                    "md",
                    &format!("MD r{replica} c{cycle}"),
                    *start,
                    *end,
                    &[
                        ("replica", replica.to_string()),
                        ("slot", slot.to_string()),
                        ("cycle", cycle.to_string()),
                        ("dim", dim.to_string()),
                        ("attempt", attempt.to_string()),
                        ("cores", cores.to_string()),
                        ("ok", ok.to_string()),
                    ],
                ));
            }
            Event::MdPhase { cycle, dim, start, end } => {
                parts.push(complete(
                    PID_FRAMEWORK,
                    TID_MD_PHASE,
                    "phase",
                    &format!("MD_PHASE c{cycle} d{dim}"),
                    *start,
                    *end,
                    &[("cycle", cycle.to_string()), ("dim", dim.to_string())],
                ));
            }
            Event::ExchangeWindow { kind, dim, cycle, participants, start, end } => {
                parts.push(complete(
                    PID_FRAMEWORK,
                    *dim as u32,
                    "exchange",
                    &format!("EX {kind} c{cycle}"),
                    *start,
                    *end,
                    &[
                        ("kind", format!("\"{}\"", escape(&kind.to_string()))),
                        ("cycle", cycle.to_string()),
                        ("participants", participants.to_string()),
                    ],
                ));
            }
            Event::DataStage { kind, dim, cycle, start, end } => {
                parts.push(complete(
                    PID_FRAMEWORK,
                    *dim as u32,
                    "data",
                    &format!("DATA {kind} c{cycle}"),
                    *start,
                    *end,
                    &[
                        ("kind", format!("\"{}\"", escape(&kind.to_string()))),
                        ("cycle", cycle.to_string()),
                        ("dim", dim.to_string()),
                    ],
                ));
            }
            Event::ExchangeOutcome { dim, cycle, slot_lo, slot_hi, accepted, at } => {
                parts.push(instant(
                    PID_FRAMEWORK,
                    *dim as u32,
                    "exchange_outcome",
                    &format!("EX_PAIR {slot_lo}-{slot_hi}"),
                    *at,
                    &[
                        ("dim", dim.to_string()),
                        ("cycle", cycle.to_string()),
                        ("slot_lo", slot_lo.to_string()),
                        ("slot_hi", slot_hi.to_string()),
                        ("accepted", accepted.to_string()),
                    ],
                ));
            }
            Event::Overhead { scope, cycle, start, end } => {
                let (tid, name) = match scope {
                    OverheadScope::Repex => (TID_REPEX_OVER, format!("REPEX_OVER c{cycle}")),
                    OverheadScope::Rp => (TID_RP_OVER, format!("RP_OVER c{cycle}")),
                };
                parts.push(complete(
                    PID_FRAMEWORK,
                    tid,
                    "overhead",
                    &name,
                    *start,
                    *end,
                    &[("cycle", cycle.to_string())],
                ));
            }
            Event::TaskRelaunch { name, slot, attempt, at } => {
                parts.push(instant(
                    PID_FRAMEWORK,
                    TID_RELAUNCH,
                    "fault",
                    &format!("RELAUNCH {name}"),
                    *at,
                    &[("slot", slot.to_string()), ("attempt", attempt.to_string())],
                ));
            }
            Event::CacheRebuild { cycle, rebuilds, at } => {
                parts.push(instant(
                    PID_FRAMEWORK,
                    TID_CACHE,
                    "cache",
                    "NEIGHBOR_REBUILD",
                    *at,
                    &[("cycle", cycle.to_string()), ("rebuilds", rebuilds.to_string())],
                ));
            }
        }
    }
    format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}", parts.join(",\n"))
}

fn secs(v: &Value, key: &str) -> f64 {
    v[key].as_f64().unwrap_or(0.0) / 1e6
}

fn arg_u(v: &Value, key: &str) -> usize {
    v["args"][key].as_u64().unwrap_or(0) as usize
}

fn kind_of(r: &Value) -> char {
    r["args"]["kind"].as_str().and_then(|s| s.chars().next()).unwrap_or('?')
}

/// Parse a [`chrome_trace_json`] document back into the event stream.
///
/// Unknown categories are skipped (forward compatibility); `ph:"M"`
/// metadata records carry no events.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<Event>, json::Error> {
    let doc = json::parse(text)?;
    let records = doc["traceEvents"].as_array().ok_or_else(|| {
        json::Error::shape("no traceEvents array (not a repex chrome trace?)").under("traceEvents")
    })?;
    let mut events = Vec::with_capacity(records.len());
    for r in records {
        let ph = r["ph"].as_str().unwrap_or("");
        let cat = r["cat"].as_str().unwrap_or("");
        let start = secs(r, "ts");
        let end = start + secs(r, "dur");
        match (ph, cat) {
            ("X", "md") => events.push(Event::MdSegment {
                replica: arg_u(r, "replica"),
                slot: arg_u(r, "slot"),
                cycle: arg_u(r, "cycle") as u64,
                dim: arg_u(r, "dim"),
                attempt: arg_u(r, "attempt") as u32,
                cores: arg_u(r, "cores"),
                start,
                end,
                ok: r["args"]["ok"].as_bool().unwrap_or(true),
            }),
            ("X", "phase") => events.push(Event::MdPhase {
                cycle: arg_u(r, "cycle") as u64,
                dim: arg_u(r, "dim"),
                start,
                end,
            }),
            ("X", "exchange") => events.push(Event::ExchangeWindow {
                kind: kind_of(r),
                dim: r["tid"].as_u64().unwrap_or(0) as usize,
                cycle: arg_u(r, "cycle") as u64,
                participants: arg_u(r, "participants"),
                start,
                end,
            }),
            ("X", "data") => events.push(Event::DataStage {
                kind: kind_of(r),
                dim: arg_u(r, "dim"),
                cycle: arg_u(r, "cycle") as u64,
                start,
                end,
            }),
            ("X", "overhead") => {
                let name = r["name"].as_str().unwrap_or("");
                let scope = if name.starts_with("RP_OVER") {
                    OverheadScope::Rp
                } else {
                    OverheadScope::Repex
                };
                events.push(Event::Overhead { scope, cycle: arg_u(r, "cycle") as u64, start, end });
            }
            ("i", "exchange_outcome") => events.push(Event::ExchangeOutcome {
                dim: arg_u(r, "dim"),
                cycle: arg_u(r, "cycle") as u64,
                slot_lo: arg_u(r, "slot_lo"),
                slot_hi: arg_u(r, "slot_hi"),
                accepted: r["args"]["accepted"].as_bool().unwrap_or(false),
                at: start,
            }),
            ("i", "fault") => {
                let name = r["name"].as_str().unwrap_or("");
                events.push(Event::TaskRelaunch {
                    name: name.strip_prefix("RELAUNCH ").unwrap_or(name).to_string(),
                    slot: arg_u(r, "slot"),
                    attempt: arg_u(r, "attempt") as u32,
                    at: start,
                });
            }
            ("i", "cache") => events.push(Event::CacheRebuild {
                cycle: arg_u(r, "cycle") as u64,
                rebuilds: arg_u(r, "rebuilds") as u64,
                at: start,
            }),
            _ => {}
        }
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_metadata_and_events() {
        let events = vec![
            Event::MdSegment {
                replica: 2,
                slot: 2,
                cycle: 0,
                dim: 0,
                attempt: 0,
                cores: 1,
                start: 1.0,
                end: 2.5,
                ok: true,
            },
            Event::TaskRelaunch { name: "md-x\"y".into(), slot: 1, attempt: 1, at: 3.0 },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("process_name"));
        assert!(json.contains("\"ts\":1000000.000"), "{json}");
        assert!(json.contains("\"dur\":1500000.000"), "{json}");
        // Escaped quote from the unit name survives as valid JSON.
        assert!(json.contains("md-x\\\"y"));
        // Crude balance check on the document shape.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_stream_is_still_valid_shape() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("traceEvents"));
        assert_eq!(json.matches("process_name").count(), 2);
        assert!(!json.contains("thread_name"), "no rows, no row metadata");
    }

    #[test]
    fn thread_metadata_labels_and_sorts_used_rows() {
        let events = vec![
            Event::MdSegment {
                replica: 10,
                slot: 10,
                cycle: 0,
                dim: 0,
                attempt: 0,
                cores: 1,
                start: 0.0,
                end: 1.0,
                ok: true,
            },
            Event::MdPhase { cycle: 0, dim: 0, start: 0.0, end: 1.0 },
        ];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"name\":\"replica 10\""), "{json}");
        assert!(json.contains("\"sort_index\":10"), "{json}");
        assert!(json.contains("\"name\":\"md-phase\""));
        // Only rows in use get metadata.
        assert!(!json.contains("relaunches"));
        assert_eq!(
            json.matches("thread_sort_index").count(),
            2,
            "one replica row + the md-phase row"
        );
    }

    #[test]
    fn exchange_outcomes_export_as_instants_with_args() {
        let events = vec![Event::ExchangeOutcome {
            dim: 1,
            cycle: 4,
            slot_lo: 2,
            slot_hi: 3,
            accepted: true,
            at: 9.0,
        }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"cat\":\"exchange_outcome\""), "{json}");
        assert!(json.contains("\"slot_lo\":2"));
        assert!(json.contains("\"slot_hi\":3"));
        assert!(json.contains("\"accepted\":true"));
        assert!(json.contains("\"dim\":1"));
    }

    #[test]
    fn data_stage_args_carry_kind_and_dim() {
        let events = vec![Event::DataStage { kind: 'T', dim: 2, cycle: 1, start: 0.0, end: 0.5 }];
        let json = chrome_trace_json(&events);
        assert!(json.contains("\"kind\":\"T\""), "{json}");
        assert!(json.contains("\"dim\":2"), "{json}");
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        // Timestamps are multiples of 1/2^k seconds, exact at the trace's
        // 1e-9 s precision, so the round trip reproduces every event.
        let mut events = Vec::new();
        for (cycle, t0) in [(0u64, 0.0), (1, 12.0)] {
            let md = |replica: usize, end: f64, ok: bool| Event::MdSegment {
                replica,
                slot: replica,
                cycle,
                dim: 0,
                attempt: replica as u32,
                cores: 2,
                start: t0 + 0.5,
                end: t0 + end,
                ok,
            };
            events.extend([
                Event::Overhead { scope: OverheadScope::Repex, cycle, start: t0, end: t0 + 0.5 },
                md(0, 8.0, true),
                md(1, 10.5, false),
                Event::MdPhase { cycle, dim: 0, start: t0 + 0.5, end: t0 + 10.5 },
                Event::DataStage { kind: 'T', dim: 0, cycle, start: t0 + 10.5, end: t0 + 11.0 },
                Event::ExchangeOutcome {
                    dim: 0,
                    cycle,
                    slot_lo: 0,
                    slot_hi: 1,
                    accepted: cycle == 0,
                    at: t0 + 12.0,
                },
                Event::ExchangeWindow {
                    kind: 'T',
                    dim: 0,
                    cycle,
                    participants: 2,
                    start: t0 + 11.0,
                    end: t0 + 12.0,
                },
                Event::Overhead {
                    scope: OverheadScope::Rp,
                    cycle,
                    start: t0 + 12.0,
                    end: t0 + 12.5,
                },
                Event::TaskRelaunch { name: "md-x".into(), slot: 1, attempt: 1, at: t0 + 1.0 },
                Event::CacheRebuild { cycle, rebuilds: 3, at: t0 + 2.0 },
            ]);
        }
        let parsed = parse_chrome_trace(&chrome_trace_json(&events)).unwrap();
        let sorted = |events: &[Event]| {
            let mut keys: Vec<String> = events.iter().map(|e| format!("{e:?}")).collect();
            keys.sort();
            keys
        };
        assert_eq!(sorted(&parsed), sorted(&events));
    }

    #[test]
    fn malformed_trace_is_a_clean_error() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"displayTimeUnit\":\"ms\"}").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[]}").unwrap().is_empty());
    }
}
