//! The Eq. 1 cycle decomposition: its one record type, its fold over the
//! event stream, and its wire form.

use crate::event::{Event, OverheadScope};
use crate::json::{Decode, Encode, Error, Value, Variant};
use std::collections::BTreeMap;

/// Per-cycle Eq. 1 decomposition derived purely from trace events:
/// `Tc = T_MD + T_EX + T_data + T_RepEx_over + T_RP_over`.
///
/// `t_ex` keeps one entry per exchange window in event order, so multi-dim
/// layouts (e.g. T-U-U) preserve their per-dimension attribution exactly as
/// the driver emitted it.
/// It is also the report's, the plan's and the checkpoint's record: on the
/// wire the five terms, `t_ex` naming each kind (`[["Temperature", 10.0]]`);
/// `cycle` is not written, and decodes as 0.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleBreakdown {
    pub cycle: u64,
    pub t_md: f64,
    pub t_ex: Vec<(char, f64)>,
    pub t_data: f64,
    pub t_repex_over: f64,
    pub t_rp_over: f64,
}

impl CycleBreakdown {
    /// Exchange time summed over all dimensions.
    pub fn t_ex_total(&self) -> f64 {
        self.t_ex.iter().map(|(_, t)| t).sum()
    }

    /// Total cycle time `Tc`.
    pub fn total(&self) -> f64 {
        self.t_md + self.t_ex_total() + self.t_data + self.t_repex_over + self.t_rp_over
    }

    /// The one fold of Eq. 1: add `event`'s interval to its term in the
    /// breakdown of its cycle, which `of_cycle` looks up or creates. Events
    /// that carry no Eq. 1 time never call `of_cycle`.
    pub fn absorb<'a>(event: &Event, of_cycle: impl FnOnce(u64) -> &'a mut CycleBreakdown) {
        match *event {
            Event::MdPhase { cycle, start, end, .. } => of_cycle(cycle).t_md += end - start,
            Event::ExchangeWindow { kind, cycle, start, end, .. } => {
                of_cycle(cycle).t_ex.push((kind, end - start));
            }
            Event::DataStage { cycle, start, end, .. } => of_cycle(cycle).t_data += end - start,
            Event::Overhead { scope, cycle, start, end } => match scope {
                OverheadScope::Repex => of_cycle(cycle).t_repex_over += end - start,
                OverheadScope::Rp => of_cycle(cycle).t_rp_over += end - start,
            },
            // MdSegment feeds utilization, not the phase decomposition: the
            // phase window already covers its segments (plus barrier idle).
            // ExchangeOutcome is a point event inside its window.
            Event::MdSegment { .. }
            | Event::TaskRelaunch { .. }
            | Event::CacheRebuild { .. }
            | Event::ExchangeOutcome { .. } => {}
        }
    }
}

/// `hpc`'s exchange kinds: the letter an event carries, the name `t_ex`
/// gives it on the wire.
const KINDS: [(char, &str); 4] =
    [('T', "Temperature"), ('U', "Umbrella"), ('S', "Salt"), ('P', "Ph")];

/// A `t_ex` entry's kind on the wire: its name (a letter that names no kind
/// is written as itself, and does not decode).
struct Kind(char);

impl Encode for Kind {
    fn encode(&self) -> Value {
        KINDS.iter().find(|k| k.0 == self.0).map_or_else(|| self.0.encode(), |k| k.1.encode())
    }
}

impl Decode for Kind {
    fn decode(v: &Value) -> Result<Self, Error> {
        let variant = Variant::of(v, None)?;
        let kind = KINDS.iter().find(|k| k.1 == variant.name);
        kind.map(|k| Kind(k.0)).ok_or_else(|| variant.unknown(&KINDS.map(|k| k.1)))
    }
}

impl Encode for CycleBreakdown {
    fn encode(&self) -> Value {
        let t_ex: Vec<_> = self.t_ex.iter().map(|&(k, t)| (Kind(k), t)).collect();
        crate::obj! {
            "t_md" => self.t_md, "t_ex" => t_ex, "t_data" => self.t_data,
            "t_repex_over" => self.t_repex_over, "t_rp_over" => self.t_rp_over,
        }
    }
}

impl Decode for CycleBreakdown {
    fn decode(v: &Value) -> Result<Self, Error> {
        let t_ex: Vec<(Kind, f64)> = v.field("t_ex", None)?;
        Ok(CycleBreakdown {
            cycle: 0,
            t_md: v.field("t_md", None)?,
            t_ex: t_ex.into_iter().map(|(k, t)| (k.0, t)).collect(),
            t_data: v.field("t_data", None)?,
            t_repex_over: v.field("t_repex_over", None)?,
            t_rp_over: v.field("t_rp_over", None)?,
        })
    }
}

/// Group interval events by cycle and sum them into Eq. 1 buckets.
///
/// Returns one breakdown per cycle id in ascending cycle order. Durations
/// are accumulated in event order, so a driver that emits its probes in the
/// same order it used to accumulate legacy timings reproduces them bit for
/// bit.
pub fn cycle_breakdowns(events: &[Event]) -> Vec<CycleBreakdown> {
    let mut per_cycle: BTreeMap<u64, CycleBreakdown> = BTreeMap::new();
    for event in events {
        CycleBreakdown::absorb(event, |cycle| {
            per_cycle.entry(cycle).or_insert_with(|| CycleBreakdown { cycle, ..Default::default() })
        });
    }
    per_cycle.into_values().collect()
}

/// Busy core-seconds of successful MD work: `sum((end-start) * cores)` over
/// ok segments. Numerator of the Eq. 4 utilization.
pub fn md_busy_core_seconds(events: &[Event]) -> f64 {
    events
        .iter()
        .map(|e| match e {
            Event::MdSegment { cores, start, end, ok: true, .. } => (end - start) * *cores as f64,
            _ => 0.0,
        })
        .sum()
}

/// Per-replica MD spans `(start, end)` sorted by start time — the rows of a
/// per-replica timeline plot.
pub fn replica_spans(events: &[Event]) -> BTreeMap<usize, Vec<(f64, f64)>> {
    let mut rows: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    for event in events {
        if let Event::MdSegment { replica, start, end, .. } = event {
            rows.entry(*replica).or_default().push((*start, *end));
        }
    }
    for spans in rows.values_mut() {
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    rows
}

/// Average breakdowns (the paper reports "average of 4 simulation
/// cycles"): scalar fields are plain means; `t_ex` averages positionally
/// when every cycle shares one dimension layout (T-U-U keeps its two U
/// terms apart), and by exchange-kind letter otherwise (heterogeneous async
/// cycles), each kind averaged over the cycles where it appears. No cycles
/// average to the zero breakdown.
pub fn average_breakdown(cycles: &[CycleBreakdown]) -> CycleBreakdown {
    let Some(first) = cycles.first() else { return CycleBreakdown::default() };
    let n = cycles.len() as f64;
    let mut avg = CycleBreakdown {
        cycle: 0,
        t_md: cycles.iter().map(|c| c.t_md).sum::<f64>() / n,
        t_ex: Vec::new(),
        t_data: cycles.iter().map(|c| c.t_data).sum::<f64>() / n,
        t_repex_over: cycles.iter().map(|c| c.t_repex_over).sum::<f64>() / n,
        t_rp_over: cycles.iter().map(|c| c.t_rp_over).sum::<f64>() / n,
    };
    let homogeneous = cycles.iter().all(|c| {
        c.t_ex.len() == first.t_ex.len() && c.t_ex.iter().zip(&first.t_ex).all(|(a, b)| a.0 == b.0)
    });
    if homogeneous {
        for d in 0..first.t_ex.len() {
            let mean = cycles.iter().map(|c| c.t_ex[d].1).sum::<f64>() / n;
            avg.t_ex.push((first.t_ex[d].0, mean));
        }
    } else {
        let mut kinds = Vec::new();
        for &(k, _) in cycles.iter().flat_map(|c| &c.t_ex) {
            if !kinds.contains(&k) {
                kinds.push(k);
            }
        }
        for kind in kinds {
            let entries = cycles.iter().flat_map(|c| &c.t_ex).filter(|e| e.0 == kind);
            let sum: f64 = entries.map(|e| e.1).sum();
            let occurrences = cycles.iter().filter(|c| c.t_ex.iter().any(|e| e.0 == kind)).count();
            avg.t_ex.push((kind, sum / occurrences as f64));
        }
    }
    avg
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(replica: usize, cycle: u64, start: f64, end: f64, cores: usize, ok: bool) -> Event {
        Event::MdSegment {
            replica,
            slot: replica,
            cycle,
            dim: 0,
            attempt: 0,
            cores,
            start,
            end,
            ok,
        }
    }

    #[test]
    fn breakdown_sums_each_bucket() {
        let events = vec![
            Event::Overhead { scope: OverheadScope::Repex, cycle: 0, start: 0.0, end: 0.4 },
            Event::Overhead { scope: OverheadScope::Rp, cycle: 0, start: 0.4, end: 1.0 },
            Event::MdPhase { cycle: 0, dim: 0, start: 1.0, end: 11.0 },
            Event::DataStage { kind: 'T', dim: 0, cycle: 0, start: 11.0, end: 11.5 },
            Event::ExchangeWindow {
                kind: 'T',
                dim: 0,
                cycle: 0,
                participants: 4,
                start: 11.5,
                end: 12.5,
            },
            Event::MdPhase { cycle: 1, dim: 0, start: 12.5, end: 20.5 },
        ];
        let cycles = cycle_breakdowns(&events);
        assert_eq!(cycles.len(), 2);
        let c0 = &cycles[0];
        assert_eq!(c0.cycle, 0);
        assert!((c0.t_md - 10.0).abs() < 1e-12);
        assert!((c0.t_repex_over - 0.4).abs() < 1e-12);
        assert!((c0.t_rp_over - 0.6).abs() < 1e-12);
        assert!((c0.t_data - 0.5).abs() < 1e-12);
        assert_eq!(c0.t_ex, vec![('T', 1.0)]);
        assert!((c0.total() - 12.5).abs() < 1e-12);
        assert_eq!(cycles[1].cycle, 1);
        assert!((cycles[1].t_md - 8.0).abs() < 1e-12);
    }

    #[test]
    fn multidim_exchange_order_is_preserved() {
        let mk = |kind, start: f64| Event::ExchangeWindow {
            kind,
            dim: 0,
            cycle: 0,
            participants: 2,
            start,
            end: start + 1.0,
        };
        let cycles = cycle_breakdowns(&[mk('T', 0.0), mk('U', 1.0), mk('U', 2.0)]);
        let letters: Vec<char> = cycles[0].t_ex.iter().map(|(k, _)| *k).collect();
        assert_eq!(letters, vec!['T', 'U', 'U'], "duplicate kinds keep their slots");
    }

    #[test]
    fn busy_core_seconds_skips_failures() {
        let events = vec![seg(0, 0, 0.0, 10.0, 2, true), seg(1, 0, 0.0, 5.0, 2, false)];
        assert!((md_busy_core_seconds(&events) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn the_wire_form_names_each_kind_and_round_trips() {
        let b = CycleBreakdown {
            cycle: 0,
            t_md: 139.6,
            t_ex: vec![('T', 10.0), ('S', 0.1 + 0.2), ('U', 1e-300), ('P', 0.5)],
            t_data: 2.0,
            t_repex_over: 1.0,
            t_rp_over: 3.0,
        };
        let text = b.encode().compact();
        assert!(text.contains(r#""t_ex":[["Temperature",10.0],["Salt","#), "{text}");
        assert!(text.starts_with(r#"{"t_md":139.6,"t_ex":"#) && !text.contains("cycle"), "{text}");
        assert_eq!(crate::json::from_str::<CycleBreakdown>(&text), Ok(b));
        let e = crate::json::from_str::<CycleBreakdown>(&text.replace("Salt", "Pressure"));
        let e = e.unwrap_err();
        assert_eq!(e.pointer, "/t_ex/1/0");
        assert_eq!(
            e.message,
            "unknown variant `Pressure`, expected one of: Temperature, Umbrella, Salt, Ph"
        );
    }

    #[test]
    fn replica_spans_sorted_per_row() {
        let events = vec![seg(1, 1, 20.0, 30.0, 1, true), seg(1, 0, 0.0, 10.0, 1, true)];
        let rows = replica_spans(&events);
        assert_eq!(rows[&1], vec![(0.0, 10.0), (20.0, 30.0)]);
    }

    #[test]
    fn average_of_empty_is_default() {
        assert_eq!(average_breakdown(&[]), CycleBreakdown::default());
    }

    #[test]
    fn average_homogeneous_is_positional() {
        let c = |a: f64, b: f64| CycleBreakdown {
            t_ex: vec![('T', a), ('U', b), ('U', b + 1.0)],
            ..Default::default()
        };
        let avg = average_breakdown(&[c(1.0, 2.0), c(3.0, 4.0)]);
        assert_eq!(avg.t_ex.len(), 3);
        assert_eq!(avg.t_ex[0], ('T', 2.0));
        assert_eq!(avg.t_ex[1], ('U', 3.0));
        assert_eq!(avg.t_ex[2], ('U', 4.0));
    }

    #[test]
    fn average_heterogeneous_keys_by_kind() {
        let a = CycleBreakdown { t_ex: vec![('T', 10.0)], ..Default::default() };
        let b = CycleBreakdown { t_ex: vec![('T', 20.0), ('S', 5.0)], ..Default::default() };
        let avg = average_breakdown(&[a, b]);
        assert_eq!(avg.t_ex, vec![('T', 15.0), ('S', 5.0)]);
    }
}
