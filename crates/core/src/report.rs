//! Simulation results: per-cycle timings plus aggregate diagnostics.

use crate::emm::WindowSamples;
use exchange::stats::AcceptanceStats;
use obs::json::{Decode, Encode, Error, Value};
use obs::{obj, CycleBreakdown};

/// One cycle's record: `{"cycle", "timing"}` on the wire, the timing in
/// [`CycleBreakdown`]'s form. Its `timing.cycle` is `cycle`, decoded too.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleReport {
    pub cycle: u64,
    pub timing: CycleBreakdown,
}

impl Encode for CycleReport {
    fn encode(&self) -> Value {
        obj! { "cycle" => self.cycle, "timing" => self.timing }
    }
}

impl Decode for CycleReport {
    fn decode(v: &Value) -> Result<Self, Error> {
        let cycle = v.field("cycle", None)?;
        Ok(CycleReport { cycle, timing: CycleBreakdown { cycle, ..v.field("timing", None)? } })
    }
}

/// Everything a finished simulation reports.
pub struct SimulationReport {
    pub title: String,
    /// "sync" or "async".
    pub pattern: &'static str,
    /// Execution Mode (1 or 2).
    pub execution_mode: u8,
    pub n_replicas: usize,
    pub pilot_cores: usize,
    pub cycles: Vec<CycleReport>,
    /// Total wall time from pilot activation to last completion (seconds).
    pub makespan: f64,
    /// MD busy core-seconds / (cores × makespan) × 100 — Eq. 4's
    /// utilization relative to the MD-only ideal.
    pub utilization_percent: f64,
    /// Acceptance statistics per dimension, with the dimension letter.
    pub acceptance: Vec<(char, AcceptanceStats)>,
    /// Total ladder round trips (1-D simulations; 0 otherwise).
    pub round_trips: u64,
    /// Per-replica rung trajectory per cycle (1-D synchronous runs; empty
    /// otherwise). `rung_history[replica][cycle]`.
    pub rung_history: Vec<Vec<usize>>,
    /// Per-neighbour-pair acceptance (1-D runs; entry i covers slots
    /// (i, i+1)). Feeds `exchange::ladder_opt`.
    pub pair_acceptance: Vec<AcceptanceStats>,
    /// Per-window samples for free-energy analysis (empty unless sampling
    /// was enabled).
    pub window_samples: Vec<WindowSamples>,
    pub failed_tasks: u64,
    pub relaunched_tasks: u64,
}

impl SimulationReport {
    /// Average cycle timing (the paper averages 4 cycles), by
    /// [`obs::average_breakdown`]: all zero with no cycles (asynchronous
    /// runs report none), per exchange kind over heterogeneous ones.
    pub fn average_timing(&self) -> CycleBreakdown {
        obs::average_breakdown(&self.cycles.iter().map(|c| c.timing.clone()).collect::<Vec<_>>())
    }

    /// Average total cycle time `Tc`.
    pub fn average_tc(&self) -> f64 {
        self.average_timing().total()
    }

    /// The canonical machine-readable report document — the body of
    /// `repex run --json` and of the campaign service's
    /// `GET /campaigns/:id/results`. One shared encoder, so a campaign run
    /// through the service can be compared bit-for-bit against the same
    /// config run standalone.
    pub fn to_json_doc(&self) -> Value {
        let acceptance = self.acceptance.iter().map(|(letter, a)| {
            obj! {
                "dimension" => letter.to_string(),
                "attempts" => a.attempts,
                "accepted" => a.accepted,
                "ratio" => a.ratio(),
            }
        });
        obj! {
            "title" => self.title,
            "pattern" => self.pattern,
            "execution_mode" => self.execution_mode,
            "n_replicas" => self.n_replicas,
            "pilot_cores" => self.pilot_cores,
            "makespan_s" => self.makespan,
            "utilization_percent" => self.utilization_percent,
            "failed_tasks" => self.failed_tasks,
            "relaunched_tasks" => self.relaunched_tasks,
            "round_trips" => self.round_trips,
            "cycles" => self.cycles,
            "acceptance" => acceptance.collect::<Vec<_>>(),
        }
    }

    /// One-line human summary. A run without cycles (the asynchronous
    /// pattern) measured no Eq. 1 terms: it reports its makespan instead.
    pub fn summary(&self) -> String {
        let time = if self.cycles.is_empty() {
            format!("makespan={:.1}s", self.makespan)
        } else {
            let avg = self.average_timing();
            format!(
                "Tc={:.1}s (MD {:.1}s, EX {:.1}s, data {:.1}s, RepEx {:.1}s, RP {:.1}s)",
                avg.total(),
                avg.t_md,
                avg.t_ex_total(),
                avg.t_data,
                avg.t_repex_over,
                avg.t_rp_over,
            )
        };
        format!(
            "{} | pattern={} mode={} replicas={} cores={} | {time} | util={:.1}% | failures={} relaunched={}",
            self.title,
            self.pattern,
            self.execution_mode,
            self.n_replicas,
            self.pilot_cores,
            self.utilization_percent,
            self.failed_tasks,
            self.relaunched_tasks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimulationReport {
        let timing = CycleBreakdown {
            cycle: 0,
            t_md: 139.6,
            t_ex: vec![('T', 10.0)],
            t_data: 2.0,
            t_repex_over: 1.0,
            t_rp_over: 3.0,
        };
        SimulationReport {
            title: "test".into(),
            pattern: "sync",
            execution_mode: 1,
            n_replicas: 8,
            pilot_cores: 8,
            cycles: vec![
                CycleReport { cycle: 0, timing: timing.clone() },
                CycleReport { cycle: 1, timing: CycleBreakdown { cycle: 1, ..timing } },
            ],
            makespan: 320.0,
            utilization_percent: 85.0,
            acceptance: vec![('T', AcceptanceStats { attempts: 10, accepted: 4 })],
            round_trips: 2,
            rung_history: vec![],
            pair_acceptance: vec![],
            window_samples: vec![],
            failed_tasks: 0,
            relaunched_tasks: 0,
        }
    }

    #[test]
    fn averaging_and_summary() {
        let r = report();
        assert!((r.average_tc() - 155.6).abs() < 1e-9);
        let s = r.summary();
        assert!(s.contains("MD 139.6s"));
        assert!(s.contains("util=85.0%"));
    }

    #[test]
    fn empty_cycle_list_summarizes_without_panicking() {
        // Asynchronous runs report no per-cycle records; the summary and
        // averages must degrade to zeros instead of panicking.
        let mut r = report();
        r.cycles.clear();
        r.pattern = "async";
        assert_eq!(r.average_tc(), 0.0);
        let summary = r.summary();
        assert!(summary.contains("pattern=async"), "{summary}");
        // No cycle measured an Eq. 1 term: none is printed, and no sum of
        // an empty list shows up as -0.0.
        assert!(summary.contains("makespan=320.0s"), "{summary}");
        assert!(!summary.contains("Tc=") && !summary.contains("-0.0"), "{summary}");
    }
}
