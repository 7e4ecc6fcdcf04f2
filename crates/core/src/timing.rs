//! Cycle-time decomposition and efficiency metrics (Eqs. 1–4 of the paper).

use hpc::perfmodel::ExchangeKind;

/// Decomposition of one simulation cycle (Eq. 1):
/// `Tc = T_MD + T_EX + T_data + T_RepEx_over + T_RP_over`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CycleTiming {
    /// MD simulation wall time, summed over the cycle's dimension passes.
    pub t_md: f64,
    /// Exchange wall time per dimension, in dimension order.
    pub t_ex: Vec<(ExchangeKind, f64)>,
    /// Data-movement time.
    pub t_data: f64,
    /// RepEx framework overhead (task preparation, local method calls).
    pub t_repex_over: f64,
    /// Runtime-system overhead (task launching, internal communication).
    pub t_rp_over: f64,
}

obs::json_struct!(CycleTiming {
    t_md: "t_md",
    t_ex: "t_ex",
    t_data: "t_data",
    t_repex_over: "t_repex_over",
    t_rp_over: "t_rp_over",
});

impl CycleTiming {
    /// Total exchange time across dimensions.
    pub fn t_ex_total(&self) -> f64 {
        self.t_ex.iter().map(|(_, t)| t).sum()
    }

    /// The full cycle time `Tc` (Eq. 1).
    pub fn total(&self) -> f64 {
        self.t_md + self.t_ex_total() + self.t_data + self.t_repex_over + self.t_rp_over
    }
}

/// Weak-scaling parallel efficiency (Eq. 2): `Ew = T1 / TN × 100%`, where
/// `T1` is the cycle time at the smallest replica count (cores = replicas)
/// and `TN` the cycle time at N replicas on N cores.
///
/// Returns `None` on degenerate inputs (a non-positive or non-finite cycle
/// time, e.g. from a zero-length or failed run) instead of panicking.
pub fn weak_efficiency(t_base: f64, t_n: f64) -> Option<f64> {
    if t_base > 0.0 && t_n > 0.0 && t_base.is_finite() && t_n.is_finite() {
        Some(t_base / t_n * 100.0)
    } else {
        None
    }
}

/// Strong-scaling parallel efficiency (Eq. 3): fixed problem size, growing
/// cores. `t_base` was measured on `cores_base`, `t_n` on `cores_n`;
/// `Es = T1 / (N × TN) × 100%` with `N = cores_n / cores_base`.
///
/// Returns `None` on degenerate inputs (non-positive/non-finite times or a
/// zero core count).
pub fn strong_efficiency(t_base: f64, cores_base: usize, t_n: f64, cores_n: usize) -> Option<f64> {
    if t_base > 0.0
        && t_n > 0.0
        && t_base.is_finite()
        && t_n.is_finite()
        && cores_base > 0
        && cores_n > 0
    {
        let n = cores_n as f64 / cores_base as f64;
        Some(t_base / (n * t_n) * 100.0)
    } else {
        None
    }
}

/// Utilization (Eq. 4): simulated time per CPU-hour achieved by a pattern,
/// relative to the ideal where CPUs only ever run MD.
/// Both arguments in the same units (e.g. ns/day per CPU-hour, or simply
/// busy-fraction); returns percent, clamped to `[0, 100]`.
///
/// Returns `None` when `ideal` is non-positive or either input is
/// non-finite.
pub fn utilization_percent(pattern: f64, ideal: f64) -> Option<f64> {
    if ideal > 0.0 && ideal.is_finite() && pattern.is_finite() {
        Some((pattern / ideal * 100.0).clamp(0.0, 100.0))
    } else {
        None
    }
}

/// Convert an event-derived [`obs::CycleBreakdown`] into a [`CycleTiming`].
///
/// The drivers accumulate Eq. 1 through trace events and derive their
/// reported timing with this bridge, so the report and any exported trace
/// can never disagree.
pub fn timing_from_breakdown(b: &obs::CycleBreakdown) -> CycleTiming {
    CycleTiming {
        t_md: b.t_md,
        t_ex: b
            .t_ex
            .iter()
            .map(|(letter, t)| {
                (ExchangeKind::from_letter(*letter).expect("driver-emitted exchange letter"), *t)
            })
            .collect(),
        t_data: b.t_data,
        t_repex_over: b.t_repex_over,
        t_rp_over: b.t_rp_over,
    }
}

/// Average of cycle timings (the paper reports "average of 4 simulation
/// cycles"). An empty slice averages to the zero timing (e.g. asynchronous
/// runs, which have no cycle decomposition).
///
/// When every cycle shares one dimension layout (the synchronous pattern),
/// `t_ex` is averaged positionally, preserving per-dimension attribution
/// even when two dimensions share a kind (e.g. T-U-U). Heterogeneous
/// layouts — asynchronous partial-exchange cycles with fewer or reordered
/// dimensions — are averaged by `ExchangeKind`, each kind over the cycles
/// where it appears, instead of panicking or misattributing positionally.
pub fn average_cycles(cycles: &[CycleTiming]) -> CycleTiming {
    let breakdowns: Vec<obs::CycleBreakdown> = cycles
        .iter()
        .map(|c| obs::CycleBreakdown {
            cycle: 0,
            t_md: c.t_md,
            t_ex: c.t_ex.iter().map(|(kind, t)| (kind.letter(), *t)).collect(),
            t_data: c.t_data,
            t_repex_over: c.t_repex_over,
            t_rp_over: c.t_rp_over,
        })
        .collect();
    timing_from_breakdown(&obs::average_breakdown(&breakdowns))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(md: f64, ex: f64) -> CycleTiming {
        CycleTiming {
            t_md: md,
            t_ex: vec![(ExchangeKind::Temperature, ex)],
            t_data: 2.0,
            t_repex_over: 1.0,
            t_rp_over: 3.0,
        }
    }

    #[test]
    fn eq1_total_is_sum_of_components() {
        let t = timing(139.6, 10.0);
        assert!((t.total() - (139.6 + 10.0 + 2.0 + 1.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn multi_dimension_exchange_sums() {
        let t = CycleTiming {
            t_md: 495.0,
            t_ex: vec![
                (ExchangeKind::Temperature, 30.0),
                (ExchangeKind::Salt, 200.0),
                (ExchangeKind::Umbrella, 35.0),
            ],
            ..Default::default()
        };
        assert!((t.t_ex_total() - 265.0).abs() < 1e-12);
        assert!((t.total() - 760.0).abs() < 1e-12);
    }

    #[test]
    fn eq2_weak_efficiency() {
        assert!((weak_efficiency(100.0, 100.0).unwrap() - 100.0).abs() < 1e-12);
        assert!((weak_efficiency(100.0, 125.0).unwrap() - 80.0).abs() < 1e-12);
        // Super-linear is possible in principle (cache effects) and must
        // not be clamped for weak scaling plots.
        assert!(weak_efficiency(100.0, 90.0).unwrap() > 100.0);
    }

    #[test]
    fn eq3_strong_efficiency() {
        // Doubling cores halving time = 100%.
        assert!((strong_efficiency(100.0, 112, 50.0, 224).unwrap() - 100.0).abs() < 1e-12);
        // Doubling cores with no speedup = 50%.
        assert!((strong_efficiency(100.0, 112, 100.0, 224).unwrap() - 50.0).abs() < 1e-12);
        // Same cores = plain ratio.
        assert!((strong_efficiency(100.0, 112, 100.0, 112).unwrap() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn eq4_utilization() {
        assert!((utilization_percent(0.8, 1.0).unwrap() - 80.0).abs() < 1e-12);
        assert_eq!(utilization_percent(1.2, 1.0), Some(100.0), "clamped at ideal");
        assert_eq!(utilization_percent(0.0, 1.0), Some(0.0));
    }

    #[test]
    fn degenerate_inputs_yield_none_not_panic() {
        // Zero-length or failed cycles produce zero times.
        assert_eq!(weak_efficiency(0.0, 100.0), None);
        assert_eq!(weak_efficiency(100.0, 0.0), None);
        assert_eq!(weak_efficiency(f64::NAN, 100.0), None);
        assert_eq!(weak_efficiency(100.0, f64::INFINITY), None);
        assert_eq!(strong_efficiency(0.0, 112, 50.0, 224), None);
        assert_eq!(strong_efficiency(100.0, 0, 50.0, 224), None);
        assert_eq!(strong_efficiency(100.0, 112, f64::NAN, 224), None);
        assert_eq!(utilization_percent(0.5, 0.0), None);
        assert_eq!(utilization_percent(0.5, -1.0), None);
        assert_eq!(utilization_percent(f64::NAN, 1.0), None);
    }

    #[test]
    fn breakdown_bridge_preserves_every_field() {
        let b = obs::CycleBreakdown {
            cycle: 3,
            t_md: 10.0,
            t_ex: vec![('T', 1.0), ('S', 2.0)],
            t_data: 0.5,
            t_repex_over: 0.25,
            t_rp_over: 0.75,
        };
        let t = timing_from_breakdown(&b);
        assert_eq!(t.t_md, 10.0);
        assert_eq!(t.t_ex, vec![(ExchangeKind::Temperature, 1.0), (ExchangeKind::Salt, 2.0)]);
        assert_eq!(t.t_data, 0.5);
        assert_eq!(t.t_repex_over, 0.25);
        assert_eq!(t.t_rp_over, 0.75);
        assert!((t.total() - b.total()).abs() < 1e-12);
    }

    #[test]
    fn averaging_cycles() {
        let avg = average_cycles(&[timing(100.0, 10.0), timing(140.0, 20.0)]);
        assert!((avg.t_md - 120.0).abs() < 1e-12);
        assert!((avg.t_ex[0].1 - 15.0).abs() < 1e-12);
        assert!((avg.t_data - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_nothing_is_zero_timing() {
        // Asynchronous runs report no cycle decomposition; averaging an
        // empty slice must not panic (the CLI summary path hits this).
        assert_eq!(average_cycles(&[]), CycleTiming::default());
    }

    #[test]
    fn averaging_duplicate_kinds_stays_positional() {
        // T-U-U layouts must keep per-dimension attribution: the two U
        // dimensions average independently.
        let cycle = |a: f64, b: f64, c: f64| CycleTiming {
            t_ex: vec![
                (ExchangeKind::Temperature, a),
                (ExchangeKind::Umbrella, b),
                (ExchangeKind::Umbrella, c),
            ],
            ..Default::default()
        };
        let avg = average_cycles(&[cycle(1.0, 2.0, 6.0), cycle(3.0, 4.0, 8.0)]);
        assert_eq!(avg.t_ex.len(), 3);
        assert!((avg.t_ex[0].1 - 2.0).abs() < 1e-12);
        assert!((avg.t_ex[1].1 - 3.0).abs() < 1e-12);
        assert!((avg.t_ex[2].1 - 7.0).abs() < 1e-12);
    }

    #[test]
    fn averaging_heterogeneous_cycles_keys_by_kind() {
        // Async partial-exchange cycles can have fewer or reordered dims;
        // the old positional code panicked (index out of bounds) or
        // misattributed kinds. Average by kind over the cycles where the
        // kind appears.
        let a = CycleTiming { t_ex: vec![(ExchangeKind::Temperature, 10.0)], ..Default::default() };
        let b = CycleTiming {
            t_ex: vec![(ExchangeKind::Temperature, 20.0), (ExchangeKind::Salt, 5.0)],
            ..Default::default()
        };
        let avg = average_cycles(&[a, b]);
        assert_eq!(avg.t_ex.len(), 2);
        assert_eq!(avg.t_ex[0].0, ExchangeKind::Temperature);
        assert!((avg.t_ex[0].1 - 15.0).abs() < 1e-12, "T over both cycles");
        assert_eq!(avg.t_ex[1].0, ExchangeKind::Salt);
        assert!((avg.t_ex[1].1 - 5.0).abs() < 1e-12, "S only where present");
    }
}
