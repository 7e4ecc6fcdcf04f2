//! Efficiency metrics (Eqs. 2–4 of the paper). The cycle-time
//! decomposition of Eq. 1 is [`obs::CycleBreakdown`], folded from the
//! driver's events and averaged by [`obs::average_breakdown`].

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

#[cfg(test)]
mod tests {
    use super::*;

    use obs::{average_breakdown, CycleBreakdown};

    fn timing(md: f64, ex: f64) -> CycleBreakdown {
        CycleBreakdown {
            t_md: md,
            t_ex: vec![('T', ex)],
            t_data: 2.0,
            t_repex_over: 1.0,
            t_rp_over: 3.0,
            ..Default::default()
        }
    }

    #[test]
    fn eq1_total_is_sum_of_components() {
        let t = timing(139.6, 10.0);
        assert!((t.total() - (139.6 + 10.0 + 2.0 + 1.0 + 3.0)).abs() < 1e-12);
    }

    #[test]
    fn multi_dimension_exchange_sums() {
        let t = CycleBreakdown {
            t_md: 495.0,
            t_ex: vec![('T', 30.0), ('S', 200.0), ('U', 35.0)],
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
    fn averaging_cycles() {
        let avg = average_breakdown(&[timing(100.0, 10.0), timing(140.0, 20.0)]);
        assert!((avg.t_md - 120.0).abs() < 1e-12);
        assert!((avg.t_ex[0].1 - 15.0).abs() < 1e-12);
        assert!((avg.t_data - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_nothing_is_zero_timing() {
        // Asynchronous runs report no cycle decomposition; averaging an
        // empty slice must not panic (the CLI summary path hits this).
        assert_eq!(average_breakdown(&[]), CycleBreakdown::default());
    }

    #[test]
    fn averaging_duplicate_kinds_stays_positional() {
        // T-U-U layouts must keep per-dimension attribution: the two U
        // dimensions average independently.
        let cycle = |a: f64, b: f64, c: f64| CycleBreakdown {
            t_ex: vec![('T', a), ('U', b), ('U', c)],
            ..Default::default()
        };
        let avg = average_breakdown(&[cycle(1.0, 2.0, 6.0), cycle(3.0, 4.0, 8.0)]);
        assert_eq!(avg.t_ex, vec![('T', 2.0), ('U', 3.0), ('U', 7.0)]);
    }

    #[test]
    fn averaging_heterogeneous_cycles_keys_by_kind() {
        // Async partial-exchange cycles can have fewer or reordered dims;
        // positional averaging would panic (index out of bounds) or
        // misattribute kinds. Average by kind over the cycles where the
        // kind appears.
        let a = CycleBreakdown { t_ex: vec![('T', 10.0)], ..Default::default() };
        let b = CycleBreakdown { t_ex: vec![('T', 20.0), ('S', 5.0)], ..Default::default() };
        let avg = average_breakdown(&[a, b]);
        assert_eq!(avg.t_ex, vec![('T', 15.0), ('S', 5.0)], "S only where present");
    }
}
