//! Table 1 and Figs. 4–13 of the paper's evaluation. A sweep is run once
//! and every figure derived from it comes out of that run: Figs. 6 and 7 are
//! two views of [`one_d_scaling`], Figs. 9, 10 and 11 of [`tsu_scaling`].

use crate::experiments::{
    namd_config, one_d_config, run, run_traced, tsu_config, tuu_multicore_config,
    utilization_config, OneDKind, PER_DIM_SWEEP, REPLICA_SWEEP, STRONG_CORES,
};
use crate::output::Figure;
use analysis::fes::{render_ascii, wham_fes_min_count, BiasedWindow};
use analysis::tables::{f1, f2, TextTable};
use analysis::timeseries::mean;
use obs::CycleBreakdown;
use repex::capabilities::{paper_repex_row, render_table1_markdown, repex_capabilities, table1};
use repex::config::{DimensionConfig, Pattern, SimulationConfig, Workload};
use repex::timing::{strong_efficiency, weak_efficiency};

/// Smallest and largest value of a series.
pub(crate) fn span(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// Every value within `tolerance` (a fraction) of the series' mean.
fn flat(values: &[f64], tolerance: f64) -> bool {
    let m = mean(values);
    values.iter().all(|v| (v - m).abs() < tolerance * m)
}

/// Table 1 — comparison of molecular simulation software packages with
/// integrated REMD capability. RepEx's row is derived from this
/// implementation's actual capabilities (dimension limit probed from the
/// code) so the table cannot drift from the library.
pub fn table1_comparison() -> Figure {
    let mut fig = Figure::new("table1_comparison");
    fig.line("Table 1 — REMD package comparison\n");
    fig.text.push_str(&render_table1_markdown());
    fig.line("");

    let (paper, repex, packages) = (paper_repex_row(), repex_capabilities(), table1());
    fig.check(
        "paper row: 3 dims / 3 exchange params; this implementation: 3 dims / 4 (pH added)",
        (paper.n_dims, paper.exchange_params) == (3, 3)
            && (repex.n_dims, repex.exchange_params) == (3, 4),
    );
    fig.check(
        "RepEx is the only package with >2 dims, both patterns and multiple engines",
        packages.iter().all(|p| {
            let complete =
                p.n_dims >= 3 && p.sync_pattern && p.async_pattern && p.md_engines.len() > 1;
            complete == (p.name == "RepEx")
        }),
    );
    fig.check(
        "Charm++/NAMD MCA has the widest core scaling but no async pattern",
        packages
            .iter()
            .max_by_key(|p| p.max_cpu_cores)
            .is_some_and(|widest| widest.name == "Charm++/NAMD MCA" && !widest.async_pattern),
    );
    fig
}

/// Figure 4 — validation: free-energy profile of the alanine-dipeptide
/// backbone torsions at six temperatures from 3-D (T × U(φ) × U(ψ)) REMD.
///
/// Paper setup: 6 temperature windows 273–373 K (geometric), 8 × 8 umbrella
/// windows uniform over the circle with k = 0.02 kcal·mol⁻¹·deg⁻²,
/// 384 replicas, exchange every 20 000 steps, 90 cycles on 400 cores.
///
/// Our run keeps the ensemble structure identical but integrates
/// `surrogate_steps` real steps per segment on the reduced dipeptide,
/// sampling the torsions every `sample_stride` steps of a segment's second
/// half, then builds F(φ, ψ) per temperature with WHAM (the vFEP
/// substitute). The recorded size is 24 cycles of 600 steps sampled every
/// 40; tier-1 runs fewer, shorter segments and samples them densely.
pub fn fig04_validation(cycles: u64, surrogate_steps: u64, sample_stride: u64) -> Figure {
    let mut cfg = SimulationConfig::t_remd(6, 20_000, cycles);
    cfg.title = "Fig. 4 validation: TUU 6x8x8".into();
    cfg.pattern = Pattern::Synchronous;
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 6 },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: 8, k_deg: 0.02 },
        DimensionConfig::Umbrella { dihedral: "psi".into(), count: 8, k_deg: 0.02 },
    ];
    cfg.workload = Some(Workload::DipeptideVacuum);
    cfg.cost_atoms = Some(2881);
    cfg.surrogate_steps = surrogate_steps;
    cfg.sample_stride = sample_stride;
    cfg.sample_warmup = surrogate_steps / 2; // re-equilibrate after exchanges
    cfg.production_after_cycle = cycles / 3; // paper: last portion is production
    cfg.resource.cores = Some(400); // the paper used 400 cores (25 nodes)
    cfg.resource.cluster = "stampede".into();
    cfg.seed = 20_160_101;

    let mut fig = Figure::new("fig04_validation");
    fig.line("Figure 4 — Free energy profile of alanine dipeptide backbone torsions");
    fig.line("3-D TUU-REMD: 6 T (273-373 K geometric) x 8 U(phi) x 8 U(psi) = 384 replicas");
    fig.line(format!(
        "{cycles} cycles, {surrogate_steps} sampled steps/segment, 400 cores (Execution Mode I on Stampede)\n"
    ));

    let report = run(cfg);

    let mut acc_table = TextTable::new(vec!["Dimension", "Attempts", "Accepted", "Ratio"]);
    for (letter, stats) in &report.acceptance {
        acc_table.add_row(vec![
            format!("{letter}"),
            format!("{}", stats.attempts),
            format!("{}", stats.accepted),
            f2(stats.ratio()),
        ]);
    }
    fig.table(&acc_table);
    fig.line(
        "(paper: ~3% acceptance in T, ~25% in U — our reduced 7-atom model has a far\n\
         smaller heat capacity than 2881 solvated atoms, so T-acceptance is higher; see\n\
         EXPERIMENTS.md)\n",
    );

    // Build per-temperature WHAM surfaces from the window samples.
    let temps: Vec<f64> = {
        let mut t: Vec<f64> = report.window_samples.iter().map(|w| w.temperature).collect();
        t.sort_by(|a, b| a.partial_cmp(b).unwrap());
        t.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
        t
    };
    assert_eq!(temps.len(), 6, "six temperature levels");
    let bins = 12;
    let mut ranges = Vec::new();
    let mut coverage = Vec::new();
    for &t in &temps {
        let windows: Vec<BiasedWindow> = report
            .window_samples
            .iter()
            .filter(|w| (w.temperature - t).abs() < 1e-6)
            .map(|w| {
                let phi = w.restraints.iter().find(|r| r.0 == "phi").expect("phi window");
                let psi = w.restraints.iter().find(|r| r.0 == "psi").expect("psi window");
                // Transit filter: a replica that just swapped umbrella
                // windows spends the first part of the segment travelling to
                // the new center; those are not equilibrium samples of this
                // window and poison the reweighting. Keep samples within
                // 8 kcal/mol of bias energy under their own window.
                let samples = w
                    .samples
                    .iter()
                    .copied()
                    .filter(|&(phi_r, psi_r)| {
                        let dphi = mdsim::units::angle_diff_deg(phi_r.to_degrees(), phi.1);
                        let dpsi = mdsim::units::angle_diff_deg(psi_r.to_degrees(), psi.1);
                        phi.2 * (dphi * dphi + dpsi * dpsi) < 8.0
                    })
                    .collect();
                BiasedWindow {
                    phi_center_deg: phi.1,
                    psi_center_deg: Some(psi.1),
                    k_deg: phi.2,
                    samples,
                }
            })
            .collect();
        assert_eq!(windows.len(), 64, "8x8 umbrella windows per temperature");
        let n_samples: usize = windows.iter().map(|w| w.samples.len()).sum();
        let fes = wham_fes_min_count(&windows, t, bins, 1e-5, 3000, 25);
        // Robust corrugation statistic: the 95th percentile of finite F.
        let range = fes.finite_quantile(0.95);
        ranges.push(range);
        coverage.push(fes.coverage() * 100.0);
        fig.line(format!(
            "T = {t:.0} K   ({n_samples} samples, coverage {:.0}%, F range (95th pct) {range:.1} kcal/mol)",
            fes.coverage() * 100.0,
        ));
        fig.text.push_str(&render_ascii(&fes, &[1.0, 2.0, 4.0, 6.0, 9.0, 12.0]));
        fig.line("");
    }

    let (range_lo, range_hi) = span(&ranges);
    let (cold, hot) = (ranges[0], ranges[5]);
    fig.check(
        "all six temperatures produce a structured surface (range > 2 kcal/mol)",
        range_lo > 2.0,
    );
    fig.check(
        format!(
            "umbrella sampling covers most of the torus at every T (min coverage {:.0}%)",
            span(&coverage).0
        ),
        span(&coverage).0 > 75.0,
    );
    fig.check(
        format!(
            "contour scale comparable to the paper's 0-16 kcal/mol (cold {cold:.1}, hot {hot:.1})"
        ),
        cold > 2.0 && cold < 25.0 && hot < 25.0,
    );
    fig.check(
        format!(
            "surfaces share basin structure across temperatures (ranges {range_lo:.1}..{range_hi:.1} kcal/mol)"
        ),
        range_hi / range_lo < 4.0,
    );
    let ratio = |kind| report.acceptance.iter().find(|(l, _)| *l == kind).unwrap().1.ratio();
    let (t_acc, u_acc) = (ratio('T'), ratio('U'));
    fig.check(
        format!("exchanges occur in all dimensions (T {t_acc:.2}, U {u_acc:.2})"),
        t_acc > 0.0 && u_acc > 0.0,
    );

    fig.line(format!("\n{}", report.summary()));
    fig
}

/// Figure 5 — characterization of overheads.
///
/// Data times per exchange type, RepEx overhead (1-D and 3-D) and RP
/// overhead for runs of 64..1728 replicas on SuperMIC, single-core replicas,
/// Execution Mode I, synchronous pattern.
pub fn fig05_overheads() -> Figure {
    let cycles = 2;
    let mut fig = Figure::new("fig05_overheads");
    fig.line("Figure 5 — Characterization of overheads (SuperMIC, Mode I, sync)");
    fig.line(format!("Per-cycle averages over {cycles} cycles.\n"));

    let mut table = TextTable::new(vec![
        "Replicas",
        "T data(s)",
        "U data(s)",
        "S data(s)",
        "RepEx ovh 1D(s)",
        "RepEx ovh 3D(s)",
        "RP ovh(s)",
    ]);
    let mut t_data = Vec::new();
    let mut u_data = Vec::new();
    let mut s_data = Vec::new();
    let mut repex_1d = Vec::new();
    let mut repex_3d = Vec::new();
    let mut rp = Vec::new();
    let mut max_trace_drift: f64 = 0.0;
    let mut max_path_drift: f64 = 0.0;
    for (&n, &per_dim) in REPLICA_SWEEP.iter().zip(&PER_DIM_SWEEP) {
        // 1-D runs per exchange type supply per-type data times; the T run
        // also supplies the 1-D RepEx overhead and the RP overhead. The T
        // run is traced, and its overheads are read from the event stream
        // (the aggregator is the single source of truth for Eq. 1 terms).
        let (t_report, t_rec) = run_traced(one_d_config(OneDKind::Temperature, n, cycles));
        let events = t_rec.events();
        let t = obs::average_breakdown(&obs::cycle_breakdowns(&events));
        max_trace_drift =
            max_trace_drift.max((t.total() - t_report.average_timing().total()).abs());
        // The longest chain through a synchronous cycle's phase events must
        // reproduce that cycle's Eq. 1 total (the phases tile the cycle).
        for (cp, b) in
            obs::cycle_critical_paths(&events).iter().zip(&obs::cycle_breakdowns(&events))
        {
            max_path_drift = max_path_drift.max((cp.path.total - b.total()).abs());
        }
        let u = run(one_d_config(OneDKind::Umbrella, n, cycles)).average_timing();
        let s = run(one_d_config(OneDKind::Salt, n, cycles)).average_timing();
        // A TUU 3-D run at the same total replica count supplies the 3-D
        // RepEx overhead (TUU keeps the exchange cheap so this stays fast).
        let mut cfg3 = one_d_config(OneDKind::Temperature, per_dim, 1);
        cfg3.title = format!("TUU {n}");
        cfg3.dimensions = vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: per_dim },
            DimensionConfig::Umbrella { dihedral: "phi".into(), count: per_dim, k_deg: 0.02 },
            DimensionConfig::Umbrella { dihedral: "psi".into(), count: per_dim, k_deg: 0.02 },
        ];
        let three = run(cfg3).average_timing();

        t_data.push(t.t_data);
        u_data.push(u.t_data);
        s_data.push(s.t_data);
        repex_1d.push(t.t_repex_over);
        repex_3d.push(three.t_repex_over);
        // The 1-D T run launches N tasks once per cycle.
        rp.push(t.t_rp_over);
        table.add_row(vec![
            format!("{n}"),
            f1(t.t_data),
            f1(u.t_data),
            f1(s.t_data),
            f1(t.t_repex_over),
            f1(three.t_repex_over),
            f1(t.t_rp_over),
        ]);
    }
    fig.table(&table);

    let last = REPLICA_SWEEP.len() - 1;
    fig.check(
        format!(
            "data times ordered T < U < S at every count (S max {:.1}s; paper: 6.3s)",
            s_data[last]
        ),
        (0..=last).all(|i| t_data[i] < u_data[i] && u_data[i] < s_data[i])
            && (s_data[last] - 6.3).abs() < 1.0,
    );
    fig.check(
        "3-D RepEx overhead exceeds 1-D at every replica count",
        (0..=last).all(|i| repex_3d[i] > repex_1d[i]),
    );
    let ratio = rp[last] / rp[0];
    let n_ratio = REPLICA_SWEEP[last] as f64 / REPLICA_SWEEP[0] as f64;
    fig.check(
        format!(
            "RP overhead proportional to replicas and within 35-60s at 1728 \
             ({:.1}s -> {:.1}s, x{ratio:.1} for x{n_ratio:.0} replicas; paper ≈ 45s)",
            rp[0], rp[last]
        ),
        ratio > 0.5 * n_ratio && rp[last] > 35.0 && rp[last] < 60.0,
    );
    fig.check(
        format!("all overheads stay below ~75s (max RP {:.1}s)", rp[last]),
        rp.iter().chain(&s_data).chain(&repex_3d).all(|v| *v < 75.0),
    );
    fig.check(
        format!(
            "event-derived Tc matches the report's Eq. 1 total (max drift {max_trace_drift:.2e}s)"
        ),
        max_trace_drift < 1e-9,
    );
    fig.check(
        format!("per-cycle critical path equals the Eq. 1 total (max drift {max_path_drift:.2e}s)"),
        max_path_drift < 1e-9,
    );
    fig
}

/// Core counts of the 1-D weak-scaling sweep: Fig. 6 plots the first five,
/// Fig. 7 extends to 2744.
const ONE_D_SWEEP: [usize; 6] = [64, 216, 512, 1000, 1728, 2744];

/// The 1-D weak-scaling sweep on SuperMIC (Amber, Execution Mode I,
/// single-core replicas, 6000 steps between exchanges, replicas = cores),
/// run once: U-, S- and T-REMD plus the no-exchange baseline, the paper's
/// four cycles each (tier-1 averages fewer).
///
/// * Figure 6 — average cycle time decomposed into MD and exchange time.
/// * Figure 7 — weak-scaling efficiency (Eq. 2), 64 cores = 100 %.
pub fn one_d_scaling(cycles: u64) -> Vec<Figure> {
    let sweep = |kind: Option<OneDKind>| -> Vec<CycleBreakdown> {
        let config = |n| match kind {
            Some(kind) => one_d_config(kind, n, cycles),
            None => SimulationConfig {
                no_exchange: true,
                ..one_d_config(OneDKind::Temperature, n, cycles)
            },
        };
        ONE_D_SWEEP.iter().map(|&n| run(config(n)).average_timing()).collect()
    };
    let (u, s, t) = (
        sweep(Some(OneDKind::Umbrella)),
        sweep(Some(OneDKind::Salt)),
        sweep(Some(OneDKind::Temperature)),
    );
    let none = sweep(None);
    vec![fig06_weak_1d(cycles, [&u, &s, &t]), fig07_efficiency_1d(&t, &s, &u, &none)]
}

fn fig06_weak_1d(cycles: u64, [u, s, t]: [&[CycleBreakdown]; 3]) -> Figure {
    let mut fig = Figure::new("fig06_weak_1d");
    fig.line("Figure 6 — 1-D REMD weak scaling (SuperMIC, sander, 6000 steps/cycle)");
    fig.line(format!("Average of {cycles} cycles; cores = replicas (Execution Mode I).\n"));

    let mut table = TextTable::new(vec![
        "Cores,Replicas",
        "U MD(s)",
        "U EX(s)",
        "S MD(s)",
        "S EX(s)",
        "T MD(s)",
        "T EX(s)",
    ]);
    let shown = REPLICA_SWEEP.len();
    let ex = |series: &[CycleBreakdown]| -> Vec<f64> {
        series[..shown].iter().map(CycleBreakdown::t_ex_total).collect()
    };
    let (ex_u, ex_s, ex_t) = (ex(u), ex(s), ex(t));
    for (i, &n) in REPLICA_SWEEP.iter().enumerate() {
        table.add_row(vec![
            format!("{n}, {n}"),
            f1(u[i].t_md),
            f1(ex_u[i]),
            f1(s[i].t_md),
            f1(ex_s[i]),
            f1(t[i].t_md),
            f1(ex_t[i]),
        ]);
    }
    fig.table(&table);

    let md: Vec<f64> = [u, s, t].iter().flat_map(|k| k[..shown].iter().map(|c| c.t_md)).collect();
    fig.check(
        format!(
            "MD time nearly identical across types/counts (mean {:.1}s; paper: 139.6s)",
            mean(&md)
        ),
        flat(&md, 0.08) && (mean(&md) - 139.6).abs() < 0.12 * 139.6,
    );
    let last = shown - 1;
    let (t_growth, u_growth) = (ex_t[last] / ex_t[0], ex_u[last] / ex_u[0]);
    fig.check(
        format!(
            "T and U exchange grow more than 10x over the x27 sweep \
             (T: {:.1}s -> {:.1}s, x{t_growth:.1}; U x{u_growth:.1})",
            ex_t[0], ex_t[last]
        ),
        t_growth > 10.0 && u_growth > 10.0,
    );
    fig.check(
        format!(
            "S exchange more than twice T and U at every count (S {:.1}s vs T {:.1}s at 1728)",
            ex_s[last], ex_t[last]
        ),
        (0..shown).all(|i| ex_s[i] > 2.0 * ex_t[i].max(ex_u[i])),
    );
    fig.check(
        "T and U exchange timings similar (within 50% at every count)",
        (0..shown).all(|i| (ex_u[i] - ex_t[i]).abs() < 0.5 * ex_t[i].max(1.0)),
    );
    fig
}

fn fig07_efficiency_1d(
    t: &[CycleBreakdown],
    s: &[CycleBreakdown],
    u: &[CycleBreakdown],
    none: &[CycleBreakdown],
) -> Figure {
    let mut fig = Figure::new("fig07_efficiency_1d");
    fig.line("Figure 7 — Parallel efficiency (% of linear scaling), 1-D REMD, SuperMIC");
    fig.line("Weak scaling, Eq. 2: Ew = T(64)/T(N) x 100; base = 64 replicas on 64 cores.\n");

    let eff: Vec<Vec<f64>> = [t, s, u, none]
        .iter()
        .map(|series| {
            series
                .iter()
                .map(|c| {
                    weak_efficiency(series[0].total(), c.total())
                        .expect("positive cycle times from a completed run")
                })
                .collect()
        })
        .collect();
    let mut table = TextTable::new(vec!["Cores", "T-REMD", "S-REMD", "U-REMD", "No exchange"]);
    for (i, &n) in ONE_D_SWEEP.iter().enumerate() {
        table.add_row(vec![
            format!("{n}"),
            f1(eff[0][i]),
            f1(eff[1][i]),
            f1(eff[2][i]),
            f1(eff[3][i]),
        ]);
    }
    fig.table(&table);

    let last = ONE_D_SWEEP.len() - 1;
    let (t_eff, s_eff, u_eff, none_eff) = (eff[0][last], eff[1][last], eff[2][last], eff[3][last]);
    fig.check(
        format!(
            "efficiency decreases with core count for all exchange types (T: {t_eff:.1}% at 2744)"
        ),
        (0..3).all(|k| eff[k][last] < eff[k][0]),
    );
    fig.check(
        format!("S-REMD efficiency lowest (S {s_eff:.1}% vs T {t_eff:.1}%)"),
        s_eff < t_eff && s_eff < u_eff,
    );
    fig.check(
        format!("no-exchange baseline stays highest ({none_eff:.1}%)"),
        (0..3).all(|k| none_eff >= eff[k][last] - 1.0),
    );
    fig.check(
        format!("T and U efficiencies similar ({t_eff:.1}% vs {u_eff:.1}%)"),
        (t_eff - u_eff).abs() < 8.0,
    );
    fig
}

/// Figure 8 — T-REMD with the NAMD engine.
///
/// Demonstrates engine independence: the identical framework configuration
/// with `engine = namd` (NAMD-2.10 analogue, 4000 steps between exchanges)
/// on SuperMIC, weak scaling, single-core replicas.
pub fn fig08_namd() -> Figure {
    let cycles = 4;
    let mut fig = Figure::new("fig08_namd");
    fig.line("Figure 8 — T-REMD with the NAMD engine (SuperMIC, 4000 steps/cycle)");
    fig.line(format!("Average of {cycles} cycles; cores = replicas.\n"));

    let mut table = TextTable::new(vec!["Cores,Replicas", "MD (s)", "Exchange (s)"]);
    let mut md = Vec::new();
    let mut ex = Vec::new();
    for &n in &REPLICA_SWEEP {
        let avg = run(namd_config(n, cycles)).average_timing();
        md.push(avg.t_md);
        ex.push(avg.t_ex_total());
        table.add_row(vec![format!("{n}, {n}"), f1(avg.t_md), f1(avg.t_ex_total())]);
    }
    fig.table(&table);

    let md_mean = mean(&md);
    fig.check(
        format!("MD times nearly equal for all pairs (mean {md_mean:.1}s; paper ≈215s)"),
        flat(&md, 0.08) && (md_mean - 215.0).abs() < 0.15 * 215.0,
    );
    // "Growth rate for exchange times can't be characterized as monomial":
    // successive ratios should NOT follow a clean power law.
    let exponents: Vec<f64> = ex
        .windows(2)
        .zip(REPLICA_SWEEP.windows(2))
        .map(|(e, n)| (e[1] / e[0]).ln() / (n[1] as f64 / n[0] as f64).ln())
        .collect();
    let (exp_lo, exp_hi) = span(&exponents);
    fig.check(
        format!("exchange growth non-monomial (local exponents spread {:.2})", exp_hi - exp_lo),
        exp_hi - exp_lo > 0.1,
    );
    fig.check(
        format!(
            "exchange remains a small fraction of MD (max {:.1}s vs {md_mean:.1}s)",
            span(&ex).1
        ),
        ex.iter().all(|e| *e < 0.25 * md_mean),
    );
    fig
}

/// The TSU M-REMD scaling runs on Stampede (Amber, single-core replicas,
/// 6000 steps per cycle per dimension), each run once:
///
/// * the weak sweep — 4..12 replicas per dimension, cores = replicas
///   (Execution Mode I);
/// * the strong sweep — 1728 replicas on 112 → 1728 cores, Execution Mode II
///   except the last point, which is the weak sweep's last point.
///
/// Figure 9 decomposes the weak sweep's cycle time, Figure 10 the strong
/// sweep's, Figure 11 turns both into efficiencies (Eqs. 2 and 3). The
/// recorded size averages two cycles, tier-1 one.
pub fn tsu_scaling(cycles: u64) -> Vec<Figure> {
    let weak: Vec<CycleBreakdown> = PER_DIM_SWEEP
        .iter()
        .map(|&per_dim| run(tsu_config(per_dim, cycles, None)).average_timing())
        .collect();
    let strong: Vec<(u8, CycleBreakdown)> = STRONG_CORES
        .iter()
        .map(|&cores| {
            let report = run(tsu_config(12, cycles, Some(cores)));
            (report.execution_mode, report.average_timing())
        })
        .collect();
    vec![
        fig09_weak_tsu(cycles, &weak),
        fig10_strong_tsu(cycles, &strong),
        fig11_efficiency_tsu(&weak, &strong),
    ]
}

/// Per-dimension exchange time series (T, S, U) of a TSU sweep.
fn tsu_exchange<'a>(timings: impl Iterator<Item = &'a CycleBreakdown>) -> [Vec<f64>; 3] {
    let mut ex = [Vec::new(), Vec::new(), Vec::new()];
    for timing in timings {
        assert_eq!(timing.t_ex.len(), 3);
        for (series, (_, seconds)) in ex.iter_mut().zip(&timing.t_ex) {
            series.push(*seconds);
        }
    }
    ex
}

fn fig09_weak_tsu(cycles: u64, weak: &[CycleBreakdown]) -> Figure {
    let mut fig = Figure::new("fig09_weak_tsu");
    fig.line("Figure 9 — TSU-REMD weak scaling (Stampede, Amber, Mode I)");
    fig.line(format!("Average of {cycles} cycles; one MD phase per dimension per cycle.\n"));

    let mut table = TextTable::new(vec![
        "Cores,Replicas",
        "MD (s)",
        "T exch D1 (s)",
        "S exch D2 (s)",
        "U exch D3 (s)",
    ]);
    let [t_ex, s_ex, u_ex] = tsu_exchange(weak.iter());
    let md: Vec<f64> = weak.iter().map(|c| c.t_md).collect();
    for (i, &total) in REPLICA_SWEEP.iter().enumerate() {
        table.add_row(vec![
            format!("{total}, {total}"),
            f1(md[i]),
            f1(t_ex[i]),
            f1(s_ex[i]),
            f1(u_ex[i]),
        ]);
    }
    fig.table(&table);

    let md_mean = mean(&md);
    fig.check(
        format!("MD times nearly identical (mean {md_mean:.1}s; paper ≈495s across 3 dimensions)"),
        flat(&md, 0.08) && (md_mean - 495.0).abs() < 0.12 * 495.0,
    );
    let growth = |ex: &[f64]| ex[4] / ex[0];
    fig.check(
        format!(
            "exchange grows with replicas in all dims (T {:.1}→{:.1}s; T x{:.1} and U x{:.1} \
             above 8x, S x{:.1} above 4x, for x27 replicas)",
            t_ex[0],
            t_ex[4],
            growth(&t_ex),
            growth(&u_ex),
            growth(&s_ex)
        ),
        growth(&t_ex) > 8.0 && growth(&u_ex) > 8.0 && growth(&s_ex) > 4.0,
    );
    fig.check(
        format!(
            "T and U exchange similar, S much larger (S {:.1}s vs T {:.1}s at 1728)",
            s_ex[4], t_ex[4]
        ),
        (0..5).all(|i| s_ex[i] > 2.0 * t_ex[i].max(u_ex[i]))
            && (t_ex[4] - u_ex[4]).abs() < 0.5 * t_ex[4],
    );
    fig
}

fn fig10_strong_tsu(cycles: u64, strong: &[(u8, CycleBreakdown)]) -> Figure {
    let mut fig = Figure::new("fig10_strong_tsu");
    fig.line("Figure 10 — TSU-REMD strong scaling (Stampede, 1728 replicas)");
    fig.line(format!("Average of {cycles} cycles; Execution Mode II except the last point.\n"));

    let mut table = TextTable::new(vec![
        "Cores,Replicas",
        "Mode",
        "MD (s)",
        "T exch D1 (s)",
        "S exch D2 (s)",
        "U exch D3 (s)",
    ]);
    let [t_ex, s_ex, u_ex] = tsu_exchange(strong.iter().map(|(_, timing)| timing));
    let md: Vec<f64> = strong.iter().map(|(_, c)| c.t_md).collect();
    for (i, &cores) in STRONG_CORES.iter().enumerate() {
        table.add_row(vec![
            format!("{cores}, 1728"),
            format!("{}", strong[i].0),
            f1(md[i]),
            f1(t_ex[i]),
            f1(s_ex[i]),
            f1(u_ex[i]),
        ]);
    }
    fig.table(&table);

    let halving: Vec<f64> = md.windows(2).map(|w| w[0] / w[1]).collect();
    fig.check(
        format!(
            "MD time falls nearly proportionally with cores (ratios {:?})",
            halving.iter().map(|r| (r * 100.0).round() / 100.0).collect::<Vec<_>>()
        ),
        halving.iter().all(|r| *r > 1.5 && *r < 2.6),
    );
    let ((t_lo, t_hi), (u_lo, u_hi)) = (span(&t_ex), span(&u_ex));
    fig.check(
        format!("T/U exchange nearly constant across core counts (T {t_lo:.1}..{t_hi:.1}s)"),
        t_hi - t_lo < 0.35 * t_ex[0] && u_hi - u_lo < 0.35 * u_ex[0],
    );
    fig.check(
        format!(
            "S exchange ≈1800s at 112 cores, falling with cores ({:.0}s → {:.0}s)",
            s_ex[0], s_ex[4]
        ),
        (s_ex[0] - 1800.0).abs() < 0.25 * 1800.0 && s_ex[4] < 0.4 * s_ex[0],
    );
    fig
}

fn fig11_efficiency_tsu(weak: &[CycleBreakdown], strong: &[(u8, CycleBreakdown)]) -> Figure {
    let mut fig = Figure::new("fig11_efficiency_tsu");
    fig.line("Figure 11 — Parallel efficiency, TSU-REMD on Stampede");

    fig.line("\n(a) Weak scaling (Eq. 2; base = 64 replicas on 64 cores)\n");
    let mut table_a = TextTable::new(vec!["Cores", "Efficiency (%)"]);
    let weak_eff: Vec<f64> = weak
        .iter()
        .map(|c| {
            weak_efficiency(weak[0].total(), c.total())
                .expect("positive cycle times from a completed run")
        })
        .collect();
    for (&n, &e) in REPLICA_SWEEP.iter().zip(&weak_eff) {
        table_a.add_row(vec![format!("{n}"), f1(e)]);
    }
    fig.table(&table_a);

    fig.line("(b) Strong scaling (Eq. 3; 1728 replicas, base = 112 cores)\n");
    let mut table_b = TextTable::new(vec!["Cores", "Efficiency (%)"]);
    let strong_eff: Vec<f64> = STRONG_CORES
        .iter()
        .zip(strong)
        .map(|(&cores, (_, c))| {
            strong_efficiency(strong[0].1.total(), STRONG_CORES[0], c.total(), cores)
                .expect("positive cycle times from a completed run")
        })
        .collect();
    for (&cores, &e) in STRONG_CORES.iter().zip(&strong_eff) {
        table_b.add_row(vec![format!("{cores}"), f1(e)]);
    }
    fig.table(&table_b);

    fig.check(
        format!("weak efficiency decreases with cores ({:.1}% → {:.1}%)", weak_eff[0], weak_eff[4]),
        weak_eff.windows(2).all(|w| w[1] <= w[0] + 1.0),
    );
    fig.check(
        format!("weak efficiency stays above 50% (min {:.1}%)", span(&weak_eff).0),
        span(&weak_eff).0 > 50.0,
    );
    let min_strong = span(&strong_eff).0;
    fig.check(
        format!(
            "strong efficiency dips then recovers at cores = replicas ({:.1}% at 1728 vs min {min_strong:.1}%)",
            strong_eff[4]
        ),
        strong_eff[4] > min_strong && min_strong < strong_eff[0],
    );
    fig
}

/// Figure 12 — REMD with multi-core replicas.
///
/// TUU-REMD (one T, two U dimensions), 216 replicas of the 64 366-atom
/// solvated dipeptide, 20 000 steps per cycle, on Stampede. Cores per
/// replica grows 1 → 64; the framework switches from `sander` to
/// `pmemd.MPI` as the paper does. The paper plots single-core MD times
/// divided by 10 to fit; we print both.
pub fn fig12_multicore() -> Figure {
    const CORES_PER_REPLICA: [usize; 5] = [1, 16, 32, 48, 64];
    let cycles = 2;
    let mut fig = Figure::new("fig12_multicore");
    fig.line("Figure 12 — Multi-core replicas (TUU-REMD, 216 replicas, 64366 atoms)");
    fig.line("Stampede, 20000 steps/cycle, Mode I; executable switches with cores.\n");

    let mut table = TextTable::new(vec![
        "Cores, Replicas",
        "Cores/replica",
        "Executable",
        "MD (s)",
        "MD/10 (s)",
    ]);
    let mut md = Vec::new();
    for &cpr in &CORES_PER_REPLICA {
        let avg = run(tuu_multicore_config(cpr, cycles)).average_timing();
        // One cycle covers 3 dimension passes; report per-pass MD time to
        // match the paper's per-segment bars.
        let per_pass = avg.t_md / 3.0;
        md.push(per_pass);
        table.add_row(vec![
            format!("{}, 216", 216 * cpr),
            format!("{cpr}"),
            (if cpr == 1 { "sander" } else { "pmemd.MPI" }).to_string(),
            f1(per_pass),
            f1(per_pass / 10.0),
        ]);
    }
    fig.table(&table);

    fig.check(
        format!(
            "single-core sander MD in the 10000s range ({:.0}s; paper ≈ 10x the plotted ~1000s bar)",
            md[0]
        ),
        md[0] > 8_000.0 && md[0] < 16_000.0,
    );
    fig.check(
        format!(
            "substantial drop using multiple cores per replica ({:.0}s → {:.0}s at 16)",
            md[0], md[1]
        ),
        md[1] < md[0] / 8.0,
    );
    let gain_16_32 = md[1] / md[2];
    let gain_32_64 = md[2] / md[4];
    fig.check(
        format!(
            "further cores show sub-linear gains for this small system (16→32: x{gain_16_32:.2}, 32→64: x{gain_32_64:.2})"
        ),
        gain_16_32 < 1.95 && gain_32_64 < 1.9 && gain_32_64 < gain_16_32 + 0.2,
    );
    fig.check(
        "MD time monotonically decreasing in cores/replica",
        md.windows(2).all(|w| w[1] < w[0]),
    );
    fig
}

/// Figure 13 — utilization of the synchronous vs asynchronous RE patterns.
///
/// 1-D T-REMD with the Amber engine, Execution Mode I, replica counts
/// {120, 240, 480, 960}. Utilization (Eq. 4) is the achieved MD throughput
/// per CPU-hour relative to the ideal where CPUs only run MD. The paper
/// finds sync ≈ 10% above async when the async transition criterion is a
/// fixed real-time tick.
pub fn fig13_async_utilization() -> Figure {
    const SWEEP: [usize; 4] = [120, 240, 480, 960];
    let cycles = 4;
    let mut fig = Figure::new("fig13_async_utilization");
    fig.line("Figure 13 — Utilization, sync vs async T-REMD (SuperMIC, Mode I)");
    fig.line("Utilization = % of ideal MD time (ns/day) per CPU hour (Eq. 4).\n");

    // The worst drift of the trace-derived utilization against the report's
    // own figure, and whether the acceptance counters replayed from the
    // `ExchangeOutcome` events equal the in-process exchange stats.
    let mut max_drift: f64 = 0.0;
    let mut health_exact = true;
    // Run one traced configuration and recompute Eq. 4 utilization from the
    // event stream (successful MD busy core-seconds over cores × makespan).
    let mut traced = |n: usize, pattern: Pattern| -> f64 {
        let (report, rec) = run_traced(utilization_config(n, pattern, cycles));
        let events = rec.events();
        let busy = obs::md_busy_core_seconds(&events);
        let derived = (busy / (report.pilot_cores as f64 * report.makespan) * 100.0).min(100.0);
        max_drift = max_drift.max((derived - report.utilization_percent).abs());
        let ledger = obs::ExchangeLedger::from_trace(&events);
        let health = ledger.dims();
        health_exact &= health.len() == report.acceptance.len()
            && health.iter().zip(&report.acceptance).all(|(h, (letter, s))| {
                h.kind == *letter && h.attempts == s.attempts && h.accepted == s.accepted
            });
        derived
    };

    let mut table = TextTable::new(vec!["Cores,Replicas", "Sync (%)", "Async (%)", "Gap (%)"]);
    let mut sync_u = Vec::new();
    let mut async_u = Vec::new();
    for &n in &SWEEP {
        let s = traced(n, Pattern::Synchronous);
        let a = traced(n, Pattern::Asynchronous { tick_fraction: 0.25 });
        sync_u.push(s);
        async_u.push(a);
        table.add_row(vec![format!("{n}, {n}"), f1(s), f1(a), f1(s - a)]);
    }
    fig.table(&table);

    fig.check(
        "sync utilization higher than async at every replica count",
        sync_u.iter().zip(&async_u).all(|(s, a)| s > a),
    );
    let gaps: Vec<f64> = sync_u.iter().zip(&async_u).map(|(s, a)| s - a).collect();
    fig.check(
        format!("gap is roughly 10% (mean {:.1}%)", mean(&gaps)),
        mean(&gaps) > 4.0 && mean(&gaps) < 20.0,
    );
    // Our sync line declines with N because the calibrated Fig. 5 overheads
    // grow linearly in N (see EXPERIMENTS.md); the async line is the flat
    // one, as in the paper.
    let (async_lo, async_hi) = span(&async_u);
    fig.check(
        format!(
            "async utilization roughly invariant of replica count ({async_lo:.1}..{async_hi:.1}%)"
        ),
        async_hi - async_lo < 10.0,
    );
    let (sync_lo, sync_hi) = span(&sync_u);
    fig.check(
        format!(
            "sync utilization within 55-95% at every replica count ({sync_lo:.1}..{sync_hi:.1}%)"
        ),
        sync_lo > 55.0 && sync_hi < 95.0,
    );
    fig.check(
        format!("trace-derived utilization matches the report (max drift {max_drift:.2e}%)"),
        max_drift < 1e-6,
    );
    fig.check(
        "trace-derived acceptance counters equal the in-process exchange stats",
        health_exact,
    );
    fig
}
