//! P0xx/P1xx — the predictive campaign planner behind `repex plan`.
//!
//! The planner prices a campaign by running it: a *dry run* executes the
//! configuration on the simulated cluster at zero MD steps
//! (`surrogate-steps` 0), with no recorder, checkpoint or progress line.
//! Virtual time is charged for `steps-per-cycle` whatever the surrogate
//! integrates, so the dry run's makespan, utilization and Eq. 1 terms
//! (`Tc = T_MD + T_EX + T_data + T_RepEx_over + T_RP_over`) are the
//! simulator's own at the configured seed, relaunches, stragglers and
//! storms included. Acceptance is physics, which a zero-step run does not
//! sample: it comes from the energy-overlap model shared with L401
//! ([`crate::rules::acceptance::predicted_overlaps`]), and a round trip
//! from the Nadler–Hansmann estimate `≈ 2(k−1)²/p̄` exchange attempts for
//! a `k`-rung ladder at mean acceptance `p̄`. The candidate search dry-runs
//! the configured plan's one-axis neighbourhood (rung count, pilot size,
//! pairing), ranked against `--target-round-trip` (or makespan).
//!
//! Rule catalog (see DESIGN.md §14):
//!
//! | code | severity | concern |
//! |------|----------|---------|
//! | P001 | error    | ladder starved: predicted mean acceptance below the exchangeable floor |
//! | P010 | error    | predicted cost (core·seconds) exceeds the stated budget |
//! | P101 | warning  | predicted core utilization below the efficiency floor |
//! | P102 | warning  | predicted round-trip time exceeds the campaign makespan |
//! | P103 | info     | the candidate search found a better plan than the configured one |
//!
//! `tests/it_plan.rs` holds the dry run equal to `repex run` (DESIGN.md
//! §14 states what "equal" means per regime).

use crate::rules::acceptance;
use exchange::multidim::ParamGrid;
use exchange::pairing::PairingStrategy;
use obs::diag::{has_errors, sort_by_severity};
use obs::json::{Encode, Value};
use obs::json_fields;
use obs::{Diagnostic, ACCEPTANCE_BAND};
use repex::config::{DimensionConfig, Pattern, SimulationConfig, Workload};
use repex::simulation::RemdSimulation;

/// P101 fires below this predicted utilization (percent).
const MIN_UTILIZATION_PERCENT: f64 = 50.0;

/// Tunables for [`plan_config`].
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Desired per-replica round-trip time in seconds; candidates are
    /// ranked by distance to it when set (otherwise by makespan).
    pub target_round_trip: Option<f64>,
    /// Campaign budget in core·seconds; P010 fires when the predicted
    /// cost exceeds it.
    pub budget_core_seconds: Option<f64>,
    /// Run the deterministic candidate search.
    pub search: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { target_round_trip: None, budget_core_seconds: None, search: true }
    }
}

/// Predicted cost of running a configuration to completion: what its dry
/// run measured.
#[derive(Debug, Clone)]
pub struct CostPrediction {
    /// `"synchronous"` or `"asynchronous"`.
    pub pattern: String,
    /// Paper execution mode: 1 when the pilot covers all replicas.
    pub execution_mode: u8,
    pub n_replicas: usize,
    pub pilot_cores: usize,
    /// Mean Eq. 1 decomposition of one cycle; `None` for the asynchronous
    /// pattern, which runs no cycles.
    pub cycle: Option<obs::CycleBreakdown>,
    /// `makespan / n_cycles`: what one exchange cycle costs in wall
    /// seconds, for the round trip in seconds.
    pub cycle_seconds: f64,
    pub makespan_seconds: f64,
    /// MD core·seconds over allocated core·seconds, in percent.
    pub utilization_percent: f64,
    /// Allocated cost: `pilot_cores × makespan`.
    pub core_seconds: f64,
    pub failed_tasks: u64,
    pub relaunched_tasks: u64,
}

impl Encode for CostPrediction {
    fn encode(&self) -> Value {
        json_fields!(self; pattern, execution_mode, n_replicas, pilot_cores, cycle, cycle_seconds, makespan_seconds, utilization_percent, core_seconds, failed_tasks, relaunched_tasks)
    }
}

/// Predicted exchange quality of one ladder dimension.
#[derive(Debug, Clone)]
pub struct LadderPrediction {
    pub dim: usize,
    pub kind: char,
    pub rungs: usize,
    /// Adjacent-pair acceptance proxies (energy-histogram overlaps);
    /// empty for non-temperature dimensions, where the equipartition
    /// model does not apply.
    pub pair_acceptance: Vec<f64>,
    pub mean_acceptance: Option<f64>,
    pub min_acceptance: Option<f64>,
    /// Nadler–Hansmann diffusive round-trip estimate, in cycles.
    pub round_trip_cycles: Option<f64>,
    /// Round-trip estimate in wall seconds (`cycles × Tc`).
    pub round_trip_seconds: Option<f64>,
}

impl Encode for LadderPrediction {
    fn encode(&self) -> Value {
        json_fields!(self; dim, kind, rungs, pair_acceptance, mean_acceptance, min_acceptance, round_trip_cycles, round_trip_seconds)
    }
}

/// One point of the deterministic candidate search.
#[derive(Debug, Clone)]
pub struct CandidatePlan {
    pub label: String,
    /// Replicas after the ladder tweak.
    pub n_replicas: usize,
    pub cores: usize,
    pub execution_mode: u8,
    pub pairing: String,
    pub makespan_seconds: f64,
    pub utilization_percent: f64,
    pub core_seconds: f64,
    /// Worst (minimum) per-dimension predicted mean acceptance.
    pub mean_acceptance: Option<f64>,
    /// Slowest per-dimension round-trip estimate in seconds.
    pub round_trip_seconds: Option<f64>,
    /// All temperature ladders clear the acceptance floor.
    pub feasible: bool,
    /// Ranking key: distance to the round-trip target, or makespan.
    pub score: f64,
    /// This candidate is the configured plan itself.
    pub configured: bool,
}

impl Encode for CandidatePlan {
    fn encode(&self) -> Value {
        json_fields!(self; label, n_replicas, cores, execution_mode, pairing, makespan_seconds, utilization_percent, core_seconds, mean_acceptance, round_trip_seconds, feasible, score, configured)
    }
}

/// Everything `repex plan` reports for a structurally valid configuration.
#[derive(Debug, Clone)]
pub struct PlanReport {
    pub title: String,
    pub cost: CostPrediction,
    pub ladders: Vec<LadderPrediction>,
    /// Ranked best-first; empty when the search is disabled.
    pub candidates: Vec<CandidatePlan>,
}

impl Encode for PlanReport {
    fn encode(&self) -> Value {
        json_fields!(self; title, cost, ladders, candidates)
    }
}

/// Result of planning: the report (when the config is structurally sound)
/// plus diagnostics in the shared C/P code families, sorted most-severe
/// first.
#[derive(Debug)]
pub struct PlanOutcome {
    pub report: Option<PlanReport>,
    pub diagnostics: Vec<Diagnostic>,
}

/// Price a configuration by its dry run: a clone with `surrogate-steps` 0,
/// no progress line and the simulated backend, run to completion with no
/// recorder, checkpoint or telemetry. It integrates the vacuum dipeptide
/// with `cost-atoms` pinned to the configured count and skips
/// `minimize-first`, so a solvated campaign builds no water box. None of
/// these enters the virtual clock, so the numbers are those of the
/// campaign the config describes, at its seed.
pub fn predict_cost(cfg: &SimulationConfig) -> Result<CostPrediction, String> {
    let mut dry = cfg.clone();
    dry.cost_atoms = Some(cfg.model_atoms());
    dry.workload = Some(Workload::DipeptideVacuum);
    dry.minimize_first = false;
    dry.surrogate_steps = 0;
    dry.progress_every = 0;
    dry.resource.backend = "simulated".into();
    let run = RemdSimulation::new(dry)?.run()?;
    let sync = matches!(cfg.pattern, Pattern::Synchronous);
    Ok(CostPrediction {
        pattern: if sync { "synchronous" } else { "asynchronous" }.into(),
        execution_mode: run.execution_mode,
        n_replicas: run.n_replicas,
        pilot_cores: run.pilot_cores,
        cycle: sync.then(|| run.average_timing()),
        cycle_seconds: run.makespan / cfg.n_cycles as f64,
        makespan_seconds: run.makespan,
        utilization_percent: run.utilization_percent,
        core_seconds: run.pilot_cores as f64 * run.makespan,
        failed_tasks: run.failed_tasks,
        relaunched_tasks: run.relaunched_tasks,
    })
}

/// Round-trip slowdown of the pairing pattern relative to the
/// neighbor-alternating baseline: random disjoint pairs attempt a given
/// adjacent swap less often on long ladders (and more often on trivial
/// ones).
fn pairing_round_trip_factor(pairing: PairingStrategy, rungs: usize) -> f64 {
    match pairing {
        PairingStrategy::NeighborAlternating => 1.0,
        PairingStrategy::Random => ((rungs.saturating_sub(1)) as f64 / 2.0).max(0.5),
    }
}

/// Fill a ladder's round trip for `cfg`'s pairing at `cycle_seconds` a
/// cycle — the cheap half of a prediction, redone per candidate while the
/// overlaps are computed once per ladder.
fn time_ladder(l: &mut LadderPrediction, cfg: &SimulationConfig, cycle_seconds: f64) {
    let cycles = l.mean_acceptance.filter(|&mean| !cfg.no_exchange && mean > 0.0).map(|mean| {
        2.0 * ((l.rungs - 1) as f64).powi(2) / mean
            * pairing_round_trip_factor(cfg.pairing, l.rungs)
    });
    l.round_trip_cycles = cycles;
    l.round_trip_seconds = cycles.map(|c| c * cycle_seconds);
}

/// Predict acceptance and round-trip time per ladder dimension.
pub fn predict_ladders(
    cfg: &SimulationConfig,
    grid: &ParamGrid,
    cycle_seconds: f64,
) -> Vec<LadderPrediction> {
    let atoms = cfg.workload.clone().unwrap_or(Workload::DipeptideVacuum).real_atoms();
    grid.dims
        .iter()
        .enumerate()
        .map(|(d, dim)| {
            let kind = dim.kind_letter();
            let rungs = dim.len();
            let mut l = LadderPrediction {
                dim: d,
                kind,
                rungs,
                pair_acceptance: Vec::new(),
                mean_acceptance: None,
                min_acceptance: None,
                round_trip_cycles: None,
                round_trip_seconds: None,
            };
            if kind == 'T' && rungs >= 2 {
                let temps: Vec<f64> =
                    dim.ladder.iter().map(exchange::param::ExchangeParam::scalar).collect();
                let overlaps = acceptance::predicted_overlaps(&temps, atoms);
                l.mean_acceptance = Some(overlaps.iter().sum::<f64>() / overlaps.len() as f64);
                l.min_acceptance = Some(overlaps.iter().copied().fold(f64::INFINITY, f64::min));
                l.pair_acceptance = overlaps;
                time_ladder(&mut l, cfg, cycle_seconds);
            }
            l
        })
        .collect()
}

/// Predicted core·seconds for an already-validated configuration — the
/// admission-control entry point (`svc` charges this up front).
pub fn predicted_core_seconds(cfg: &SimulationConfig) -> Result<f64, String> {
    predict_cost(cfg).map(|c| c.core_seconds)
}

/// Largest `|z|` the simulator's noise can draw: the polar method's
/// `|z| = |u|·√(−2 ln s / s) ≤ √(−2 ln s)`, and on 53-bit uniforms
/// `s ≥ 2⁻¹⁰⁴`, so `|z| ≤ √(208 ln 2) ≈ 12.01`.
const MAX_NORMAL_DRAW: f64 = 12.1;

/// A lower bound on [`predicted_core_seconds`] that runs nothing, for
/// admission to refuse a campaign far over its budget before its dry run
/// (DESIGN.md §14). It counts what the virtual clock cannot skip: each
/// replica's `n-cycles` completed MD segments at the lowest noise draw,
/// spread over the pilot, and a synchronous cycle's serialized overheads.
/// A failed asynchronous segment reruns; a failed synchronous one may not,
/// so a synchronous campaign that injects failures counts its overheads only.
/// An invalid config (say, a slowdown below 1) has no floor: `Err`.
pub fn core_seconds_floor(cfg: &SimulationConfig) -> Result<f64, String> {
    cfg.validate()?;
    let grid = cfg.build_grid()?;
    let (n, cores, cluster) = (grid.n_slots(), cfg.pilot_cores()? as f64, cfg.cluster()?);
    let perf = hpc::PerfModel::default();
    let segment =
        cfg.md_segment_seconds(&perf, &cluster) * (-MAX_NORMAL_DRAW * perf.noise.md_sigma).exp();
    let md_area = segment * cores.max((n * cfg.resource.cores_per_replica) as f64);
    let per_cycle = match cfg.pattern {
        Pattern::Asynchronous { .. } => md_area,
        Pattern::Synchronous => {
            let overheads = perf.overhead.repex_seconds(grid.n_dims(), n)
                + perf.overhead.rp_seconds(n, &cluster);
            let fails = cfg.fault_mtbf_seconds.is_some()
                || matches!(cfg.scenario, Some(hpc::Scenario::FailureStorm { .. }));
            cores * overheads + if fails { 0.0 } else { md_area }
        }
    };
    Ok(cfg.n_cycles as f64 * per_cycle)
}

/// The configured plan's neighbourhood, one axis at a time:
///
/// * the other rung counts in `count−2..=count+2` (single-T ladders only);
/// * the other pilot sizes: Mode I, then `⌈n/2⌉`, `⌈n/3⌉` and `⌈n/4⌉` slots;
/// * the other pairing (single-T ladders only).
///
/// Keys are deduplicated before anything runs, the configured plan reuses
/// `cost` and `ladders`, and only a new rung count computes overlaps.
fn search_candidates(
    cfg: &SimulationConfig,
    opts: &PlanOptions,
    cost: &CostPrediction,
    ladders: &[LadderPrediction],
) -> Vec<CandidatePlan> {
    let single_t = cfg.dimensions.len() == 1
        && matches!(cfg.dimensions[0], DimensionConfig::Temperature { .. });
    // (candidate, whether its ladder differs from the configured one)
    let mut variants: Vec<(SimulationConfig, bool)> = Vec::new();
    if single_t {
        let count = cfg.dimensions[0].count();
        for k in (count.saturating_sub(2).max(2)..=count + 2).filter(|&k| k != count) {
            let mut cand = cfg.clone();
            if let DimensionConfig::Temperature { count, .. } = &mut cand.dimensions[0] {
                *count = k;
            }
            variants.push((cand, true));
        }
    }
    let (n, cpr) = (cost.n_replicas, cfg.resource.cores_per_replica.max(1));
    let mode_ii = [2usize, 3, 4].map(|w| cpr * n.div_ceil(w)).into_iter().filter(|&c| c < n * cpr);
    for cores in std::iter::once(None).chain(mode_ii.map(Some)) {
        let mut cand = cfg.clone();
        cand.resource.cores = cores;
        variants.push((cand, false));
    }
    if single_t {
        let mut cand = cfg.clone();
        cand.pairing = match cfg.pairing {
            PairingStrategy::NeighborAlternating => PairingStrategy::Random,
            PairingStrategy::Random => PairingStrategy::NeighborAlternating,
        };
        variants.push((cand, false));
    }

    let mut seen = vec![(n, cost.pilot_cores, cfg.pairing)];
    variants.retain(|(cand, _)| {
        let (Ok(()), Ok(n), Ok(pilot), Ok(cluster)) =
            (cand.validate(), cand.n_replicas(), cand.pilot_cores(), cand.cluster())
        else {
            return false;
        };
        let key = (n, pilot, cand.pairing);
        let fresh = pilot <= cluster.total_cores() && !seen.contains(&key);
        if fresh {
            seen.push(key);
        }
        fresh
    });
    let price = |(cand, new_ladder): &(SimulationConfig, bool)| {
        let cost = predict_cost(cand).ok()?;
        let ladders = if *new_ladder {
            predict_ladders(cand, &cand.build_grid().ok()?, cost.cycle_seconds)
        } else {
            let mut same = ladders.to_vec();
            same.iter_mut().for_each(|l| time_ladder(l, cand, cost.cycle_seconds));
            same
        };
        Some(candidate(cand, &cost, &ladders, opts, false))
    };
    let price = &price;
    let mut out = vec![candidate(cfg, cost, ladders, opts, true)];
    // Two dry runs at a time: one wide run already keeps more than a core
    // busy, so more would only queue.
    std::thread::scope(|s| {
        for pair in variants.chunks(2) {
            let running: Vec<_> = pair.iter().map(|v| s.spawn(move || price(v))).collect();
            for run in running {
                out.extend(run.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)));
            }
        }
    });
    out.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then(a.score.total_cmp(&b.score))
            .then(a.makespan_seconds.total_cmp(&b.makespan_seconds))
            .then(a.cores.cmp(&b.cores))
    });
    out
}

fn candidate(
    cfg: &SimulationConfig,
    cost: &CostPrediction,
    ladders: &[LadderPrediction],
    opts: &PlanOptions,
    configured: bool,
) -> CandidatePlan {
    let mean_acceptance = ladders.iter().filter_map(|l| l.mean_acceptance).reduce(f64::min);
    let round_trip_seconds = ladders.iter().filter_map(|l| l.round_trip_seconds).reduce(f64::max);
    let score = match opts.target_round_trip {
        Some(t) => round_trip_seconds.map_or(f64::INFINITY, |r| (r - t).abs()),
        None => cost.makespan_seconds,
    };
    CandidatePlan {
        label: format!(
            "{} replicas on {} cores (mode {}), {} pairing",
            cost.n_replicas,
            cost.pilot_cores,
            cost.execution_mode,
            cfg.pairing.name(),
        ),
        n_replicas: cost.n_replicas,
        cores: cost.pilot_cores,
        execution_mode: cost.execution_mode,
        pairing: cfg.pairing.name().into(),
        makespan_seconds: cost.makespan_seconds,
        utilization_percent: cost.utilization_percent,
        core_seconds: cost.core_seconds,
        mean_acceptance,
        round_trip_seconds,
        feasible: mean_acceptance.is_none_or(|a| a >= *ACCEPTANCE_BAND.start()),
        score,
        configured,
    }
}

/// Plan a configuration: structural validation first, then the dry run,
/// the acceptance predictions and P-family gates, then (optionally) the
/// candidate search. Mirrors [`crate::lint_config`]'s contract: structural
/// errors short-circuit, a dry run that fails is a `C002` error, and
/// diagnostics come back sorted most-severe first.
pub fn plan_config(cfg: &SimulationConfig, opts: &PlanOptions) -> PlanOutcome {
    let mut diags = cfg.validate_diagnostics();
    if has_errors(&diags) {
        sort_by_severity(&mut diags);
        return PlanOutcome { report: None, diagnostics: diags };
    }
    let (grid, cost) = match cfg.build_grid().and_then(|g| Ok((g, predict_cost(cfg)?))) {
        Ok(priced) => priced,
        Err(e) => {
            diags.push(Diagnostic::error("C002", e));
            return PlanOutcome { report: None, diagnostics: diags };
        }
    };
    let ladders = predict_ladders(cfg, &grid, cost.cycle_seconds);

    for l in &ladders {
        if cfg.no_exchange {
            break;
        }
        if let Some(mean) = l.mean_acceptance {
            if mean < *ACCEPTANCE_BAND.start() {
                diags.push(
                    Diagnostic::error(
                        "P001",
                        format!(
                            "ladder starved: dimension {} ({} rungs) predicts mean acceptance \
                             ≈{mean:.3} < {}; the campaign would burn its allocation without \
                             exchanging",
                            l.dim,
                            l.rungs,
                            *ACCEPTANCE_BAND.start(),
                        ),
                    )
                    .with_path(format!("/dimensions/{}", l.dim))
                    .with_hint("densify the ladder (or let `repex plan` search one)"),
                );
            }
        }
        if let Some(rt) = l.round_trip_seconds {
            if rt > cost.makespan_seconds {
                diags.push(
                    Diagnostic::warning(
                        "P102",
                        format!(
                            "dimension {}: predicted round trip ≈{:.0} s exceeds the campaign \
                             makespan ≈{:.0} s — no replica completes a full ladder traversal",
                            l.dim, rt, cost.makespan_seconds,
                        ),
                    )
                    .with_path("/n-cycles")
                    .with_hint("raise n-cycles or densify the ladder"),
                );
            }
        }
    }
    if let Some(budget) = opts.budget_core_seconds {
        if cost.core_seconds > budget {
            diags.push(
                Diagnostic::error(
                    "P010",
                    format!(
                        "predicted cost ≈{:.0} core·s exceeds the budget of {budget:.0} core·s",
                        cost.core_seconds,
                    ),
                )
                .with_path("/resource/cores")
                .with_hint("shrink the ladder, cycles or pilot — or raise the budget"),
            );
        }
    }
    if cost.utilization_percent < MIN_UTILIZATION_PERCENT {
        diags.push(
            Diagnostic::warning(
                "P101",
                format!(
                    "predicted utilization ≈{:.1} % is below {:.0} %: overheads dominate the \
                     allocation",
                    cost.utilization_percent, MIN_UTILIZATION_PERCENT,
                ),
            )
            .with_path("/resource"),
        );
    }

    let candidates =
        if opts.search { search_candidates(cfg, opts, &cost, &ladders) } else { Vec::new() };
    let configured_score = candidates.iter().find(|c| c.configured).map(|c| c.score);
    if let (Some(best), Some(cfg_score)) = (candidates.first(), configured_score) {
        if !best.configured && best.feasible && best.score < cfg_score * 0.99 {
            diags.push(
                Diagnostic::info(
                    "P103",
                    format!(
                        "the search found a better plan: {} (score {:.1} vs configured {:.1})",
                        best.label, best.score, cfg_score,
                    ),
                )
                .with_path("/resource"),
            );
        }
    }
    sort_by_severity(&mut diags);
    PlanOutcome {
        report: Some(PlanReport { title: cfg.title.clone(), cost, ladders, candidates }),
        diagnostics: diags,
    }
}

impl PlanReport {
    /// Human-readable rendering (the `repex plan` default output).
    pub fn render_human(&self) -> String {
        use std::fmt::Write as _;
        let c = &self.cost;
        let mut s = String::new();
        let _ = writeln!(s, "plan: {}", self.title);
        let _ = writeln!(
            s,
            "  {} pattern, execution mode {}: {} replicas on {} cores",
            c.pattern,
            if c.execution_mode == 1 { "I" } else { "II" },
            c.n_replicas,
            c.pilot_cores,
        );
        if let Some(t) = &c.cycle {
            let _ = writeln!(
                s,
                "  Tc ≈ {:.2} s  (md {:.2} + ex {:.2} + data {:.2} + repex {:.2} + rp {:.2})",
                t.total(),
                t.t_md,
                t.t_ex_total(),
                t.t_data,
                t.t_repex_over,
                t.t_rp_over,
            );
        }
        let _ = writeln!(
            s,
            "  makespan ≈ {:.1} s, utilization ≈ {:.1} %, cost ≈ {:.0} core·s",
            c.makespan_seconds, c.utilization_percent, c.core_seconds,
        );
        if c.failed_tasks + c.relaunched_tasks > 0 {
            let _ =
                writeln!(s, "  failed tasks {}, relaunched {}", c.failed_tasks, c.relaunched_tasks);
        }
        for l in &self.ladders {
            match (l.mean_acceptance, l.round_trip_seconds) {
                (Some(mean), Some(rt)) => {
                    let _ = writeln!(
                        s,
                        "  ladder {}[{}]: {} rungs, mean acceptance ≈{:.3} (min {:.3}), \
                         round trip ≈ {:.0} cycles / {:.0} s",
                        l.kind,
                        l.dim,
                        l.rungs,
                        mean,
                        l.min_acceptance.unwrap_or(mean),
                        l.round_trip_cycles.unwrap_or(0.0),
                        rt,
                    );
                }
                (Some(mean), None) => {
                    let _ = writeln!(
                        s,
                        "  ladder {}[{}]: {} rungs, mean acceptance ≈{:.3} (exchange disabled)",
                        l.kind, l.dim, l.rungs, mean,
                    );
                }
                _ => {
                    let _ = writeln!(
                        s,
                        "  ladder {}[{}]: {} rungs (no static acceptance model)",
                        l.kind, l.dim, l.rungs,
                    );
                }
            }
        }
        if !self.candidates.is_empty() {
            let _ = writeln!(s, "  candidates (best first):");
            for (i, cand) in self.candidates.iter().take(5).enumerate() {
                let _ = writeln!(
                    s,
                    "    {}. {}{} — makespan {:.0} s, util {:.1} %, cost {:.0} core·s{}{}",
                    i + 1,
                    cand.label,
                    if cand.configured { " [configured]" } else { "" },
                    cand.makespan_seconds,
                    cand.utilization_percent,
                    cand.core_seconds,
                    cand.round_trip_seconds
                        .map_or(String::new(), |r| format!(", round trip {r:.0} s")),
                    if cand.feasible { "" } else { " [infeasible]" },
                );
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repex::config::SimulationConfig;

    fn plan(cfg: &SimulationConfig) -> PlanOutcome {
        plan_config(cfg, &PlanOptions::default())
    }

    #[test]
    fn ladder_prediction_reuses_the_l401_overlap_model() {
        let cfg = SimulationConfig::t_remd(8, 6000, 2);
        let out = plan(&cfg);
        let report = out.report.expect("valid config must produce a report");
        assert_eq!(report.ladders.len(), 1);
        let l = &report.ladders[0];
        assert_eq!(l.kind, 'T');
        assert_eq!(l.rungs, 8);
        assert_eq!(l.pair_acceptance.len(), 7);
        let temps: Vec<f64> = cfg.build_grid().unwrap().dims[0]
            .ladder
            .iter()
            .map(exchange::param::ExchangeParam::scalar)
            .collect();
        let atoms = Workload::DipeptideVacuum.real_atoms();
        let direct = acceptance::predicted_overlaps(&temps, atoms);
        assert_eq!(direct.len(), l.pair_acceptance.len());
        for (a, b) in direct.iter().zip(&l.pair_acceptance) {
            assert!((a - b).abs() < 1e-12, "planner must reuse the L401 model: {a} vs {b}");
        }
        let mean = l.mean_acceptance.unwrap();
        assert!(mean > 0.0 && mean <= 1.0);
        assert!(l.round_trip_cycles.unwrap() > 0.0);
    }

    #[test]
    fn starved_ladder_is_a_p001_error() {
        use repex::config::{DimensionConfig, Workload};
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.workload = Some(Workload::DipeptideSolvated { atoms: 30_000 });
        cfg.dimensions =
            vec![DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 }];
        let out = plan(&cfg);
        assert!(
            out.diagnostics.iter().any(|d| d.code == "P001"),
            "expected P001: {:?}",
            out.diagnostics
        );
        assert!(obs::diag::has_errors(&out.diagnostics));
    }

    #[test]
    fn over_budget_plan_is_a_p010_error() {
        let cfg = SimulationConfig::t_remd(16, 6000, 4);
        let opts = PlanOptions { budget_core_seconds: Some(100.0), ..PlanOptions::default() };
        let out = plan_config(&cfg, &opts);
        assert!(out.diagnostics.iter().any(|d| d.code == "P010"), "{:?}", out.diagnostics);
        // A generous budget admits the same plan.
        let opts = PlanOptions { budget_core_seconds: Some(1e9), ..PlanOptions::default() };
        let out = plan_config(&cfg, &opts);
        assert!(!out.diagnostics.iter().any(|d| d.code == "P010"));
    }

    #[test]
    fn overhead_dominated_plan_warns_p101() {
        // 60-step segments: ~1.4 s of MD against ~4 s of fixed overheads.
        let cfg = SimulationConfig::t_remd(16, 60, 2);
        let out = plan(&cfg);
        assert!(out.diagnostics.iter().any(|d| d.code == "P101"), "{:?}", out.diagnostics);
    }

    #[test]
    fn short_campaign_warns_p102_round_trip() {
        // 2 cycles cannot cover a ~450-cycle predicted round trip.
        let cfg = SimulationConfig::t_remd(16, 6000, 2);
        let out = plan(&cfg);
        assert!(out.diagnostics.iter().any(|d| d.code == "P102"), "{:?}", out.diagnostics);
    }

    #[test]
    fn structural_errors_short_circuit_planning() {
        let mut cfg = SimulationConfig::t_remd(8, 600, 2);
        cfg.steps_per_cycle = 0;
        let out = plan(&cfg);
        assert!(out.report.is_none());
        assert!(out.diagnostics.iter().any(|d| d.code == "C020"));
        assert!(!out.diagnostics.iter().any(|d| d.code.starts_with('P')));
    }

    #[test]
    fn search_prefers_mode_i_without_a_target_and_flags_p103() {
        let mut cfg = SimulationConfig::t_remd(16, 6000, 2);
        cfg.resource.cores = Some(4); // configured Mode II, 4 waves
        let out = plan(&cfg);
        let report = out.report.unwrap();
        assert!(!report.candidates.is_empty());
        let best = &report.candidates[0];
        assert!(best.feasible);
        let configured = report
            .candidates
            .iter()
            .find(|c| c.configured)
            .expect("configured plan must appear in the search");
        assert!(best.makespan_seconds <= configured.makespan_seconds);
        assert_eq!(best.execution_mode, 1, "Mode I minimizes makespan: {best:?}");
        assert!(
            out.diagnostics.iter().any(|d| d.code == "P103"),
            "search should beat a 4-wave plan: {:?}",
            out.diagnostics
        );
    }

    #[test]
    fn search_is_deterministic() {
        let cfg = SimulationConfig::t_remd(12, 6000, 2);
        let a = plan(&cfg).report.unwrap();
        let b = plan(&cfg).report.unwrap();
        let la: Vec<&String> = a.candidates.iter().map(|c| &c.label).collect();
        let lb: Vec<&String> = b.candidates.iter().map(|c| &c.label).collect();
        assert_eq!(la, lb);
        assert!((a.cost.makespan_seconds - b.cost.makespan_seconds).abs() < 1e-12);
    }

    #[test]
    fn target_round_trip_reranks_candidates() {
        let cfg = SimulationConfig::t_remd(12, 6000, 50);
        let no_target = plan_config(&cfg, &PlanOptions::default());
        let rt = no_target.report.unwrap().ladders[0].round_trip_seconds.unwrap();
        // Ask for a round trip twice as slow as predicted: a sparser or
        // random-paired ladder should win over the configured one.
        let opts = PlanOptions { target_round_trip: Some(rt * 4.0), ..PlanOptions::default() };
        let out = plan_config(&cfg, &opts);
        let report = out.report.unwrap();
        let best = &report.candidates[0];
        let best_dist = best.score;
        for c in &report.candidates {
            if c.feasible {
                assert!(
                    best_dist <= c.score + 1e-9,
                    "ranking violated: {best_dist} vs {}",
                    c.score
                );
            }
        }
    }

    #[test]
    fn render_human_mentions_the_key_numbers() {
        let cfg = SimulationConfig::t_remd(8, 6000, 2);
        let report = plan(&cfg).report.unwrap();
        let text = report.render_human();
        assert!(text.contains("makespan"), "{text}");
        assert!(text.contains("ladder T[0]"), "{text}");
        assert!(text.contains("candidates"), "{text}");
    }

    #[test]
    fn report_serializes_to_json() {
        let cfg = SimulationConfig::t_remd(8, 6000, 2);
        let report = plan(&cfg).report.unwrap();
        let v = report.encode();
        assert!(v["cost"]["makespan_seconds"].as_f64().unwrap() > 0.0);
        assert!(v["ladders"][0]["mean_acceptance"].as_f64().unwrap() > 0.0);
        assert!(v["candidates"].as_array().unwrap().len() > 1);
    }

    #[test]
    fn predicted_core_seconds_matches_the_full_report() {
        let cfg = SimulationConfig::t_remd(8, 6000, 2);
        let direct = predicted_core_seconds(&cfg).unwrap();
        let report = plan(&cfg).report.unwrap();
        assert!((direct - report.cost.core_seconds).abs() < 1e-9);
    }

    #[test]
    fn search_moves_one_axis_at_a_time_and_runs_each_key_once() {
        let mut cfg = SimulationConfig::t_remd(16, 6000, 2);
        cfg.resource.cores = Some(8);
        let report = plan(&cfg).report.unwrap();
        let c = &report.candidates;
        let axes = |p: &CandidatePlan| {
            [p.n_replicas != 16, p.cores != 8, p.pairing != cfg.pairing.name()]
                .iter()
                .filter(|&&moved| moved)
                .count()
        };
        assert_eq!(c.iter().filter(|p| p.configured).count(), 1);
        assert!(c.iter().all(|p| axes(p) == usize::from(!p.configured)), "{c:#?}");
        // 4 other rung counts, Mode I + ⌈16/3⌉ + ⌈16/4⌉ slots (⌈16/2⌉ is
        // the configured pilot), the other pairing, and the configured plan.
        assert_eq!(c.len(), 4 + 3 + 1 + 1, "{c:#?}");
        let mut keys: Vec<_> = c.iter().map(|p| (p.n_replicas, p.cores, &p.pairing)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), c.len());
    }

    #[test]
    fn an_async_plan_reports_its_makespan_without_a_tc_block() {
        let mut cfg = SimulationConfig::t_remd(8, 6000, 3);
        cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        let report = plan(&cfg).report.unwrap();
        assert_eq!(report.cost.pattern, "asynchronous");
        assert!(report.cost.cycle.is_none());
        assert!((report.cost.cycle_seconds * 3.0 - report.cost.makespan_seconds).abs() < 1e-9);
        let text = report.render_human();
        assert!(text.contains("makespan") && !text.contains("Tc"), "{text}");
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use repex::config::{DimensionConfig, SimulationConfig, Workload};

    fn mean_acceptance(min_k: f64, max_k: f64, count: usize, atoms: usize) -> f64 {
        let mut cfg = SimulationConfig::t_remd(count, 600, 1);
        cfg.workload = Some(Workload::DipeptideSolvated { atoms });
        cfg.dimensions = vec![DimensionConfig::Temperature { min_k, max_k, count }];
        let grid = cfg.build_grid().expect("grid");
        let ladders = predict_ladders(&cfg, &grid, 1.0);
        ladders[0].mean_acceptance.expect("T ladder")
    }

    /// Widening a ladder's temperature span never increases predicted
    /// acceptance (up to histogram-bin jitter).
    #[test]
    fn wider_spacing_never_raises_acceptance() {
        rng::check(64, |r| {
            let (count, atoms) = (r.range(3usize..10), r.range(50usize..5000));
            let (max1, widen) = (r.range(320.0..450.0), r.range(10.0..150.0));
            let narrow = mean_acceptance(273.0, max1, count, atoms);
            let wide = mean_acceptance(273.0, max1 + widen, count, atoms);
            assert!(
                wide <= narrow + 0.02,
                "wider ladder predicted higher acceptance: {wide} > {narrow}"
            );
        });
    }

    /// Adding rungs over a fixed span never decreases predicted
    /// acceptance (up to histogram-bin jitter).
    #[test]
    fn denser_ladder_never_loses_acceptance() {
        rng::check(64, |r| {
            let (count, atoms) = (r.range(3usize..9), r.range(50usize..5000));
            let max_k = r.range(320.0..450.0);
            let sparse = mean_acceptance(273.0, max_k, count, atoms);
            let dense = mean_acceptance(273.0, max_k, count + 2, atoms);
            assert!(
                dense >= sparse - 0.02,
                "denser ladder predicted lower acceptance: {dense} < {sparse}"
            );
        });
    }
}
