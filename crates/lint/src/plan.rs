//! P0xx/P1xx — the predictive campaign planner behind `repex plan`.
//!
//! Everything here is *static*: the planner re-derives the paper's Eq. 1
//! cycle-time decomposition
//!
//! `Tc = T_sim + T_exchange + T_data + T_RP-over + T_RepEx-over`
//!
//! from the same calibrated models (`hpc::perfmodel`) the virtual cluster
//! charges at run time, without executing a single task:
//!
//! * **Makespan / utilization** — Mode I runs every replica in one wave;
//!   Mode II packs `n` replicas onto `floor(cores / cores-per-replica)`
//!   slots in `ceil(n / slots)` waves and pays RP 0.35's per-core
//!   scheduling tax (Fig. 11b). Expected relaunch inflation comes from the
//!   configured [`hpc::FaultModel`] hazard in closed form
//!   ([`hpc::FaultModel::expected_relaunch_inflation`]), and straggler /
//!   heterogeneous-node scenarios inflate each wave by the expected
//!   worst-of-wave slowdown.
//! * **Acceptance / round trip** — per-dimension acceptance is predicted
//!   from the equipartition energy-overlap model shared with L401
//!   ([`crate::rules::acceptance::predicted_overlaps`]); round-trip time
//!   uses the Nadler–Hansmann diffusive estimate `≈ 2(k−1)²/p̄` exchange
//!   attempts for a `k`-rung ladder at mean acceptance `p̄`.
//! * **Candidate search** — a deterministic sweep over ladder rung counts,
//!   pilot core counts (execution mode) and pairing patterns, ranked
//!   against `--target-round-trip` (or makespan when no target is given).
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
//! The predictions are cross-validated against the discrete-event simulator
//! in `tests/it_plan.rs`; the tolerances stated in DESIGN.md §14 are
//! enforced there.

use crate::rules::acceptance;
use exchange::multidim::ParamGrid;
use exchange::pairing::PairingStrategy;
use hpc::fault::{FaultModel, HazardModel};
use hpc::perfmodel::{ExchangeKind, PerfModel};
use hpc::{ClusterSpec, Scenario};
use obs::diag::{has_errors, sort_by_severity};
use obs::json::{Encode, Value};
use obs::json_fields;
use obs::{Diagnostic, ACCEPTANCE_BAND};
use repex::config::{DimensionConfig, FaultPolicy, Pattern, SimulationConfig, Workload};

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

/// Eq. 1 components of one cycle, in modeled wall seconds.
#[derive(Debug, Clone, Copy)]
pub struct CycleBreakdown {
    /// Simulation phase: `dims × waves × md`, inflated by relaunches and
    /// scenario stragglers.
    pub t_md: f64,
    /// Exchange phase across all dimensions (S-exchange wave-packed).
    pub t_exchange: f64,
    /// Data staging across all dimensions.
    pub t_data: f64,
    /// RP agent overhead (per-dimension launch cost + Mode II per-core
    /// scheduling tax).
    pub t_rp_over: f64,
    /// RepEx bookkeeping overhead.
    pub t_repex_over: f64,
    /// Asynchronous pattern only: expected wait for the next exchange tick.
    pub t_tick_wait: f64,
}

impl Encode for CycleBreakdown {
    fn encode(&self) -> Value {
        json_fields!(self; t_md, t_exchange, t_data, t_rp_over, t_repex_over, t_tick_wait)
    }
}

impl CycleBreakdown {
    /// Predicted `Tc`: the sum of all components.
    pub fn total(&self) -> f64 {
        self.t_md
            + self.t_exchange
            + self.t_data
            + self.t_rp_over
            + self.t_repex_over
            + self.t_tick_wait
    }
}

/// Predicted cost of running a configuration to completion.
#[derive(Debug, Clone)]
pub struct CostPrediction {
    /// `"synchronous"` or `"asynchronous"`.
    pub pattern: String,
    /// Paper execution mode: 1 when the pilot covers all replicas.
    pub execution_mode: u8,
    pub n_replicas: usize,
    pub pilot_cores: usize,
    /// MD waves per dimension sweep (1 in Mode I).
    pub waves: usize,
    /// Modeled seconds of one MD segment (no inflation).
    pub md_segment_seconds: f64,
    /// Expected wall-time multiplier from relaunch-on-failure.
    pub relaunch_inflation: f64,
    /// Expected per-wave multiplier from straggler/heterogeneous scenarios.
    pub scenario_inflation: f64,
    pub cycle: CycleBreakdown,
    /// Predicted `Tc` (one cycle).
    pub cycle_seconds: f64,
    /// Predicted campaign makespan (`n_cycles × Tc`).
    pub makespan_seconds: f64,
    /// Predicted core utilization in percent (MD core·seconds over
    /// allocated core·seconds).
    pub utilization_percent: f64,
    /// Allocated cost: `pilot_cores × makespan`.
    pub core_seconds: f64,
}

impl Encode for CostPrediction {
    fn encode(&self) -> Value {
        json_fields!(self; pattern, execution_mode, n_replicas, pilot_cores, waves, md_segment_seconds, relaunch_inflation, scenario_inflation, cycle, cycle_seconds, makespan_seconds, utilization_percent, core_seconds)
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

/// The mean-rate failure model the plan runs under (scenario storms are
/// averaged over their duty cycle).
fn mean_fault_model(cfg: &SimulationConfig) -> FaultModel {
    let base =
        cfg.fault_mtbf_seconds.and_then(|m| FaultModel::new(m).ok()).unwrap_or(FaultModel::NONE);
    match &cfg.scenario {
        Some(sc) => sc.hazard(base).map_or(base, |h| h.mean_model()),
        None => HazardModel::Constant(base).mean_model(),
    }
}

/// Expected worst-of-wave MD slowdown from straggler-style scenarios: with
/// per-replica slow probability `f` and slowdown `s`, a wave of `m`
/// replicas finishes `s×` late whenever at least one member is slow.
fn scenario_md_inflation(scenario: Option<&Scenario>, wave_size: usize) -> f64 {
    match scenario {
        Some(Scenario::HeterogeneousNodes { slow_fraction, slowdown }) => {
            1.0 + (slowdown - 1.0) * (1.0 - (1.0 - slow_fraction).powi(wave_size as i32))
        }
        Some(Scenario::Stragglers { fraction, slowdown }) => {
            1.0 + (slowdown - 1.0) * (1.0 - (1.0 - fraction).powi(wave_size as i32))
        }
        _ => 1.0,
    }
}

/// Mean (not worst-of-wave) MD duration multiplier — what the successful
/// tasks actually charge, used for the utilization numerator.
fn scenario_mean_factor(scenario: Option<&Scenario>) -> f64 {
    match scenario {
        Some(Scenario::HeterogeneousNodes { slow_fraction, slowdown }) => {
            1.0 + (slowdown - 1.0) * slow_fraction
        }
        Some(Scenario::Stragglers { fraction, slowdown }) => 1.0 + (slowdown - 1.0) * fraction,
        _ => 1.0,
    }
}

/// Predict the Eq. 1 cost of a structurally valid configuration. This is
/// the static twin of one `run_one_cycle` charge sequence, multiplied out
/// to `n_cycles`.
pub fn predict_cost(
    cfg: &SimulationConfig,
    grid: &ParamGrid,
    cluster: &ClusterSpec,
    perf: &PerfModel,
    pilot_cores: usize,
) -> CostPrediction {
    let n = grid.n_slots();
    let dims = grid.n_dims();
    let cpr = cfg.resource.cores_per_replica.max(1);
    let md = cfg.md_segment_seconds(perf, cluster);

    let slots = (pilot_cores / cpr).max(1);
    let wave_size = slots.min(n.max(1));
    let waves = n.max(1).div_ceil(wave_size);
    let mode2 = pilot_cores < n * cpr;

    let fault = mean_fault_model(cfg);
    let relaunch_inflation = match cfg.fault_policy {
        FaultPolicy::Relaunch { max_retries } => {
            fault.expected_relaunch_inflation(md, Some(max_retries))
        }
        FaultPolicy::Continue => 1.0,
    };
    let success_fraction = match cfg.fault_policy {
        FaultPolicy::Continue => 1.0 - fault.failure_probability(md),
        FaultPolicy::Relaunch { .. } => 1.0,
    };
    let scenario_inflation = scenario_md_inflation(cfg.scenario.as_ref(), wave_size);
    let md_infl = relaunch_inflation * scenario_inflation;

    let cycle = match cfg.pattern {
        Pattern::Synchronous => {
            let t_md = dims as f64 * waves as f64 * md * md_infl;
            let t_repex_over = perf.overhead.repex_seconds(dims, n);
            let mut t_rp_over = dims as f64 * perf.overhead.rp_seconds(n, cluster);
            if mode2 {
                t_rp_over += perf.overhead.mode2_sched_per_core * pilot_cores as f64;
            }
            let mut t_data = 0.0;
            let mut t_exchange = 0.0;
            // An empty dimension (letter '?') stages and exchanges nothing.
            for dim in &grid.dims {
                let Some(kind) = ExchangeKind::from_letter(dim.kind_letter()) else { continue };
                t_data += perf.data.data_seconds(kind, n, cluster);
                if !cfg.no_exchange {
                    t_exchange += match kind {
                        ExchangeKind::Salt => {
                            perf.exchange.salt_wall_seconds(n, pilot_cores, dim.len())
                        }
                        _ => perf.exchange.exchange_seconds(kind, n),
                    };
                }
            }
            CycleBreakdown { t_md, t_exchange, t_data, t_rp_over, t_repex_over, t_tick_wait: 0.0 }
        }
        Pattern::Asynchronous { tick_fraction } => {
            // The asynchronous driver charges no RP/data/bookkeeping
            // overheads; replicas cycle back-to-back, quantized to the
            // exchange tick. Throughput is bounded by the pilot when it
            // cannot hold every replica.
            let tick = tick_fraction * md;
            let throughput_bound = n as f64 * md * cpr as f64 / pilot_cores as f64;
            let t_md = md.max(throughput_bound) * md_infl;
            let kind = grid.dims.first().and_then(|d| ExchangeKind::from_letter(d.kind_letter()));
            let t_exchange = match kind {
                Some(kind) if !cfg.no_exchange => perf.exchange.exchange_seconds(kind, n),
                _ => 0.0,
            };
            CycleBreakdown {
                t_md,
                t_exchange,
                t_data: 0.0,
                t_rp_over: 0.0,
                t_repex_over: 0.0,
                t_tick_wait: tick / 2.0,
            }
        }
    };

    let cycle_seconds = cycle.total();
    let makespan_seconds = cfg.n_cycles as f64 * cycle_seconds;
    let md_core_seconds = dims as f64
        * n as f64
        * md
        * cpr as f64
        * cfg.n_cycles as f64
        * success_fraction
        * scenario_mean_factor(cfg.scenario.as_ref());
    let denom = pilot_cores as f64 * makespan_seconds;
    let utilization_percent =
        if denom > 0.0 { (md_core_seconds / denom * 100.0).min(100.0) } else { 0.0 };

    CostPrediction {
        pattern: match cfg.pattern {
            Pattern::Synchronous => "synchronous".into(),
            Pattern::Asynchronous { .. } => "asynchronous".into(),
        },
        execution_mode: if mode2 { 2 } else { 1 },
        n_replicas: n,
        pilot_cores,
        waves,
        md_segment_seconds: md,
        relaunch_inflation,
        scenario_inflation,
        cycle,
        cycle_seconds,
        makespan_seconds,
        utilization_percent,
        core_seconds: pilot_cores as f64 * makespan_seconds,
    }
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
            if kind != 'T' || rungs < 2 {
                return LadderPrediction {
                    dim: d,
                    kind,
                    rungs,
                    pair_acceptance: Vec::new(),
                    mean_acceptance: None,
                    min_acceptance: None,
                    round_trip_cycles: None,
                    round_trip_seconds: None,
                };
            }
            let temps: Vec<f64> =
                dim.ladder.iter().map(exchange::param::ExchangeParam::scalar).collect();
            let overlaps = acceptance::predicted_overlaps(&temps, atoms);
            let mean = overlaps.iter().sum::<f64>() / overlaps.len() as f64;
            let min = overlaps.iter().copied().fold(f64::INFINITY, f64::min);
            let (rt_cycles, rt_seconds) = if cfg.no_exchange || mean <= 0.0 {
                (None, None)
            } else {
                let cycles = 2.0 * ((rungs - 1) as f64).powi(2) / mean
                    * pairing_round_trip_factor(cfg.pairing, rungs);
                (Some(cycles), Some(cycles * cycle_seconds))
            };
            LadderPrediction {
                dim: d,
                kind,
                rungs,
                pair_acceptance: overlaps,
                mean_acceptance: Some(mean),
                min_acceptance: Some(min),
                round_trip_cycles: rt_cycles,
                round_trip_seconds: rt_seconds,
            }
        })
        .collect()
}

/// Predicted core·seconds for an already-validated configuration — the
/// admission-control entry point (`svc` charges this up front).
pub fn predicted_core_seconds(cfg: &SimulationConfig) -> Result<f64, String> {
    let grid = cfg.build_grid()?;
    let cluster = cfg.cluster()?;
    let pilot_cores = cfg.pilot_cores()?;
    let perf = PerfModel::default();
    Ok(predict_cost(cfg, &grid, &cluster, &perf, pilot_cores).core_seconds)
}

struct CandidateKey {
    rungs: Option<usize>,
    cores: Option<usize>,
    pairing: PairingStrategy,
}

/// Deterministic sweep over ladder rung counts, pilot cores and pairing.
fn search_candidates(
    cfg: &SimulationConfig,
    opts: &PlanOptions,
    configured_score_out: &mut Option<f64>,
) -> Vec<CandidatePlan> {
    let single_t = cfg.dimensions.len() == 1
        && matches!(cfg.dimensions[0], DimensionConfig::Temperature { .. });
    let rung_opts: Vec<Option<usize>> = if single_t {
        let count = cfg.dimensions[0].count();
        (count.saturating_sub(2).max(2)..=count + 2).map(Some).collect()
    } else {
        vec![None]
    };
    let pairings: Vec<PairingStrategy> = if single_t {
        vec![PairingStrategy::NeighborAlternating, PairingStrategy::Random]
    } else {
        vec![cfg.pairing]
    };

    let mut seen: Vec<(usize, usize, &'static str)> = Vec::new();
    let mut out = Vec::new();
    for rungs in &rung_opts {
        let mut base = cfg.clone();
        if let (Some(k), DimensionConfig::Temperature { count, .. }) =
            (rungs, &mut base.dimensions[0])
        {
            *count = *k;
        }
        let Ok(n) = base.n_replicas() else { continue };
        let cpr = base.resource.cores_per_replica.max(1);
        let mut cores_opts: Vec<Option<usize>> = vec![None]; // Mode I
        for w in [2usize, 3, 4] {
            let c = cpr * n.div_ceil(w);
            if c < n * cpr {
                cores_opts.push(Some(c));
            }
        }
        if cfg.resource.cores.is_some() {
            cores_opts.push(cfg.resource.cores);
        }
        for cores in &cores_opts {
            for pairing in &pairings {
                let key = CandidateKey { rungs: *rungs, cores: *cores, pairing: *pairing };
                if let Some(c) = evaluate_candidate(cfg, &base, &key, n, opts) {
                    let id = (c.n_replicas, c.cores, pairing.name());
                    if seen.contains(&id) {
                        continue;
                    }
                    seen.push(id);
                    if c.configured {
                        *configured_score_out = Some(c.score);
                    }
                    out.push(c);
                }
            }
        }
    }
    out.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then(a.score.total_cmp(&b.score))
            .then(a.makespan_seconds.total_cmp(&b.makespan_seconds))
            .then(a.cores.cmp(&b.cores))
    });
    out
}

fn evaluate_candidate(
    original: &SimulationConfig,
    base: &SimulationConfig,
    key: &CandidateKey,
    n: usize,
    opts: &PlanOptions,
) -> Option<CandidatePlan> {
    let mut cand = base.clone();
    cand.resource.cores = key.cores;
    cand.pairing = key.pairing;
    if cand.validate().is_err() {
        return None;
    }
    let grid = cand.build_grid().ok()?;
    let cluster = cand.cluster().ok()?;
    let pilot_cores = cand.pilot_cores().ok()?;
    if pilot_cores > cluster.total_cores() {
        return None;
    }
    let perf = PerfModel::default();
    let cost = predict_cost(&cand, &grid, &cluster, &perf, pilot_cores);
    let ladders = predict_ladders(&cand, &grid, cost.cycle_seconds);
    let mean_acceptance = ladders
        .iter()
        .filter_map(|l| l.mean_acceptance)
        .fold(None, |worst: Option<f64>, a| Some(worst.map_or(a, |w| w.min(a))));
    let round_trip_seconds = ladders
        .iter()
        .filter_map(|l| l.round_trip_seconds)
        .fold(None, |slowest: Option<f64>, r| Some(slowest.map_or(r, |s| s.max(r))));
    let feasible = mean_acceptance.is_none_or(|a| a >= *ACCEPTANCE_BAND.start());
    let score = match opts.target_round_trip {
        Some(t) => round_trip_seconds.map_or(f64::INFINITY, |r| (r - t).abs()),
        None => cost.makespan_seconds,
    };
    let configured = key
        .rungs
        .is_none_or(|k| original.dimensions.len() == 1 && original.dimensions[0].count() == k)
        && cand.resource.cores == original.resource.cores
        && cand.pairing == original.pairing;
    Some(CandidatePlan {
        label: format!(
            "{} replicas on {} cores (mode {}), {} pairing",
            n,
            pilot_cores,
            cost.execution_mode,
            key.pairing.name(),
        ),
        n_replicas: n,
        cores: pilot_cores,
        execution_mode: cost.execution_mode,
        pairing: key.pairing.name().into(),
        makespan_seconds: cost.makespan_seconds,
        utilization_percent: cost.utilization_percent,
        core_seconds: cost.core_seconds,
        mean_acceptance,
        round_trip_seconds,
        feasible,
        score,
        configured,
    })
}

/// Plan a configuration: structural validation first, then the cost /
/// acceptance predictions and P-family gates, then (optionally) the
/// candidate search. Mirrors [`crate::lint_config`]'s contract: structural
/// errors short-circuit, diagnostics come back sorted most-severe first.
pub fn plan_config(cfg: &SimulationConfig, opts: &PlanOptions) -> PlanOutcome {
    let mut diags = cfg.validate_diagnostics();
    if has_errors(&diags) {
        sort_by_severity(&mut diags);
        return PlanOutcome { report: None, diagnostics: diags };
    }
    let (grid, cluster, pilot_cores) = match (cfg.build_grid(), cfg.cluster(), cfg.pilot_cores()) {
        (Ok(g), Ok(c), Ok(p)) => (g, c, p),
        (Err(e), ..) | (_, Err(e), _) | (.., Err(e)) => {
            diags.push(Diagnostic::error("C002", e));
            return PlanOutcome { report: None, diagnostics: diags };
        }
    };
    let perf = PerfModel::default();
    let cost = predict_cost(cfg, &grid, &cluster, &perf, pilot_cores);
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

    let mut configured_score = None;
    let candidates =
        if opts.search { search_candidates(cfg, opts, &mut configured_score) } else { Vec::new() };
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
            "  {} pattern, execution mode {}: {} replicas on {} cores ({} wave{})",
            c.pattern,
            if c.execution_mode == 1 { "I" } else { "II" },
            c.n_replicas,
            c.pilot_cores,
            c.waves,
            if c.waves == 1 { "" } else { "s" },
        );
        let _ = writeln!(
            s,
            "  Tc ≈ {:.2} s  (md {:.2} + ex {:.2} + data {:.2} + rp {:.2} + repex {:.2} + tick {:.2})",
            c.cycle_seconds,
            c.cycle.t_md,
            c.cycle.t_exchange,
            c.cycle.t_data,
            c.cycle.t_rp_over,
            c.cycle.t_repex_over,
            c.cycle.t_tick_wait,
        );
        let _ = writeln!(
            s,
            "  makespan ≈ {:.1} s, utilization ≈ {:.1} %, cost ≈ {:.0} core·s",
            c.makespan_seconds, c.utilization_percent, c.core_seconds,
        );
        if (c.relaunch_inflation - 1.0).abs() > 1e-9 || (c.scenario_inflation - 1.0).abs() > 1e-9 {
            let _ = writeln!(
                s,
                "  md inflation: relaunch ×{:.3}, scenario ×{:.3}",
                c.relaunch_inflation, c.scenario_inflation,
            );
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

    fn cost_of(cfg: &SimulationConfig) -> CostPrediction {
        let grid = cfg.build_grid().unwrap();
        let cluster = cfg.cluster().unwrap();
        let pilot = cfg.pilot_cores().unwrap();
        predict_cost(cfg, &grid, &cluster, &PerfModel::default(), pilot)
    }

    #[test]
    fn mode_i_cost_matches_hand_computed_eq1() {
        let cfg = SimulationConfig::t_remd(16, 6000, 4);
        let c = cost_of(&cfg);
        let perf = PerfModel::default();
        let cluster = cfg.cluster().unwrap();
        let md = cfg.md_segment_seconds(&perf, &cluster);
        assert_eq!(c.execution_mode, 1);
        assert_eq!(c.waves, 1);
        assert!((c.cycle.t_md - md).abs() < 1e-9);
        assert!((c.cycle.t_repex_over - perf.overhead.repex_seconds(1, 16)).abs() < 1e-9);
        assert!((c.cycle.t_rp_over - perf.overhead.rp_seconds(16, &cluster)).abs() < 1e-9);
        assert!(
            (c.cycle.t_exchange - perf.exchange.exchange_seconds(ExchangeKind::Temperature, 16))
                .abs()
                < 1e-9
        );
        assert!(
            (c.cycle.t_data - perf.data.data_seconds(ExchangeKind::Temperature, 16, &cluster))
                .abs()
                < 1e-9
        );
        assert!((c.makespan_seconds - 4.0 * c.cycle_seconds).abs() < 1e-9);
        assert!((c.core_seconds - 16.0 * c.makespan_seconds).abs() < 1e-6);
        // ~139.6 s of MD in a ~143.7 s cycle.
        assert!(c.utilization_percent > 90.0 && c.utilization_percent < 100.0);
    }

    #[test]
    fn mode_ii_waves_and_per_core_tax() {
        let mut cfg = SimulationConfig::t_remd(16, 6000, 4);
        cfg.resource.cores = Some(8);
        let c = cost_of(&cfg);
        assert_eq!(c.execution_mode, 2);
        assert_eq!(c.waves, 2);
        assert!((c.cycle.t_md - 2.0 * c.md_segment_seconds).abs() < 1e-9);
        let perf = PerfModel::default();
        let cluster = cfg.cluster().unwrap();
        let expected_rp =
            perf.overhead.rp_seconds(16, &cluster) + perf.overhead.mode2_sched_per_core * 8.0;
        assert!((c.cycle.t_rp_over - expected_rp).abs() < 1e-9);
    }

    #[test]
    fn more_cores_never_slow_the_md_phase() {
        let base = SimulationConfig::t_remd(16, 6000, 2);
        let mut prev = f64::INFINITY;
        for cores in [4usize, 6, 8, 12, 16] {
            let mut cfg = base.clone();
            cfg.resource.cores = Some(cores);
            let t_md = cost_of(&cfg).cycle.t_md;
            assert!(t_md <= prev + 1e-9, "t_md grew with cores: {t_md} > {prev}");
            prev = t_md;
        }
    }

    #[test]
    fn mode_i_is_the_makespan_floor() {
        let base = SimulationConfig::t_remd(16, 6000, 2);
        let mode_i = cost_of(&base).makespan_seconds;
        for cores in [4usize, 5, 8, 11, 15] {
            let mut cfg = base.clone();
            cfg.resource.cores = Some(cores);
            let m = cost_of(&cfg).makespan_seconds;
            assert!(mode_i <= m + 1e-9, "Mode I ({mode_i}) must not exceed {cores} cores ({m})");
        }
    }

    #[test]
    fn relaunch_policy_inflates_the_md_term() {
        use repex::config::FaultPolicy;
        let mut cfg = SimulationConfig::t_remd(8, 6000, 2);
        let clean = cost_of(&cfg);
        cfg.fault_mtbf_seconds = Some(2000.0);
        cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 3 };
        let faulty = cost_of(&cfg);
        assert!(faulty.relaunch_inflation > 1.0);
        assert!(faulty.cycle.t_md > clean.cycle.t_md);
        let expected = FaultModel::new(2000.0)
            .unwrap()
            .expected_relaunch_inflation(clean.md_segment_seconds, Some(3));
        assert!((faulty.relaunch_inflation - expected).abs() < 1e-12);
    }

    #[test]
    fn straggler_scenario_inflates_waves_but_not_per_task_mean() {
        let mut cfg = SimulationConfig::t_remd(8, 6000, 2);
        cfg.scenario = Some(Scenario::Stragglers { fraction: 0.2, slowdown: 3.0 });
        let c = cost_of(&cfg);
        assert!(c.scenario_inflation > 1.0 && c.scenario_inflation <= 3.0);
        // Worst-of-wave inflation must exceed the mean per-task factor.
        assert!(c.scenario_inflation > scenario_mean_factor(cfg.scenario.as_ref()));
    }

    #[test]
    fn async_model_counts_tick_waits_and_skips_overheads() {
        let mut cfg = SimulationConfig::t_remd(8, 6000, 4);
        cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
        let c = cost_of(&cfg);
        assert_eq!(c.pattern, "asynchronous");
        assert_eq!(c.cycle.t_rp_over, 0.0);
        assert_eq!(c.cycle.t_data, 0.0);
        assert_eq!(c.cycle.t_repex_over, 0.0);
        assert!((c.cycle.t_tick_wait - 0.25 * c.md_segment_seconds / 2.0).abs() < 1e-9);
        let expected = 4.0
            * (c.md_segment_seconds
                + c.cycle.t_tick_wait
                + PerfModel::default().exchange.exchange_seconds(ExchangeKind::Temperature, 8));
        assert!((c.makespan_seconds - expected).abs() < 1e-6);
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
}

#[cfg(test)]
mod properties {
    use super::*;
    use repex::config::{DimensionConfig, SimulationConfig, Workload};

    fn cost_with_cores(n: usize, steps: u64, cores: Option<usize>) -> CostPrediction {
        let mut cfg = SimulationConfig::t_remd(n, steps, 2);
        cfg.resource.cores = cores;
        let grid = cfg.build_grid().expect("grid");
        let cluster = cfg.cluster().expect("cluster");
        let pilot = cfg.pilot_cores().expect("pilot");
        predict_cost(&cfg, &grid, &cluster, &PerfModel::default(), pilot)
    }

    fn mean_acceptance(min_k: f64, max_k: f64, count: usize, atoms: usize) -> f64 {
        let mut cfg = SimulationConfig::t_remd(count, 600, 1);
        cfg.workload = Some(Workload::DipeptideSolvated { atoms });
        cfg.dimensions = vec![DimensionConfig::Temperature { min_k, max_k, count }];
        let grid = cfg.build_grid().expect("grid");
        let ladders = predict_ladders(&cfg, &grid, 1.0);
        ladders[0].mean_acceptance.expect("T ladder")
    }

    /// The MD phase (waves × segment) never slows down when cores are
    /// added. (The *full* makespan is deliberately not monotone: the
    /// Mode II per-core scheduling tax grows with the pilot — the
    /// paper's Fig. 11b dip — so the provable floor is Mode I.)
    #[test]
    fn md_phase_monotone_in_cores() {
        rng::check(64, |r| {
            let (n, steps) = (r.range(2usize..48), r.range(100u64..4000));
            let (c1, extra) = (r.range(1usize..48), r.range(1usize..48));
            let c2 = c1 + extra;
            let slow = cost_with_cores(n, steps, Some(c1.min(n)));
            let fast = cost_with_cores(n, steps, Some(c2.min(n)));
            assert!(fast.cycle.t_md <= slow.cycle.t_md + 1e-9);
        });
    }

    /// Mode I is the makespan floor over every Mode II core count.
    #[test]
    fn mode_i_never_loses() {
        rng::check(64, |r| {
            let (n, steps, cores) =
                (r.range(2usize..48), r.range(100u64..4000), r.range(1usize..48));
            let mode_i = cost_with_cores(n, steps, None);
            let other = cost_with_cores(n, steps, Some(cores.min(n)));
            assert!(mode_i.makespan_seconds <= other.makespan_seconds + 1e-9);
        });
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
