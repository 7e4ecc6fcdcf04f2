//! Integration: the campaign planner (`lint::plan`) versus the run it
//! prices.
//!
//! The planner prices a campaign by its dry run: the same simulator at zero
//! MD steps. Virtual time is charged for `steps-per-cycle` whatever the
//! surrogate integrates, so the claims below are equalities wherever the
//! exchange outcomes do not move the schedule (DESIGN.md §14):
//!
//! | regime | claim | why |
//! |--------|-------|-----|
//! | Mode I makespan and utilization | bit for bit | one simulator, one seed |
//! | mode, replicas, cores, failed and relaunched tasks | equal | the same |
//! | Mode I fault and scenario campaigns | bit for bit | failures are drawn from the same seeded streams |
//! | Mode II makespan and utilization | 0.1 % relative | a wave's makeup follows exchange outcomes, which the surrogate's steps move |
//! | ladder mean acceptance | 0.25 absolute | energy-overlap proxy vs Metropolis sampling |
//!
//! The acceptance comparison is quantitative on moderately spaced ladders
//! and directional (ordering only) on extreme ones, where the equipartition
//! proxy and the anharmonic surrogate diverge the most.

use lint::plan::{plan_config, CostPrediction, PlanOptions, PlanReport};
use repex::config::{DimensionConfig, FaultPolicy, SimulationConfig, Workload};
use repex::simulation::RemdSimulation;
use repex::SimulationReport;

fn predict(cfg: &SimulationConfig) -> PlanReport {
    let opts = PlanOptions { search: false, ..PlanOptions::default() };
    let out = plan_config(cfg, &opts);
    out.report.unwrap_or_else(|| panic!("planner refused a runnable config: {:?}", out.diagnostics))
}

fn run(cfg: SimulationConfig) -> SimulationReport {
    RemdSimulation::new(cfg).unwrap().run().unwrap()
}

/// Bit for bit: the claim on a Mode I campaign.
const EXACT: f64 = 0.0;
/// A Mode II wave's makeup follows exchange outcomes, which the surrogate's
/// steps move: its makespan and utilization hold within this fraction.
const MODE_II: f64 = 1e-3;

/// The plan and the run agree on everything the plan prices: the counts
/// exactly, the times within `rel` of the run's.
fn assert_priced(what: &str, cost: &CostPrediction, run: &SimulationReport, rel: f64) {
    let near = |plan: f64, sim: f64| plan == sim || (plan - sim).abs() <= rel * sim.abs();
    let allocated = run.pilot_cores as f64 * run.makespan;
    assert!(
        near(cost.makespan_seconds, run.makespan)
            && near(cost.utilization_percent, run.utilization_percent)
            && near(cost.core_seconds, allocated),
        "{what}: plan vs run (rel {rel}): makespan {} vs {}, utilization {} vs {}, core·s {} vs \
         {allocated}",
        cost.makespan_seconds,
        run.makespan,
        cost.utilization_percent,
        run.utilization_percent,
        cost.core_seconds,
    );
    assert_eq!(
        (cost.execution_mode, cost.n_replicas, cost.pilot_cores),
        (run.execution_mode, run.n_replicas, run.pilot_cores),
        "{what}: (mode, replicas, cores) plan vs run"
    );
    assert_eq!(
        (cost.failed_tasks, cost.relaunched_tasks),
        (run.failed_tasks, run.relaunched_tasks),
        "{what}: (failed, relaunched) plan vs run"
    );
}

/// Every shipped example config. `surrogate-steps` is physics fidelity
/// only — it does not touch the virtual clock — so the runs stay fast.
#[test]
fn predicted_makespan_tracks_the_simulator_on_every_example_config() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/configs");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let mut cfg = SimulationConfig::from_json(&text).unwrap();
        cfg.surrogate_steps = 10;
        let cost = predict(&cfg).cost;
        let run = run(cfg);
        let rel = if run.execution_mode == 1 { EXACT } else { MODE_II };
        assert_priced(&format!("{path:?}"), &cost, &run, rel);
        checked += 1;
    }
    assert!(checked >= 5, "expected the shipped example configs, found {checked}");
}

/// Mode II: the wave count and the per-core scheduling tax are the
/// simulator's own, not modelled beside it.
#[test]
fn mode_ii_prediction_tracks_a_packed_pilot() {
    let mut cfg = SimulationConfig::t_remd(16, 6000, 3);
    cfg.surrogate_steps = 10;
    cfg.resource.cores = Some(8);
    let cost = predict(&cfg).cost;
    assert_eq!(cost.execution_mode, 2);
    assert_priced("16 replicas on 8 cores", &cost, &run(cfg), MODE_II);
}

/// Relaunch-on-failure: the dry run draws the same failures the run does,
/// so it prices the relaunches exactly, above the fault-free floor. In
/// Mode II, where a relaunched task re-enters a later wave, the counts
/// still agree and the times hold within 0.1 %.
#[test]
fn relaunch_inflation_prediction_brackets_the_simulated_makespan() {
    let mut cfg = SimulationConfig::t_remd(8, 6000, 4);
    cfg.surrogate_steps = 10;
    cfg.fault_mtbf_seconds = Some(1500.0);
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 3 };
    let cost = predict(&cfg).cost;
    assert!(cost.relaunched_tasks > 0, "MTBF 1500 s on 139.6 s tasks must relaunch some");

    let mut clean = cfg.clone();
    clean.fault_mtbf_seconds = None;
    clean.fault_policy = FaultPolicy::Continue;
    assert!(cost.makespan_seconds > predict(&clean).cost.makespan_seconds);
    assert_priced("relaunch", &cost, &run(cfg.clone()), EXACT);

    cfg.resource.cores = Some(4);
    let cost = predict(&cfg).cost;
    assert_eq!(cost.execution_mode, 2);
    assert!(cost.relaunched_tasks > 0);
    assert_priced("Mode II + relaunch", &cost, &run(cfg), MODE_II);
}

/// Straggler scenario: the barrier pays the worst of each wave the seeded
/// campaign draws.
#[test]
fn straggler_scenario_prediction_stays_within_tolerance() {
    let mut cfg = SimulationConfig::t_remd(8, 6000, 6);
    cfg.surrogate_steps = 10;
    cfg.scenario = Some(hpc::Scenario::Stragglers { fraction: 0.25, slowdown: 2.0 });
    let cost = predict(&cfg).cost;
    let mut nominal = cfg.clone();
    nominal.scenario = None;
    assert!(cost.makespan_seconds > predict(&nominal).cost.makespan_seconds);
    assert_priced("stragglers", &cost, &run(cfg), EXACT);
}

/// Failure storms under the `continue` policy do not stretch the barrier
/// (failed tasks just drop out): the loss shows in utilization.
#[test]
fn failure_storm_under_continue_keeps_makespan_and_costs_utilization() {
    let mut cfg = SimulationConfig::t_remd(8, 6000, 4);
    cfg.surrogate_steps = 10;
    cfg.scenario = Some(hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 200.0,
        period_seconds: 400.0,
        storm_fraction: 0.5,
    });
    let cost = predict(&cfg).cost;
    assert!(cost.failed_tasks > 0, "a 200 s-MTBF storm must kill some 139.6 s tasks");
    assert!(cost.utilization_percent < 100.0, "failures must show up in the utilization");
    assert_priced("storm under continue", &cost, &run(cfg), EXACT);
}

/// The dry run integrates the vacuum dipeptide whatever the workload, with
/// the configured atom count still charged to the virtual clock: a
/// solvated campaign is priced exactly, without building its water boxes.
#[test]
fn a_solvated_campaign_is_priced_without_its_water() {
    let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
    cfg.surrogate_steps = 5;
    cfg.workload = Some(Workload::DipeptideSolvated { atoms: 400 });
    cfg.cost_atoms = None;
    cfg.minimize_first = true;
    let cost = predict(&cfg).cost;
    assert_priced("solvated", &cost, &run(cfg), EXACT);
}

/// Quantitative acceptance cross-validation on a moderately spaced ladder:
/// the equipartition overlap proxy and the measured Metropolis rate agree
/// within the documented 0.25 absolute band, and both clear the
/// exchangeable floor.
#[test]
fn predicted_acceptance_tracks_measured_exchange_stats() {
    let mut cfg = SimulationConfig::t_remd(8, 600, 30);
    cfg.surrogate_steps = 40;
    let report = predict(&cfg);
    let predicted = report.ladders[0].mean_acceptance.unwrap();

    let run = run(cfg);
    let stats = &run.acceptance[0].1;
    assert!(stats.attempts >= 90, "30 cycles on 8 rungs must attempt plenty");
    let measured = stats.ratio();
    assert!(
        (predicted - measured).abs() <= 0.25,
        "predicted mean acceptance {predicted:.3} vs measured {measured:.3}"
    );
    assert!(predicted >= 0.05 && measured >= 0.05, "both must call the ladder exchangeable");
}

/// Directional acceptance check on an extreme ladder: whatever the absolute
/// offset, the planner must order ladders the same way the simulator does.
#[test]
fn predicted_acceptance_orders_ladders_like_the_simulator() {
    let run_ladder = |max_k: f64| {
        let mut cfg = SimulationConfig::t_remd(8, 600, 30);
        cfg.surrogate_steps = 40;
        cfg.dimensions = vec![DimensionConfig::Temperature { min_k: 250.0, max_k, count: 8 }];
        let predicted = predict(&cfg).ladders[0].mean_acceptance.unwrap();
        (predicted, run(cfg).acceptance[0].1.ratio())
    };
    let (p_narrow, m_narrow) = run_ladder(350.0);
    let (p_wide, m_wide) = run_ladder(900.0);
    assert!(
        p_narrow > p_wide,
        "planner must rank the narrow ladder higher: {p_narrow:.3} vs {p_wide:.3}"
    );
    assert!(
        m_narrow > m_wide - 0.02,
        "simulator must agree on the ordering: {m_narrow:.3} vs {m_wide:.3}"
    );
}

/// The admission floor, priced without running, never passes the dry
/// run's price: on every example, and on campaigns that relaunch, straggle,
/// fail under a storm, pack a Mode II pilot or exchange asynchronously
/// while failing.
#[test]
fn the_admission_floor_never_passes_the_price() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../examples/configs");
    let mut cfgs: Vec<(String, SimulationConfig)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|path| {
            let cfg = SimulationConfig::from_json(&std::fs::read_to_string(&path).unwrap());
            (format!("{path:?}"), cfg.unwrap())
        })
        .collect();
    let base = SimulationConfig::t_remd(8, 6000, 4);
    let mut relaunch = base.clone();
    relaunch.fault_mtbf_seconds = Some(1500.0);
    relaunch.fault_policy = FaultPolicy::Relaunch { max_retries: 3 };
    let mut packed = relaunch.clone();
    packed.resource.cores = Some(4);
    let mut stragglers = base.clone();
    stragglers.scenario = Some(hpc::Scenario::Stragglers { fraction: 0.25, slowdown: 2.0 });
    let mut storm = base.clone();
    storm.scenario = Some(hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 200.0,
        period_seconds: 400.0,
        storm_fraction: 0.5,
    });
    let mut failing_async = base.clone();
    failing_async.pattern = repex::config::Pattern::Asynchronous { tick_fraction: 0.25 };
    failing_async.fault_mtbf_seconds = Some(300.0);
    cfgs.extend(
        [
            ("relaunch", relaunch),
            ("Mode II + relaunch", packed),
            ("stragglers", stragglers),
            ("storm", storm),
            ("failing async", failing_async),
        ]
        .map(|(what, cfg)| (what.to_string(), cfg)),
    );
    for (what, mut cfg) in cfgs {
        cfg.surrogate_steps = 0;
        let floor = lint::plan::core_seconds_floor(&cfg).unwrap();
        let price = lint::plan::predicted_core_seconds(&cfg).unwrap();
        assert!(0.0 < floor && floor <= price, "{what}: floor {floor} vs price {price}");
    }
}

/// The admission-control entry point charges what the run allocates:
/// `pilot_cores × makespan`, to the bit.
#[test]
fn predicted_core_seconds_is_an_honest_admission_charge() {
    let mut cfg = SimulationConfig::t_remd(8, 6000, 3);
    cfg.surrogate_steps = 10;
    let direct = lint::plan::predicted_core_seconds(&cfg).unwrap();
    assert_eq!(direct, predict(&cfg).cost.core_seconds);
    let run = run(cfg);
    assert_eq!(direct, run.pilot_cores as f64 * run.makespan);
}
