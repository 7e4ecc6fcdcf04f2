//! Integration tests for the paper's Section 5 extensions that are built:
//! pH exchange, the GROMACS engine and GPU replicas. The fourth,
//! multi-resource execution, is not built (DESIGN.md §6).

use integration::quick_tremd;
use repex::config::{DimensionConfig, EngineChoice, SimulationConfig};
use repex::simulation::RemdSimulation;

#[test]
fn ph_remd_runs_and_exchanges() {
    let mut cfg = quick_tremd(8, 4);
    cfg.title = "pH-REMD".into();
    cfg.dimensions = vec![DimensionConfig::Ph { min_ph: 3.0, max_ph: 10.0, count: 8 }];
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.acceptance[0].0, 'P');
    assert!(report.acceptance[0].1.attempts > 0);
    assert!(report.acceptance[0].1.accepted > 0, "pH exchange must accept on the reduced model");
}

#[test]
fn ph_keyword_flows_through_amber_input_files() {
    use repex::simulation::build_ctx;
    let mut cfg = quick_tremd(4, 1);
    cfg.dimensions = vec![DimensionConfig::Ph { min_ph: 4.0, max_ph: 8.0, count: 4 }];
    let mut ctx = build_ctx(cfg).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    let mdin = ctx.pilot.staging.get_text("r00000_c0000.mdin").unwrap();
    let ctl = mdsim::io::mdin::MdinControl::parse(&mdin).unwrap();
    assert!((ctl.solvph - 4.0).abs() < 1e-9, "slot 0 holds pH 4: {}", ctl.solvph);
    let mdin3 = ctx.pilot.staging.get_text("r00003_c0000.mdin").unwrap();
    let ctl3 = mdsim::io::mdin::MdinControl::parse(&mdin3).unwrap();
    assert!((ctl3.solvph - 8.0).abs() < 1e-9);
}

#[test]
fn mixed_t_and_ph_dimensions() {
    // 2-D T×pH REMD: both dimensions exchange.
    let mut cfg = quick_tremd(4, 3);
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 280.0, max_k: 360.0, count: 4 },
        DimensionConfig::Ph { min_ph: 4.0, max_ph: 9.0, count: 4 },
    ];
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.n_replicas, 16);
    let letters: String = report.acceptance.iter().map(|(l, _)| *l).collect();
    assert_eq!(letters, "TP");
    assert!(report.acceptance.iter().all(|(_, a)| a.attempts > 0));
}

#[test]
fn gromacs_engine_end_to_end() {
    use repex::simulation::build_ctx;
    let mut cfg = quick_tremd(6, 2);
    cfg.engine = EngineChoice::Gromacs;
    let mut ctx = build_ctx(cfg).unwrap();
    repex::emm::sync::run_sync(&mut ctx).unwrap();
    // GROMACS-native files staged.
    let mdp = ctx.pilot.staging.get_text("r00002_c0001.mdp").unwrap();
    assert!(mdp.contains("integrator          = sd"));
    assert!(ctx.pilot.staging.contains("r00002_c0001.gro"));
    assert!(ctx.ledger.dims()[0].attempts > 0);
    for r in &ctx.replicas {
        assert_eq!(r.segments_done, 2);
    }
}

#[test]
fn gpu_replicas_shrink_md_time() {
    let run = |gpu: bool| {
        let mut cfg = quick_tremd(8, 1);
        cfg.cost_atoms = Some(64_366);
        cfg.steps_per_cycle = 20_000;
        cfg.resource.use_gpu = gpu;
        RemdSimulation::new(cfg).unwrap().run().unwrap().average_timing().t_md
    };
    let cpu = run(false);
    let gpu = run(true);
    assert!(gpu < cpu / 20.0, "pmemd.cuda ~28x sander: {cpu} vs {gpu}");
}

#[test]
fn gpu_config_constraints() {
    let mut cfg = quick_tremd(4, 1);
    cfg.resource.use_gpu = true;
    cfg.resource.cores_per_replica = 16;
    assert!(cfg.validate().is_err(), "GPU binding is one GPU per replica");

    let mut cfg = quick_tremd(4, 1);
    cfg.resource.use_gpu = true;
    cfg.engine = EngineChoice::Namd;
    assert!(cfg.validate().is_err(), "GPU currently Amber-only");
}

#[test]
fn config_file_with_ph_and_gromacs() {
    let text = r#"{
        "title": "pH-REMD via GROMACS from a file",
        "engine": "gromacs",
        "pattern": "synchronous",
        "dimensions": [
            {"type": "ph", "min-ph": 3.5, "max-ph": 9.5, "count": 6}
        ],
        "steps-per-cycle": 600,
        "n-cycles": 2,
        "surrogate-steps": 8
    }"#;
    let cfg = SimulationConfig::from_json(text).unwrap();
    assert_eq!(cfg.engine, EngineChoice::Gromacs);
    let report = RemdSimulation::new(cfg).unwrap().run().unwrap();
    assert_eq!(report.acceptance[0].0, 'P');
}
