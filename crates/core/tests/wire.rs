//! The wire format of everything `repex` persists (DESIGN.md §11): each
//! type decodes what it encodes, the documents in the repository keep
//! reading, and a document of the wrong shape is refused by the pointer of
//! the offending value.
//!
//! No checkpoint written by the derive-based build this format was taken
//! over from (PR 19) exists in the repository, so the two fixtures under
//! `tests/data/` are what this codec wrote when it was introduced: they are
//! what the *next* change to it answers to.

use exchange::pairing::PairingStrategy;
use exchange::stats::AcceptanceStats;
use hpc::perfmodel::ExchangeKind;
use hpc::Scenario;
use obs::health::RoundTripTracker;
use obs::json::{self, Decode, Encode};
use obs::{Diagnostic, Severity};
use repex::checkpoint::{
    AsyncSchedulerState, CampaignCheckpoint, ReplicaCheckpoint, SchedulerState, CHECKPOINT_FILE,
};
use repex::config::{
    DimensionConfig, EngineChoice, FaultPolicy, Pattern, ResourceConfig, SimulationConfig, Workload,
};
use repex::report::CycleReport;
use repex::simulation::build_ctx;
use repex::timing::CycleTiming;
use std::fmt::Debug;
use std::path::{Path, PathBuf};

/// Through text, both writers: `decode(parse(encode(x))) == x`.
fn round_trip<T: Encode + Decode + PartialEq + Debug>(x: &T) {
    let v = x.encode();
    for text in [v.compact(), v.pretty()] {
        let back = json::from_str::<T>(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(&back, x, "{text}");
        assert_eq!(back.encode().compact(), v.compact(), "re-encoding is a fixed point");
    }
}

fn scenarios() -> [Scenario; 4] {
    [
        Scenario::FailureStorm {
            storm_mtbf_seconds: 50.0,
            period_seconds: 1000.0,
            storm_fraction: 0.2,
        },
        Scenario::HeterogeneousNodes { slow_fraction: 0.25, slowdown: 3.0 },
        Scenario::SlowFilesystem { latency_factor: 10.0, bandwidth_factor: 0.1 },
        Scenario::Stragglers { fraction: 1.0 / 3.0, slowdown: 2.5 },
    ]
}

/// A 2 × 2 × 2 T/S/U grid with nothing left at its default.
fn tsu_cfg() -> SimulationConfig {
    let mut cfg = SimulationConfig::t_remd(2, 600, 2);
    cfg.title = "wire: \"TSU\" \\ 3-D, é😀".into();
    cfg.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 1e3 / 3.0, count: 2 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 2 },
        DimensionConfig::Umbrella { dihedral: "phi".into(), count: 2, k_deg: 0.02 },
    ];
    cfg.surrogate_steps = 5;
    cfg.sample_stride = 2;
    cfg.seed = u64::MAX;
    cfg.workload = Some(Workload::DipeptideSolvated { atoms: 2881 });
    cfg.cost_atoms = None;
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 7 };
    cfg.fault_mtbf_seconds = Some(1e-7);
    cfg.async_min_ready = Some(2);
    cfg.pairing = PairingStrategy::Random;
    cfg.resource.cores = Some(4);
    cfg.resource.use_gpu = true;
    cfg
}

#[test]
fn every_persisted_type_decodes_what_it_encodes() {
    for x in [EngineChoice::Amber, EngineChoice::Namd, EngineChoice::Gromacs] {
        round_trip(&x);
    }
    for x in [Pattern::Synchronous, Pattern::Asynchronous { tick_fraction: 0.25 }] {
        round_trip(&x);
    }
    for x in [FaultPolicy::Continue, FaultPolicy::Relaunch { max_retries: u32::MAX }] {
        round_trip(&x);
    }
    for x in [Workload::DipeptideVacuum, Workload::DipeptideSolvated { atoms: 2881 }] {
        round_trip(&x);
    }
    for x in [
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 8 },
        DimensionConfig::TemperatureList { temps_k: vec![273.0, 1.0 / 3.0, 373.0] },
        DimensionConfig::Umbrella { dihedral: "psi".into(), count: 4, k_deg: 0.02 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
        DimensionConfig::Ph { min_ph: -1.5, max_ph: 10.0, count: 8 },
    ] {
        round_trip(&x);
    }
    round_trip(&ResourceConfig::default());
    round_trip(&SimulationConfig::t_remd(16, 1000, 2));
    for scenario in scenarios() {
        round_trip(&scenario);
        let mut cfg = tsu_cfg();
        cfg.scenario = Some(scenario);
        round_trip(&cfg);
    }
    for x in [PairingStrategy::NeighborAlternating, PairingStrategy::Random] {
        round_trip(&x);
    }
    for x in
        [ExchangeKind::Temperature, ExchangeKind::Umbrella, ExchangeKind::Salt, ExchangeKind::Ph]
    {
        round_trip(&x);
    }
    for x in [Severity::Info, Severity::Warning, Severity::Error] {
        round_trip(&x);
    }
    round_trip(&Diagnostic::info("L001", "nothing attached"));
    round_trip(
        &Diagnostic::error("C010", "zero rungs").with_path("/dimensions/0").with_hint("add"),
    );
    round_trip(&AcceptanceStats { attempts: u64::MAX, accepted: 0 });
    let mut tracker = RoundTripTracker::new(3, 4);
    for rung in [0, 3, 0] {
        tracker.record(1, rung);
    }
    assert!(tracker.encode().compact().contains("\"last_end\":[-1,0,-1]"), "-1 means no end yet");
    round_trip(&tracker);
    let timing = CycleTiming {
        t_md: 139.6,
        t_ex: vec![(ExchangeKind::Temperature, 10.0), (ExchangeKind::Salt, 0.1 + 0.2)],
        t_data: 2.0,
        t_repex_over: 1.0,
        t_rp_over: 3.0,
    };
    assert!(timing.encode().compact().contains(r#""t_ex":[["Temperature",10.0],["Salt","#));
    round_trip(&timing);
    round_trip(&CycleReport { cycle: 3, timing });
    round_trip(&ReplicaCheckpoint {
        id: 2,
        slot: 0,
        failures: 4,
        stale: true,
        restart: "title\n 7 1.5e0\n".into(),
    });
    let state = AsyncSchedulerState {
        next_tick: 12.5,
        exchange_rounds: 3,
        ready: vec![0, 2],
        in_flight: vec![(3, 0), (1, 2)],
        retry: vec![(1, 3)],
    };
    assert!(state.encode().compact().contains(r#""in-flight":[[3,0],[1,2]]"#));
    round_trip(&state);
    round_trip(&SchedulerState::Async(state));
    let sync = SchedulerState::Sync { cycles_done: 2 };
    assert_eq!(sync.encode().compact(), r#"{"sync":{"cycles_done":2}}"#, "what the derives wrote");
    round_trip(&sync);
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repex-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn checkpoints_survive_a_real_file() {
    // Synchronous, 3-D, `seed = u64::MAX`, a scenario, samples recorded.
    let mut cfg = tsu_cfg();
    cfg.async_min_ready = None;
    cfg.resource.use_gpu = false;
    cfg.workload = Some(Workload::DipeptideVacuum);
    cfg.scenario = Some(scenarios()[3]);
    let mut ctx = build_ctx(cfg).unwrap();
    ctx.record_samples_at(1, 0, &[(0.25, -0.5), (0.1 + 0.2, 1e-300)]);
    ctx.ledger.outcome(0, 0, 1, true);
    ctx.telemetry_seq = 9;
    let reports = [CycleReport { cycle: 0, timing: CycleTiming::default() }];
    let sync = CampaignCheckpoint::capture(&ctx, SchedulerState::Sync { cycles_done: 1 }, &reports);
    assert_eq!(sync.config.seed, u64::MAX);

    // Asynchronous, with work in flight and retries counted.
    let mut cfg = SimulationConfig::t_remd(4, 600, 3);
    cfg.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    cfg.surrogate_steps = 5;
    let ctx = build_ctx(cfg).unwrap();
    let state = AsyncSchedulerState {
        next_tick: 34.900000000000006,
        exchange_rounds: 2,
        ready: vec![1],
        in_flight: vec![(3, 0), (0, 1)],
        retry: vec![(0, 2)],
    };
    let asynchronous = CampaignCheckpoint::capture(&ctx, SchedulerState::Async(state), &[]);

    for (tag, cp) in [("sync", sync), ("async", asynchronous)] {
        let dir = tempdir(tag);
        cp.save(&dir).unwrap();
        let back = CampaignCheckpoint::load(&dir).unwrap();
        assert_eq!(back, cp, "{tag}");
        back.restore().unwrap_or_else(|e| panic!("{tag}: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

fn repo_file(relative: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").join(relative)
}

#[test]
fn the_example_configs_decode_validate_and_re_encode_to_a_fixed_point() {
    for name in ["tremd", "tsu", "mode2", "async", "ph"] {
        let path = repo_file(&format!("examples/configs/{name}.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let cfg = SimulationConfig::from_json(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        cfg.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
        let written = cfg.to_json();
        let again = SimulationConfig::from_json(&written).unwrap();
        assert_eq!(again, cfg, "{name}");
        assert_eq!(again.to_json(), written, "{name}: one encode reaches the fixed point");
    }
}

const HANDWRITTEN: &str = r#"{
  "title": "by hand",
  "engine": "amber",
  "pattern": "synchronous",
  "dimensions": [
    {"type": "temperature", "min-k": 273, "max-k": 373.0, "count": 8, "comment": "ignored"}
  ],
  "steps-per-cycle": 6000,
  "n-cycles": 4,
  "a-key-nobody-reads": {"nested": [1, 2]}
}"#;

#[test]
fn a_handwritten_config_takes_defaults_and_integer_tokens() {
    let cfg = SimulationConfig::from_json(HANDWRITTEN).unwrap();
    let DimensionConfig::Temperature { min_k, .. } = cfg.dimensions[0] else { panic!("{cfg:?}") };
    assert_eq!(min_k, 273.0, "an integer token is a number");
    assert_eq!(cfg.dt_ps, 0.002);
    assert_eq!(cfg.gamma_ps, 5.0);
    assert_eq!(cfg.base_temperature, 300.0);
    assert_eq!(cfg.surrogate_steps, 200);
    assert_eq!(cfg.pairing, PairingStrategy::NeighborAlternating);
    assert_eq!(cfg.fault_policy, FaultPolicy::Continue);
    assert_eq!((cfg.seed, cfg.workload.clone(), cfg.scenario), (0, None, None));
    assert_eq!(cfg.resource, ResourceConfig::default());
    cfg.validate().unwrap();
}

#[test]
fn a_document_of_the_wrong_shape_is_refused_by_pointer_and_position() {
    let refused = |from: &str, to: &str| {
        assert!(HANDWRITTEN.contains(from), "{from}");
        SimulationConfig::from_json(&HANDWRITTEN.replace(from, to)).unwrap_err()
    };
    let e = refused("\"count\": 8,", "\"count\": 8.5,");
    assert_eq!(e.pointer, "/dimensions/0/count");
    assert_eq!(e.message, "expected an unsigned integer, got 8.5");
    assert_eq!(e.position, Some((6, 68)), "{e}");
    assert_eq!(
        e.to_string(),
        "/dimensions/0/count: expected an unsigned integer, got 8.5 at line 6 column 68"
    );

    for (from, to, pointer, why) in [
        ("\"count\": 8,", "\"count\": -8,", "/dimensions/0/count", "out of range"),
        ("\"n-cycles\": 4,", "\"n-cycles\": 1e2,", "/n-cycles", "expected an unsigned integer"),
        ("\"n-cycles\": 4,", "\"n-cycles\": \"4\",", "/n-cycles", "got a string"),
        ("\"n-cycles\": 4,", "\"seed\": 1.0,\"n-cycles\": 4,", "/seed", "unsigned integer"),
        ("\"n-cycles\": 4,", "", "", "missing field `n-cycles`"),
        ("\"amber\"", "\"charmm\"", "/engine", "expected one of: amber, namd, gromacs"),
        ("\"temperature\"", "\"pressure\"", "/dimensions/0/type", "temperature-list, umbrella"),
        ("\"synchronous\"", "\"asynchronous\"", "/pattern", "needs an object with `tick-fraction`"),
        (
            "\"synchronous\"",
            "{\"asynchronous\": {\"tick-fraction\": true}}",
            "/pattern/asynchronous/tick-fraction",
            "expected a number, got true",
        ),
        ("\"synchronous\"", "{\"a\": 1, \"b\": 2}", "/pattern", "variant name or a single-key"),
        ("\"dimensions\": [", "\"dimensions\": [7,", "/dimensions/0", "expected an object, got 7"),
        ("\"title\": \"by hand\"", "\"title\": null", "/title", "expected a string, got null"),
    ] {
        let e = refused(from, to);
        assert_eq!(e.pointer, pointer, "{e}");
        assert!(e.message.contains(why), "{e}");
        assert_eq!(e.position.is_some(), !pointer.is_empty() || why.contains("missing"), "{e}");
    }
    let e = refused("\"n-cycles\": 4,", "\"n-cycles\": 4,\n  \"n-cycles\": 5,");
    assert!(e.message.contains("duplicate key \"n-cycles\""), "{e}");
    let e = SimulationConfig::from_json("{ not json").unwrap_err();
    assert_eq!((e.pointer.as_str(), e.position), ("", Some((1, 3))), "{e}");
}

/// `checkpoint-v1` is a campaign of `repex run --checkpoint --stop-after 2`
/// exactly as this codec wrote it; `checkpoint-v1-visits` is the same
/// document with the n × n `visits` matrix a pre-PR-13 build put inside
/// `round-trips`. Both must keep loading, to the same campaign.
#[test]
fn the_committed_v1_checkpoints_keep_loading() {
    let fixture = |name: &str| repo_file(&format!("crates/core/tests/data/{name}"));
    let v1 = CampaignCheckpoint::load(&fixture("checkpoint-v1")).unwrap();
    let with_visits = CampaignCheckpoint::load(&fixture("checkpoint-v1-visits")).unwrap();
    assert_eq!(with_visits, v1, "an unknown key changes nothing");

    assert_eq!(v1.version, 1);
    assert_eq!(v1.config.seed, u64::MAX);
    assert_eq!(v1.config.fault_policy, FaultPolicy::Relaunch { max_retries: 3 });
    assert_eq!(v1.config.scenario, Some(Scenario::Stragglers { fraction: 0.25, slowdown: 2.0 }));
    assert_eq!(v1.clock_seconds, 62.439301504401364);
    assert_eq!(v1.scheduler, SchedulerState::Sync { cycles_done: 2 });
    assert_eq!(v1.slot_owner, [0, 3, 1, 2]);
    assert_eq!(v1.acceptance, [AcceptanceStats { attempts: 3, accepted: 2 }]);
    // Replica 0 last seen at the bottom, replica 2 at the top, no trips.
    let mut tracker = RoundTripTracker::new(4, 4);
    tracker.record(0, 0);
    tracker.record(2, 3);
    assert_eq!(v1.round_trips, Some(tracker));
    assert_eq!(v1.cycle_reports.len(), 2);
    assert_eq!(v1.cycle_reports[1].timing.t_ex[0].0, ExchangeKind::Temperature);
    assert_eq!((v1.replicas.len(), v1.window_samples.len(), v1.telemetry_seq), (4, 4, 0));

    // Byte for byte what `save` writes today.
    let text = std::fs::read_to_string(fixture("checkpoint-v1").join(CHECKPOINT_FILE)).unwrap();
    assert_eq!(v1.encode().compact(), text);

    let ctx = v1.restore().unwrap();
    assert_eq!(ctx.completed_cycles, 2);
    assert!(ctx.replicas.iter().all(|r| r.segments_done == 2));
}
