//! The `repex` binary end to end on small campaigns: run → analyze, check
//! and plan on every shipped example, the plan budget gate, the plan's
//! silent dry run, stop → resume under a failure storm, and serve → submit
//! → status → results → metrics.
//! Each step goes through the built executable, so flag parsing, the files
//! it writes and its exit codes are under test together. What an in-process
//! test already asserts stays there; this file holds what only the binary
//! shows.

use obs::json::{self, Value};
use repex::config::{DimensionConfig, FaultPolicy, Pattern, SimulationConfig};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn repex(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repex")).args(args).output().expect("repex binary must spawn")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("repex must exit, not signal")
}

/// Run and require exit 0, showing stderr otherwise.
fn ok(args: &[&str]) -> Output {
    let out = repex(args);
    assert_eq!(code(&out), 0, "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    out
}

/// A fresh scratch directory for one test, emptied by its next run.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repex-workflows-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp scratch dir");
    dir
}

fn s(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

fn read_json(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

fn write_config(dir: &Path, name: &str, cfg: &SimulationConfig) -> PathBuf {
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, cfg.to_json()).expect("write config");
    path
}

fn example_configs() -> Vec<PathBuf> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("examples/configs")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected the shipped example configs, found {paths:?}");
    paths
}

fn codes(doc: &Value) -> Vec<&str> {
    doc["diagnostics"].as_array().unwrap_or(&[]).iter().filter_map(|d| d["code"].as_str()).collect()
}

/// What `analyze` reads back from a `run --trace` file agrees with the
/// run's own report and counters, for both patterns.
#[test]
fn a_traced_run_and_its_analysis_agree() {
    let dir = scratch("trace");
    for pattern in [Pattern::Synchronous, Pattern::Asynchronous { tick_fraction: 0.25 }] {
        let mut cfg = SimulationConfig::t_remd(4, 6000, 2);
        cfg.surrogate_steps = 10;
        cfg.pattern = pattern;
        let tag = if pattern == Pattern::Synchronous { "sync" } else { "async" };
        let config = write_config(&dir, tag, &cfg);
        let [report, trace, metrics, analysis] =
            ["report", "trace", "metrics", "analysis"].map(|k| dir.join(format!("{tag}-{k}.json")));
        ok(&[
            "run",
            s(&config),
            "--json",
            s(&report),
            "--trace",
            s(&trace),
            "--metrics",
            s(&metrics),
        ]);
        let analyzed = repex(&["analyze", s(&trace), "--json", s(&analysis)]);
        assert_eq!(code(&analyzed), 0, "{tag}: {}", String::from_utf8_lossy(&analyzed.stderr));
        let (report, metrics, a) = (read_json(&report), read_json(&metrics), read_json(&analysis));

        for key in ["events", "cycles", "breakdown_avg", "timeline", "critical_path"] {
            assert!(!a[key].is_null(), "{tag}: analysis lacks {key}");
        }
        assert_eq!(metrics["tasks.failed"].as_u64(), report["failed_tasks"].as_u64(), "{tag}");
        // Acceptance replayed from the trace file equals the exported counters.
        let health = &a["exchange_health"][0];
        assert_eq!(health["attempts"].as_u64(), metrics["exchange.T.attempts"].as_u64(), "{tag}");
        assert_eq!(health["accepted"].as_u64(), metrics["exchange.T.accepted"].as_u64(), "{tag}");
        if tag == "async" {
            // Its one exchange window holds slots {0, 2}, which cannot pair:
            // no outcome, and a warning that the ready replicas may not
            // have been adjacent, not an error.
            let a102 = a["diagnostics"].as_array().unwrap().iter().find(|d| d["code"] == "A102");
            assert!(a102.is_some_and(|d| d["severity"] == "warning"), "{}", a["diagnostics"]);
        }
        if tag == "sync" {
            assert!(metrics["exchange.T.attempts"].as_u64().is_some_and(|n| n > 0), "{metrics}");
            let cycles = report["cycles"].as_array().map(<[Value]>::len);
            assert_eq!(a["cycles"]["count"].as_u64().map(|n| n as usize), cycles);
            assert!(a["cycles"]["tc"]["p50"].as_f64().is_some_and(|p| p > 0.0), "{a}");
            let drift = a["critical_path"]["max_path_vs_eq1_drift"].as_f64();
            assert!(drift.is_some_and(|d| d < 1e-9), "Eq. 1 drift {drift:?}");
            assert_eq!(a["round_trips"].as_u64(), metrics["exchange.round_trips_total"].as_u64());
        }
    }
}

/// Every shipped example lints clean, and `plan` prices it: a finite cost,
/// a utilization in (0, 100] and a ladder prediction per dimension.
#[test]
fn every_example_config_checks_and_plans_clean() {
    let dir = scratch("examples");
    for config in example_configs() {
        let name = config.file_stem().and_then(|n| n.to_str()).expect("file name");
        let diag = dir.join(format!("{name}.diag.json"));
        ok(&["check", s(&config), "--json", s(&diag)]);
        assert_eq!(read_json(&diag)["summary"]["errors"].as_u64(), Some(0), "{name}");

        let plan_path = dir.join(format!("{name}.plan.json"));
        ok(&["plan", s(&config), "--target-round-trip", "3600", "--json", s(&plan_path)]);
        let doc = read_json(&plan_path);
        let cost = &doc["plan"]["cost"];
        let makespan = cost["makespan_seconds"].as_f64().unwrap_or(f64::NAN);
        assert!(makespan.is_finite() && makespan > 0.0, "{name}: {cost}");
        let util = cost["utilization_percent"].as_f64().unwrap_or(f64::NAN);
        assert!(util > 0.0 && util <= 100.0, "{name}: {cost}");
        assert!(cost["core_seconds"].as_f64().is_some_and(|c| c > 0.0), "{name}: {cost}");
        assert!(doc["plan"]["ladders"].as_array().is_some_and(|l| !l.is_empty()), "{name}");
        assert_eq!(doc["summary"]["errors"].as_u64(), Some(0), "{name}: {}", doc["diagnostics"]);
    }
}

/// `plan --budget-core-hours` below the predicted cost is an error-level
/// P010 finding: exit 1, and the artifact names it.
#[test]
fn plan_over_budget_exits_one_with_p010() {
    let dir = scratch("budget");
    let tremd =
        example_configs().into_iter().find(|p| p.ends_with("tremd.json")).expect("tremd.json");
    let artifact = dir.join("over-budget.plan.json");
    let args = ["plan", s(&tremd), "--budget-core-hours", "0.01", "--json", s(&artifact)];
    assert_eq!(code(&repex(&args)), 1);
    assert!(codes(&read_json(&artifact)).contains(&"P010"));
}

/// `plan` prices a campaign by a dry run on the simulated cluster: a
/// local-backend config with a progress interval gets its simulated twin's
/// cost, and the dry run prints no progress line.
#[test]
fn plan_dry_runs_silently_whatever_the_backend() {
    let dir = scratch("dry-run");
    let mut cfg = SimulationConfig::t_remd(4, 6000, 3);
    let simulated = write_config(&dir, "simulated", &cfg);
    cfg.resource.backend = "local".into();
    cfg.progress_every = 1;
    let local = write_config(&dir, "local", &cfg);
    let cost = |config: &Path| {
        let artifact = config.with_extension("plan.json");
        let out = ok(&["plan", s(config), "--no-search", "--json", s(&artifact)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(stderr.trim_end(), format!("[plan written: {}]", s(&artifact)), "{config:?}");
        read_json(&artifact)["plan"]["cost"].compact()
    };
    assert_eq!(cost(&local), cost(&simulated));
}

/// A campaign under a failure storm, stopped after two cycles and resumed,
/// writes the uninterrupted run's report byte for byte; `analyze` on its
/// trace finds the burst (A104) as a warning, so it still exits 0.
#[test]
fn a_storm_campaign_resumes_byte_for_byte_and_analyze_flags_the_burst() {
    let dir = scratch("storm");
    let mut cfg = SimulationConfig::t_remd(16, 6000, 4);
    cfg.surrogate_steps = 5;
    cfg.fault_policy = FaultPolicy::Relaunch { max_retries: 20 };
    // An 8-second MTBF-2s storm opens the run; calm everywhere else.
    cfg.scenario = Some(hpc::Scenario::FailureStorm {
        storm_mtbf_seconds: 2.0,
        period_seconds: 4000.0,
        storm_fraction: 0.002,
    });
    let config = write_config(&dir, "storm", &cfg);
    let [full, head, resumed, trace, analysis] =
        ["full", "head", "resumed", "trace", "analysis"].map(|k| dir.join(format!("{k}.json")));
    let ckpt = dir.join("ckpt");

    ok(&["run", s(&config), "--force", "--json", s(&full), "--trace", s(&trace)]);
    ok(&[
        "run",
        s(&config),
        "--force",
        "--checkpoint",
        s(&ckpt),
        "--checkpoint-every",
        "1",
        "--stop-after",
        "2",
        "--json",
        s(&head),
    ]);
    assert!(ckpt.join("checkpoint.json").is_file());
    assert_eq!(read_json(&head)["cycles"].as_array().map(<[Value]>::len), Some(2));
    ok(&["run", "--resume", s(&ckpt), "--json", s(&resumed)]);

    let full_text = std::fs::read_to_string(&full).expect("full report");
    assert_eq!(std::fs::read_to_string(&resumed).expect("resumed report"), full_text);
    let report = read_json(&full);
    assert!(report["failed_tasks"].as_u64().is_some_and(|n| n >= 4), "{}", report["failed_tasks"]);
    assert!(report["relaunched_tasks"].as_u64().is_some_and(|n| n > 0));

    ok(&["analyze", s(&trace), "--json", s(&analysis)]);
    assert!(codes(&read_json(&analysis)).contains(&"A104"), "no failure-burst finding");
}

/// The service process, killed when the test ends, pass or fail.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `serve` on an ephemeral port, driven by the client verbs: a campaign is
/// accepted and its results equal a standalone `run`; a lint-rejected one
/// exits 1 with its finding and never enters the queue; `results --json
/// <path> <id>` takes the id after the path; `metrics` is one exposition
/// with no series twice.
#[test]
fn the_service_verbs_drive_a_served_campaign() {
    let dir = scratch("serve");
    let mut server = Command::new(env!("CARGO_BIN_EXE_repex"))
        .args(["serve", "--spool", s(&dir.join("spool")), "--cluster", "small:8"])
        .args(["--slice", "2", "--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("repex serve must spawn");
    let stdout = server.stdout.take().expect("piped stdout");
    let _server = Server(server);
    let mut banner = String::new();
    std::io::BufReader::new(stdout).read_line(&mut banner).expect("serve banner");
    let addr = banner.trim().rsplit("http://").next().expect("listening address").to_string();

    let mut good = SimulationConfig::t_remd(4, 6000, 3);
    good.title = "serve smoke".into();
    good.surrogate_steps = 5;
    good.resource.cluster = "small:8".into();
    let good_path = write_config(&dir, "good", &good);
    let mut bad = good.clone();
    bad.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
    ];
    bad.resource.cores = Some(2); // the salt groups need 4 cores: L201
    let bad_path = write_config(&dir, "bad", &bad);

    let server_flag = ["--server", addr.as_str()];
    let client = |args: &[&str]| repex(&[args, &server_flag].concat());
    let submit = client(&["submit", s(&good_path), "--campaign", "smoke-a", "--weight", "2"]);
    assert_eq!(code(&submit), 0, "{}", String::from_utf8_lossy(&submit.stderr));
    let rejected = client(&["submit", s(&bad_path), "--campaign", "smoke-bad"]);
    assert_eq!(code(&rejected), 1);
    assert!(String::from_utf8_lossy(&rejected.stderr).contains("L201"));
    assert_eq!(code(&client(&["status", "smoke-bad", "--json"])), 1, "never queued");

    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let out = client(&["status", "smoke-a", "--json"]);
        assert_eq!(code(&out), 0);
        let doc = json::parse(&String::from_utf8_lossy(&out.stdout)).expect("status JSON");
        match doc["state"].as_str() {
            Some("done") => break,
            Some("failed") => panic!("smoke-a failed: {doc}"),
            _ => assert!(Instant::now() < deadline, "smoke-a not done after 120 s: {doc}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }

    let results = dir.join("results.json");
    assert_eq!(code(&client(&["results", "--json", s(&results), "smoke-a"])), 0);
    let standalone = dir.join("standalone.json");
    ok(&["run", s(&good_path), "--json", s(&standalone)]);
    let served = read_json(&results);
    assert_eq!(served["state"], "done");
    let standalone = std::fs::read_to_string(&standalone).expect("standalone report");
    assert_eq!(served["report"].pretty(), standalone, "the served campaign diverged");
    let busy = served["service"]["md_busy_core_seconds"].as_f64();
    assert!(busy.is_some_and(|b| b > 0.0), "{}", served["service"]);

    let metrics = client(&["metrics"]);
    assert_eq!(code(&metrics), 0);
    let text = String::from_utf8_lossy(&metrics.stdout);
    for name in ["repex_svc_pool_cores", "repex_completed_units"] {
        assert!(text.contains(&format!("# TYPE {name} ")), "{name} missing:\n{text}");
    }
    assert!(text.contains("campaign=\"smoke-a\""), "{text}");
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
        assert!(seen.insert(series), "duplicate series {series}");
    }
}
