//! Integration: the multi-tenant campaign service (`crates/svc`).
//!
//! The acceptance path drives three-plus concurrent campaigns over one
//! shared virtual cluster through the HTTP API end-to-end and asserts that
//! every campaign's final report is **bit-identical** to the same config
//! run standalone through `RemdSimulation` — the service adds scheduling,
//! not physics — and that the shared pool was genuinely shared (the busy
//! high-water mark hits the pool size, and per-tenant busy-core integrals
//! track the configured fair-share weights).

use integration::quick_tremd;
use obs::json::{self, Value};
use obs::obj;
use repex::config::{DimensionConfig, Pattern, SimulationConfig};
use repex::simulation::RemdSimulation;
use svc::{CampaignService, ServiceConfig};

const CLUSTER: &str = "small:16";

fn service_config(tag: &str, cluster: &str, slice: u64) -> ServiceConfig {
    let spool = std::env::temp_dir().join(format!("repex-it-svc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool);
    let mut cfg = ServiceConfig::new(spool);
    cfg.cluster = cluster.into();
    cfg.slice_cycles = slice;
    cfg
}

/// A campaign config sized for the shared pool: `n` replicas, 6 cycles.
fn campaign_cfg(title: &str, n: usize, cluster: &str) -> SimulationConfig {
    let mut cfg = quick_tremd(n, 6);
    cfg.title = title.into();
    cfg.resource.cluster = cluster.into();
    cfg
}

fn body_doc(body: &[u8]) -> Value {
    json::parse(std::str::from_utf8(body).unwrap()).unwrap()
}

fn get(addr: &str, path: &str) -> (u16, Value) {
    let (status, body) = svc::http::request(addr, "GET", path, None).unwrap();
    (status, body_doc(&body))
}

/// Poll `probe` every 50 ms until it yields, for at most a minute.
fn poll<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        if let Some(hit) = probe() {
            return hit;
        }
        assert!(std::time::Instant::now() < deadline, "timed out after 60 s waiting for {what}");
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}

fn submit(addr: &str, id: &str, tenant: &str, weight: f64, cfg: &SimulationConfig) -> (u16, Value) {
    let body = obj! {
        "campaign" => id,
        "tenant" => tenant,
        "weight" => weight,
        "config" => json::parse(&cfg.to_json()).unwrap(),
    };
    let (status, resp) =
        svc::http::request(addr, "POST", "/campaigns", Some(body.compact().as_bytes())).unwrap();
    (status, body_doc(&resp))
}

/// Poll a campaign until it reaches `want` (panics on `failed` or timeout).
fn wait_state(addr: &str, id: &str, want: &str) -> Value {
    poll(&format!("campaign {id} to be {want}"), || {
        let (status, doc) = get(addr, &format!("/campaigns/{id}"));
        assert_eq!(status, 200, "{doc}");
        let state = doc["state"].as_str().unwrap_or("?");
        assert_ne!(state, "failed", "campaign {id} failed: {}", doc["error"]);
        assert!(
            !(want != "done" && state == "done"),
            "campaign {id} finished before reaching {want}"
        );
        (state == want).then_some(doc)
    })
}

/// The canonical report document of a standalone uninterrupted run — the
/// byte string `repex run --json` writes.
fn standalone_doc(cfg: &SimulationConfig) -> String {
    let report = RemdSimulation::new(cfg.clone()).unwrap().run().unwrap();
    report.to_json_doc().pretty()
}

#[test]
fn concurrent_tenants_share_one_cluster_and_results_are_bit_identical() {
    let service = CampaignService::start(service_config("accept", CLUSTER, 2)).unwrap();
    let addr = service.addr().to_string();

    // Three synchronous campaigns fill the 16-core pool exactly
    // (8 + 4 + 4); tenant a's weight is twice b's and c's, matching its
    // doubled allocation. A fourth, asynchronous campaign queues behind
    // them and runs when cores free up.
    let cfg_a = campaign_cfg("svc-a", 8, CLUSTER);
    let cfg_b = campaign_cfg("svc-b", 4, CLUSTER);
    let cfg_c = campaign_cfg("svc-c", 4, CLUSTER);
    let mut cfg_d = campaign_cfg("svc-d", 4, CLUSTER);
    cfg_d.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    let (status, doc) = submit(&addr, "svc-a", "tenant-a", 2.0, &cfg_a);
    assert_eq!(status, 201, "{doc}");
    assert_eq!(doc["cores"], 8);
    for (id, cfg) in [("svc-b", &cfg_b), ("svc-c", &cfg_c), ("svc-d", &cfg_d)] {
        let (status, doc) = submit(&addr, id, &id.replace("svc", "tenant"), 1.0, cfg);
        assert_eq!(status, 201, "{doc}");
    }

    let mut results = std::collections::HashMap::new();
    for id in ["svc-a", "svc-b", "svc-c", "svc-d"] {
        wait_state(&addr, id, "done");
        let (status, doc) = get(&addr, &format!("/campaigns/{id}/results"));
        assert_eq!(status, 200, "{doc}");
        results.insert(id, doc);
    }

    // The pool was genuinely shared: at some point every core was leased.
    let (_, list) = get(&addr, "/campaigns");
    assert_eq!(
        list["pool"]["peak_leased_cores"], 16,
        "the three synchronous campaigns ran concurrently over one pool"
    );
    assert_eq!(list["pool"]["free_cores"], 16, "all cores returned");

    // Bit-identical to the standalone twin, for every campaign — the
    // sliced, checkpoint-resumed service run reproduces the exact bytes
    // `repex run --json` would have written.
    for (id, cfg) in [("svc-a", &cfg_a), ("svc-b", &cfg_b), ("svc-c", &cfg_c), ("svc-d", &cfg_d)] {
        let served = results[id]["report"].pretty();
        assert_eq!(served, standalone_doc(cfg), "campaign {id} diverged from its twin");
    }

    // Fair share: tenant-a (weight 2) holds 8 of 16 cores, b and c
    // (weight 1 each) hold 4 — so a's busy-core integral tracks 2x b's
    // and c's. The integrals come from the reports' utilization identity
    // and agree with the recorded event trace.
    let busy = |id: &str| results[id]["service"]["md_busy_core_seconds"].as_f64().unwrap();
    for id in ["svc-a", "svc-b", "svc-c"] {
        let trace = results[id]["service"]["trace_md_busy_core_seconds"].as_f64().unwrap();
        let rel = (busy(id) - trace).abs() / trace.max(1e-9);
        assert!(rel < 0.05, "campaign {id}: report busy {} vs trace {trace}", busy(id));
    }
    for (id, expect) in [("svc-b", 2.0), ("svc-c", 2.0)] {
        let ratio = busy("svc-a") / busy(id);
        assert!(
            (ratio - expect).abs() / expect < 0.3,
            "busy-core ratio a/{id} = {ratio}, want ~{expect} (weights 2:1)"
        );
    }

    service.stop();
}

#[test]
fn shared_spool_restart_resumes_each_campaign_and_stays_bit_identical() {
    let svc_cfg = service_config("restart", "small:8", 1);
    let spool = svc_cfg.spool.clone();
    let service = CampaignService::start(svc_cfg.clone()).unwrap();
    let addr = service.addr().to_string();

    // Two distinct campaigns share the spool: different titles, sizes and
    // cycle counts, so any cross-contamination is visible.
    let mut cfg_a = campaign_cfg("resume-a", 4, "small:8");
    cfg_a.n_cycles = 8;
    let mut cfg_b = campaign_cfg("resume-b", 2, "small:8");
    cfg_b.n_cycles = 10;
    assert_eq!(submit(&addr, "r-a", "t1", 1.0, &cfg_a).0, 201);
    assert_eq!(submit(&addr, "r-b", "t2", 1.0, &cfg_b).0, 201);

    // Wait until both have checkpointed at least one slice, then stop the
    // service mid-campaign: running slices checkpoint and re-queue.
    poll("both campaigns' first checkpoints", || {
        let a = spool.join("r-a/checkpoint/checkpoint.json").exists();
        let b = spool.join("r-b/checkpoint/checkpoint.json").exists();
        (a && b).then_some(())
    });
    service.stop();

    // The spool keeps the two campaigns fully separate, and each
    // checkpoint belongs to its own campaign's config.
    for (dir, title) in [("r-a", "resume-a"), ("r-b", "resume-b")] {
        let ckpt = spool.join(dir).join("checkpoint/checkpoint.json");
        assert!(ckpt.exists(), "{dir} checkpointed before the stop");
        let text = std::fs::read_to_string(&ckpt).unwrap();
        assert!(text.contains(title), "{dir}'s checkpoint holds {title}'s config");
        let record =
            json::parse(&std::fs::read_to_string(spool.join(dir).join("job.json")).unwrap())
                .unwrap();
        assert_eq!(record["campaign"], dir, "record and directory agree");
        assert_ne!(record["state"], "running", "stop left no job stranded as running");
    }

    // A fresh service over the same spool picks each campaign up where its
    // checkpoint left it and finishes both — to the same bytes as
    // uninterrupted standalone runs.
    let service = CampaignService::start(svc_cfg).unwrap();
    let addr = service.addr().to_string();
    for (id, cfg) in [("r-a", &cfg_a), ("r-b", &cfg_b)] {
        wait_state(&addr, id, "done");
        let (status, doc) = get(&addr, &format!("/campaigns/{id}/results"));
        assert_eq!(status, 200, "{doc}");
        let served = doc["report"].pretty();
        assert_eq!(served, standalone_doc(cfg), "campaign {id} diverged across the restart");
    }

    // The merged exposition carries both campaigns with disjoint series:
    // no `(metric, labels)` pair appears twice, and each campaign label
    // survives the merge.
    let (status, body) = svc::http::request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("campaign=\"r-a\""), "{text}");
    assert!(text.contains("campaign=\"r-b\""), "{text}");
    let mut seen = std::collections::HashSet::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let series = line.rsplit_once(' ').map_or(line, |(s, _)| s);
        assert!(seen.insert(series.to_string()), "duplicate series {series}");
    }

    service.stop();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn admission_is_lint_gated_with_typed_diagnostics() {
    let service = CampaignService::start(service_config("admit", "small:8", 0)).unwrap();
    let addr = service.addr().to_string();
    let good = campaign_cfg("admit-ok", 4, "small:8");

    // S001: the campaign id must be label- and path-safe.
    let (status, doc) = submit(&addr, "bad/../id", "t", 1.0, &good);
    assert_eq!(status, 400);
    assert_eq!(doc["diagnostics"][0]["code"], "S001", "{doc}");

    // S006: nonsense weights.
    let (status, doc) = submit(&addr, "w", "t", 0.0, &good);
    assert_eq!(status, 400);
    assert_eq!(doc["diagnostics"][0]["code"], "S006", "{doc}");

    // S003: the config must target the service's shared cluster.
    let elsewhere = campaign_cfg("admit-elsewhere", 4, "stampede");
    let (status, doc) = submit(&addr, "elsewhere", "t", 1.0, &elsewhere);
    assert_eq!(status, 422);
    assert_eq!(doc["diagnostics"][0]["code"], "S003", "{doc}");

    // S004: a pilot larger than the whole pool can never be scheduled.
    let mut huge = campaign_cfg("admit-huge", 4, "small:8");
    huge.resource.cores = Some(64);
    let (status, doc) = submit(&addr, "huge", "t", 1.0, &huge);
    assert_eq!(status, 422);
    assert_eq!(doc["diagnostics"][0]["code"], "S004", "{doc}");

    // Lint gate: the same pass as `repex run`, rejecting error findings
    // with the full diagnostics array (L201: Salt exchange groups need
    // more cores than the pilot has).
    let mut underprovisioned = campaign_cfg("admit-lint", 4, "small:8");
    underprovisioned.dimensions = vec![
        DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
        DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
    ];
    underprovisioned.resource.cores = Some(2);
    let (status, doc) = submit(&addr, "linted", "t", 1.0, &underprovisioned);
    assert_eq!(status, 422);
    assert!(doc["diagnostics"].as_array().unwrap().iter().any(|d| d["code"] == "L201"), "{doc}");

    // S002: duplicate ids conflict; unknown ids are 404.
    let (status, _) = submit(&addr, "dup", "t", 1.0, &good);
    assert_eq!(status, 201);
    let (status, doc) = submit(&addr, "dup", "t", 1.0, &good);
    assert_eq!(status, 409);
    assert_eq!(doc["diagnostics"][0]["code"], "S002", "{doc}");
    let (status, _) = get(&addr, "/campaigns/nope");
    assert_eq!(status, 404);
    let (status, doc) = get(&addr, "/campaigns/nope/results");
    assert_eq!(status, 404, "{doc}");

    service.stop();
}

#[test]
fn predictive_admission_rejects_over_budget_campaigns_with_p010() {
    let cfg = campaign_cfg("budgeted", 4, "small:8");
    // Price the campaign with the same model the service uses, then run
    // one service whose budget is below the prediction and one above.
    let predicted = lint::plan::predicted_core_seconds(&cfg).unwrap();
    assert!(predicted > 0.0, "planner must price a schedulable campaign");

    let mut tight = service_config("budget-tight", "small:8", 0);
    tight.budget_core_seconds = predicted / 2.0;
    let service = CampaignService::start(tight).unwrap();
    let addr = service.addr().to_string();
    let (status, doc) = submit(&addr, "pricey", "t", 1.0, &cfg);
    assert_eq!(status, 422, "{doc}");
    assert_eq!(doc["diagnostics"][0]["code"], "P010", "{doc}");
    assert_eq!(doc["diagnostics"][0]["severity"], "error", "{doc}");
    service.stop();

    let mut roomy = service_config("budget-roomy", "small:8", 0);
    roomy.budget_core_seconds = predicted * 2.0;
    let service = CampaignService::start(roomy).unwrap();
    let addr = service.addr().to_string();
    let (status, doc) = submit(&addr, "affordable", "t", 1.0, &cfg);
    assert_eq!(status, 201, "{doc}");
    wait_state(&addr, "affordable", "done");
    service.stop();
}

/// A campaign far over the budget is refused at once, from a floor priced
/// without running it: a billion cycles would take the dry run hours. The
/// floor holds for a campaign that injects failures and for the
/// asynchronous pattern too.
#[test]
fn a_campaign_far_over_budget_is_refused_before_its_dry_run() {
    let cfg = campaign_cfg("huge", 4, "small:8");
    let mut svc_cfg = service_config("budget-floor", "small:8", 0);
    svc_cfg.budget_core_seconds = lint::plan::predicted_core_seconds(&cfg).unwrap() * 2.0;
    let service = CampaignService::start(svc_cfg).unwrap();
    let addr = service.addr().to_string();
    let mut faulty = cfg.clone();
    faulty.fault_mtbf_seconds = Some(1e12);
    let mut asynchronous = cfg.clone();
    asynchronous.pattern = Pattern::Asynchronous { tick_fraction: 0.25 };
    for (i, mut huge) in [cfg, faulty, asynchronous].into_iter().enumerate() {
        huge.n_cycles = 1_000_000_000;
        let start = std::time::Instant::now();
        let (status, doc) = submit(&addr, &format!("huge-{i}"), "t", 1.0, &huge);
        let waited = start.elapsed();
        assert_eq!(status, 422, "{doc}");
        assert_eq!(doc["diagnostics"][0]["code"], "P010", "{doc}");
        assert!(waited < std::time::Duration::from_secs(5), "refused only after {waited:?}");
    }
    service.stop();
}

#[test]
fn a_full_queue_applies_backpressure() {
    // max_queue = 0: every submission beyond the running set bounces with
    // the typed backpressure diagnostic.
    let mut svc_cfg = service_config("backpressure", "small:8", 0);
    svc_cfg.max_queue = 0;
    let service = CampaignService::start(svc_cfg).unwrap();
    let addr = service.addr().to_string();
    let (status, doc) = submit(&addr, "bp", "t", 1.0, &campaign_cfg("bp", 4, "small:8"));
    assert_eq!(status, 429);
    assert_eq!(doc["diagnostics"][0]["code"], "S010", "{doc}");
    service.stop();
}

#[test]
fn cancellation_checkpoints_and_frees_cores_within_a_tick() {
    let service = CampaignService::start(service_config("cancel", "small:8", 0)).unwrap();
    let addr = service.addr().to_string();

    // A long campaign that will not finish on its own.
    let mut cfg = campaign_cfg("cancel-me", 8, "small:8");
    cfg.n_cycles = 10_000;
    assert_eq!(submit(&addr, "longrun", "t", 1.0, &cfg).0, 201);
    wait_state(&addr, "longrun", "running");

    let (status, doc) = svc::http::request(&addr, "DELETE", "/campaigns/longrun", None).unwrap();
    let doc = body_doc(&doc);
    assert_eq!(status, 202, "{doc}");
    let doc = wait_state(&addr, "longrun", "cancelled");
    assert_eq!(
        doc["checkpoint_exists"], true,
        "cancellation ends with a final checkpoint for post-mortems"
    );

    // The freed cores immediately schedule the next tenant's campaign.
    let (_, list) = get(&addr, "/campaigns");
    // (`small:8` is one 16-core node: the pool is 16 wide, not 8.)
    assert_eq!(
        list["pool"]["free_cores"], list["pool"]["total_cores"],
        "cancelled campaign released its lease"
    );
    assert_eq!(submit(&addr, "next", "t2", 1.0, &campaign_cfg("next", 8, "small:8")).0, 201);
    wait_state(&addr, "next", "done");

    // Cancelling a terminal campaign is a conflict, not a state change.
    let (status, _) = svc::http::request(&addr, "DELETE", "/campaigns/longrun", None).unwrap();
    assert_eq!(status, 409);

    service.stop();
}
