//! `repex serve` and the service client verbs (usage: `repex --help`).
//!
//! The client verbs speak the service's JSON API (DESIGN.md §13) and keep
//! the repo's exit-code convention: 0 = accepted/clean, 1 = the service
//! rejected the request (diagnostics printed), 2 = usage/IO error.

use crate::Args;
use obs::json::{self, Value};
use obs::obj;

/// Default control-plane address, shared by `serve` and the client verbs.
const DEFAULT_ADDR: &str = "127.0.0.1:8642";

pub(crate) fn cmd_serve(args: &Args) -> Result<u8, String> {
    let spool =
        args.text("--spool").ok_or_else(|| args.verb.usage_error("serve needs --spool <dir>"))?;
    let mut cfg = svc::ServiceConfig::new(spool);
    cfg.cluster = args.text("--cluster").unwrap_or(&cfg.cluster).to_string();
    cfg.addr = args.text("--addr").unwrap_or(DEFAULT_ADDR).to_string();
    cfg.max_queue = args.count("--max-queue").map_or(cfg.max_queue, |n| n as usize);
    cfg.slice_cycles = args.count("--slice").unwrap_or(cfg.slice_cycles);
    cfg.budget_core_seconds =
        args.number("--budget-core-hours").map_or(cfg.budget_core_seconds, |h| h * 3600.0);
    let service = svc::CampaignService::start(cfg)?;
    println!("repex service listening on http://{}", service.addr());
    // Serve until killed. Jobs interrupted by a hard kill re-queue from
    // their checkpoints when the spool is served again.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

fn parse_body(body: &[u8]) -> Value {
    let text = String::from_utf8_lossy(body);
    json::parse(&text).unwrap_or_else(|_| obj! { "error" => *text })
}

/// Print a rejection body (`error` + optional `diagnostics`) the same way
/// `repex check` renders findings.
fn print_rejection(status: u16, doc: &Value) {
    eprintln!("rejected ({status}): {}", doc["error"].as_str().unwrap_or("unknown error"));
    for d in doc["diagnostics"].as_array().into_iter().flatten() {
        eprintln!(
            "  {} {}: {}",
            d["code"].as_str().unwrap_or("?"),
            d["severity"].as_str().unwrap_or("?"),
            d["message"].as_str().unwrap_or(""),
        );
        if let Some(hint) = d["hint"].as_str() {
            eprintln!("    hint: {hint}");
        }
    }
}

/// A reply's body, or `None` for a rejection already printed.
type Reply = Result<Option<Vec<u8>>, String>;

/// One request to `--server`. A reply whose status is not in `ok` is printed
/// as a rejection and comes back as `None`: the verb exits 1.
fn call(args: &Args, method: &str, path: &str, body: Option<&[u8]>, ok: &[u16]) -> Reply {
    let server = args.text("--server").unwrap_or(DEFAULT_ADDR);
    let (status, resp) = svc::http::request(server, method, path, body)?;
    if ok.contains(&status) {
        return Ok(Some(resp));
    }
    print_rejection(status, &parse_body(&resp));
    Ok(None)
}

pub(crate) fn cmd_submit(args: &Args) -> Result<u8, String> {
    let path = args.path();
    let campaign =
        args.text("--campaign").ok_or_else(|| args.verb.usage_error("submit needs --campaign"))?;
    let tenant = args.text("--tenant").unwrap_or("default");
    let weight = args.number("--weight").unwrap_or(1.0);
    let priority = args.count("--priority").unwrap_or(0);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let config = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let body = obj! {
        "campaign" => campaign,
        "tenant" => tenant,
        "weight" => weight,
        "priority" => priority,
        "config" => config,
    }
    .compact();
    let Some(resp) = call(args, "POST", "/campaigns", Some(body.as_bytes()), &[201])? else {
        return Ok(1);
    };
    let doc = parse_body(&resp);
    println!(
        "accepted campaign {campaign} (tenant {tenant}, {} cores, seq {})",
        doc["cores"], doc["seq"]
    );
    for w in doc["warnings"].as_array().into_iter().flatten() {
        eprintln!(
            "  {} warning: {}",
            w["code"].as_str().unwrap_or("?"),
            w["message"].as_str().unwrap_or(""),
        );
    }
    Ok(0)
}

/// Render one campaign's status document as a human line.
fn status_line(doc: &Value) -> String {
    let mut line = format!(
        "campaign {} [{}] tenant {} weight {} cores {}",
        doc["campaign"].as_str().unwrap_or("?"),
        doc["state"].as_str().unwrap_or("?"),
        doc["tenant"].as_str().unwrap_or("?"),
        doc["weight"],
        doc["cores"],
    );
    let snap = &doc["snapshot"];
    if snap.as_object().is_some() {
        line.push_str(&format!(
            "  progress {}/{} t {:.1}s",
            snap["completed"],
            snap["total"],
            snap["time"].as_f64().unwrap_or(0.0),
        ));
    }
    if let Some(err) = doc["error"].as_str() {
        line.push_str(&format!("  error: {err}"));
    }
    line
}

pub(crate) fn cmd_status(args: &Args) -> Result<u8, String> {
    let path =
        args.operand.as_deref().map_or("/campaigns".to_string(), |id| format!("/campaigns/{id}"));
    let Some(resp) = call(args, "GET", &path, None, &[200])? else { return Ok(1) };
    let doc = parse_body(&resp);
    if args.switch("--json") {
        println!("{}", doc.pretty());
    } else if let Some(campaigns) = doc["campaigns"].as_array() {
        println!(
            "pool {} ({} cores, {} free)  queue depth {}",
            doc["pool"]["cluster"].as_str().unwrap_or("?"),
            doc["pool"]["total_cores"],
            doc["pool"]["free_cores"],
            doc["queue_depth"],
        );
        for c in campaigns {
            println!("{}", status_line(c));
        }
    } else {
        println!("{}", status_line(&doc));
    }
    Ok(0)
}

pub(crate) fn cmd_cancel(args: &Args) -> Result<u8, String> {
    let id = args.path();
    let Some(resp) = call(args, "DELETE", &format!("/campaigns/{id}"), None, &[200, 202])? else {
        return Ok(1);
    };
    println!("campaign {id}: {}", parse_body(&resp)["state"].as_str().unwrap_or("?"));
    Ok(0)
}

pub(crate) fn cmd_results(args: &Args) -> Result<u8, String> {
    let path = format!("/campaigns/{}/results", args.path());
    let Some(resp) = call(args, "GET", &path, None, &[200])? else { return Ok(1) };
    let pretty = parse_body(&resp).pretty();
    match args.text("--json") {
        Some(out) => crate::write_out(out, &pretty, "results")?,
        None => println!("{pretty}"),
    }
    Ok(0)
}

pub(crate) fn cmd_metrics(args: &Args) -> Result<u8, String> {
    let Some(resp) = call(args, "GET", "/metrics", None, &[200])? else { return Ok(1) };
    print!("{}", String::from_utf8_lossy(&resp));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::repex;

    #[test]
    fn missing_arguments_are_usage_errors() {
        assert!(repex("serve", &[]).is_err(), "serve needs --spool");
        assert!(repex("submit", &[]).is_err(), "submit needs a config path");
        assert!(
            repex("submit", &["cfg.json".to_string()]).is_err(),
            "submit needs an explicit --campaign"
        );
        assert!(repex("cancel", &[]).is_err());
        assert!(repex("results", &[]).is_err());
    }

    /// End-to-end through the verbs against an in-process service.
    #[test]
    fn client_verbs_drive_a_live_service() {
        let dir = std::env::temp_dir().join("repex-cli-serve-verbs");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = repex::config::SimulationConfig::t_remd(4, 600, 2);
        cfg.surrogate_steps = 5;
        cfg.resource.cluster = "small:8".into();
        let cfg_path = dir.join("cfg.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();

        let mut svc_cfg = svc::ServiceConfig::new(dir.join("spool"));
        svc_cfg.cluster = "small:8".into();
        let service = svc::CampaignService::start(svc_cfg).unwrap();
        let server = service.addr().to_string();

        let submit = |extra: &[&str]| -> u8 {
            let mut args: Vec<String> =
                vec![cfg_path.to_string_lossy().into_owned(), "--server".into(), server.clone()];
            args.extend(extra.iter().map(|s| s.to_string()));
            repex("submit", &args).unwrap()
        };
        assert_eq!(submit(&["--campaign", "verbs-a"]), 0);
        assert_eq!(submit(&["--campaign", "verbs-a"]), 1, "duplicate id is rejected");
        assert_eq!(submit(&["--campaign", "bad/id"]), 1, "invalid id is rejected");
        assert_eq!(submit(&["--campaign", "verbs-b", "--weight", "0"]), 1, "bad weight");

        // Poll the status verb until the campaign finishes.
        let id_args: Vec<String> =
            vec!["verbs-a".into(), "--server".into(), server.clone(), "--json".into()];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
        loop {
            let (status, body) =
                svc::http::request(&server, "GET", "/campaigns/verbs-a", None).unwrap();
            assert_eq!(status, 200);
            let doc = parse_body(&body);
            if doc["state"] == "done" {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "verbs-a not done after 60 s: {doc}");
            std::thread::sleep(std::time::Duration::from_millis(100));
        }
        assert_eq!(repex("status", &id_args).unwrap(), 0);
        assert_eq!(repex("status", &["--server".into(), server.clone()]).unwrap(), 0, "list form");

        let out = dir.join("results.json");
        let code = repex(
            "results",
            &[
                "verbs-a".into(),
                "--server".into(),
                server.clone(),
                "--json".into(),
                out.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        assert_eq!(code, 0);
        let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(doc["report"]["n_replicas"], 4);

        assert_eq!(repex("metrics", &["--server".into(), server.clone()]).unwrap(), 0);
        assert_eq!(
            repex("cancel", &["verbs-a".into(), "--server".into(), server.clone()]).unwrap(),
            1,
            "cancelling a done campaign is a conflict"
        );
        assert_eq!(
            repex("results", &["verbs-none".into(), "--server".into(), server]).unwrap(),
            1,
            "unknown campaign"
        );
        service.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
