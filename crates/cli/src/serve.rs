//! `repex serve` and the service client verbs.
//!
//! ```text
//! repex serve --spool <dir> [--cluster <preset>] [--addr <host:port>]
//!             [--max-queue <n>] [--slice <cycles>] [--budget-core-hours <h>]
//! repex submit <config.json> --campaign <id> [--server <host:port>]
//!              [--tenant <name>] [--weight <w>] [--priority <p>]
//! repex status [<id>] [--server <host:port>] [--json]
//! repex cancel <id> [--server <host:port>]
//! repex results <id> [--server <host:port>] [--json <out.json>]
//! repex metrics [--server <host:port>]
//! ```
//!
//! The client verbs speak the service's JSON API (DESIGN.md §13) and keep
//! the repo's exit-code convention: 0 = accepted/clean, 1 = the service
//! rejected the request (diagnostics printed), 2 = usage/IO error.

use crate::{flag_value, float_flag, uint_flag};
use obs::json::{self, Value};
use obs::obj;

/// Default control-plane address, shared by `serve` and the client verbs.
const DEFAULT_ADDR: &str = "127.0.0.1:8642";

fn server_addr(args: &[String]) -> Result<String, String> {
    Ok(flag_value(args, "--server")?.unwrap_or_else(|| DEFAULT_ADDR.to_string()))
}

/// First positional (non-flag) argument after the verb. Every flag takes a
/// value except the verb's `booleans`.
fn positional<'a>(args: &'a [String], booleans: &[&str]) -> Option<&'a String> {
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = !booleans.contains(&a.as_str());
            continue;
        }
        return Some(a);
    }
    None
}

pub(crate) fn cmd_serve(args: &[String]) -> Result<u8, String> {
    let spool = flag_value(args, "--spool")?.ok_or("serve needs --spool <dir>")?;
    let mut cfg = svc::ServiceConfig::new(spool);
    if let Some(cluster) = flag_value(args, "--cluster")? {
        cfg.cluster = cluster;
    }
    cfg.addr = flag_value(args, "--addr")?.unwrap_or_else(|| DEFAULT_ADDR.to_string());
    if let Some(n) = uint_flag(args, "--max-queue")? {
        cfg.max_queue = n as usize;
    }
    if let Some(n) = uint_flag(args, "--slice")? {
        cfg.slice_cycles = n;
    }
    if let Some(h) = float_flag(args, "--budget-core-hours")? {
        cfg.budget_core_seconds = h * 3600.0;
    }
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

pub(crate) fn cmd_submit(args: &[String]) -> Result<u8, String> {
    let path = positional(args, &[]).ok_or("submit needs a config file path")?;
    let campaign = flag_value(args, "--campaign")?
        .ok_or("submit needs --campaign <id> (the spool directory and metrics label)")?;
    let server = server_addr(args)?;
    let tenant = flag_value(args, "--tenant")?.unwrap_or_else(|| "default".to_string());
    let weight = float_flag(args, "--weight")?.unwrap_or(1.0);
    let priority = uint_flag(args, "--priority")?.unwrap_or(0);
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let config = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let body = obj! {
        "campaign" => campaign,
        "tenant" => tenant,
        "weight" => weight,
        "priority" => priority,
        "config" => config,
    };
    let (status, resp) =
        svc::http::request(&server, "POST", "/campaigns", Some(body.compact().as_bytes()))?;
    let doc = parse_body(&resp);
    if status == 201 {
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
    } else {
        print_rejection(status, &doc);
        Ok(1)
    }
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

pub(crate) fn cmd_status(args: &[String]) -> Result<u8, String> {
    let server = server_addr(args)?;
    let json = args.iter().any(|a| a == "--json");
    let path = match positional(args, &["--json"]) {
        Some(id) => format!("/campaigns/{id}"),
        None => "/campaigns".to_string(),
    };
    let (status, resp) = svc::http::request(&server, "GET", &path, None)?;
    let doc = parse_body(&resp);
    if status != 200 {
        print_rejection(status, &doc);
        return Ok(1);
    }
    if json {
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

pub(crate) fn cmd_cancel(args: &[String]) -> Result<u8, String> {
    let id = positional(args, &[]).ok_or("cancel needs a campaign id")?;
    let server = server_addr(args)?;
    let (status, resp) = svc::http::request(&server, "DELETE", &format!("/campaigns/{id}"), None)?;
    let doc = parse_body(&resp);
    if status == 200 || status == 202 {
        println!("campaign {id}: {}", doc["state"].as_str().unwrap_or("?"));
        Ok(0)
    } else {
        print_rejection(status, &doc);
        Ok(1)
    }
}

pub(crate) fn cmd_results(args: &[String]) -> Result<u8, String> {
    let id = positional(args, &[]).ok_or("results needs a campaign id")?;
    let server = server_addr(args)?;
    let json_out = flag_value(args, "--json")?;
    let (status, resp) =
        svc::http::request(&server, "GET", &format!("/campaigns/{id}/results"), None)?;
    let doc = parse_body(&resp);
    if status != 200 {
        print_rejection(status, &doc);
        return Ok(1);
    }
    let pretty = doc.pretty();
    match json_out {
        Some(out) => {
            std::fs::write(&out, &pretty).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("[results written: {out}]");
        }
        None => println!("{pretty}"),
    }
    Ok(0)
}

pub(crate) fn cmd_metrics(args: &[String]) -> Result<u8, String> {
    let server = server_addr(args)?;
    let (status, resp) = svc::http::request(&server, "GET", "/metrics", None)?;
    if status != 200 {
        print_rejection(status, &parse_body(&resp));
        return Ok(1);
    }
    print!("{}", String::from_utf8_lossy(&resp));
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn positional_skips_flags_and_their_values() {
        let args = |a: &[&str]| -> Vec<String> { a.iter().map(|s| s.to_string()).collect() };
        let status = &["--json"];
        let id = Some(&"camp-a".to_string());
        assert_eq!(positional(&args(&["--server", "127.0.0.1:1", "camp-a", "--json"]), status), id);
        assert_eq!(positional(&args(&["--json", "--server", "x"]), status), None);
        assert_eq!(positional(&args(&["--json", "camp-a"]), status), id);
        // `results` takes `--json <out.json>`: the path is not the id.
        assert_eq!(positional(&args(&["--json", "out.json", "camp-a"]), &[]), id);
    }

    #[test]
    fn missing_arguments_are_usage_errors() {
        assert!(cmd_serve(&[]).is_err(), "serve needs --spool");
        assert!(cmd_submit(&[]).is_err(), "submit needs a config path");
        assert!(
            cmd_submit(&["cfg.json".to_string()]).is_err(),
            "submit needs an explicit --campaign"
        );
        assert!(cmd_cancel(&[]).is_err());
        assert!(cmd_results(&[]).is_err());
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
            cmd_submit(&args).unwrap()
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
        assert_eq!(cmd_status(&id_args).unwrap(), 0);
        assert_eq!(cmd_status(&["--server".into(), server.clone()]).unwrap(), 0, "list form");

        let out = dir.join("results.json");
        let code = cmd_results(&[
            "verbs-a".into(),
            "--server".into(),
            server.clone(),
            "--json".into(),
            out.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
        assert_eq!(doc["report"]["n_replicas"], 4);

        assert_eq!(cmd_metrics(&["--server".into(), server.clone()]).unwrap(), 0);
        assert_eq!(
            cmd_cancel(&["verbs-a".into(), "--server".into(), server.clone()]).unwrap(),
            1,
            "cancelling a done campaign is a conflict"
        );
        assert_eq!(
            cmd_results(&["verbs-none".into(), "--server".into(), server]).unwrap(),
            1,
            "unknown campaign"
        );
        service.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
