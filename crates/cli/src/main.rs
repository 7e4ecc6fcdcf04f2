//! `repex` — the command-line front end.
//!
//! The original RepEx is driven from the command line with a simulation
//! input file and a resource configuration; this binary is the equivalent:
//!
//! ```text
//! repex run <config.json> [--json <out.json>]   run a simulation (pre-flight linted)
//!           [--trace <trace.json>]              Chrome trace of the run
//!           [--metrics <metrics.json>]          flat counters (failures, acceptances, ...)
//!           [--metrics-stream <path>]           append live telemetry snapshots (JSONL)
//!           [--prom <path>]                     Prometheus text exposition, rewritten live
//!           [--campaign <name>]                 label for the telemetry stream (default: title)
//!           [--progress <n>] [--force]          --force runs despite error-level findings
//!           [--checkpoint <dir>]                write a resumable checkpoint every
//!           [--checkpoint-every <n>]            n cycles (default 1) and on failure
//!           [--stop-after <n>]                  checkpoint and stop after n more cycles
//! repex run --resume <dir> [flags]              continue a checkpointed campaign
//! repex watch <stream.jsonl> [--once] [--json]  tail a --metrics-stream file live
//! repex check <config.json> [--json <out.json>]   static plan analysis (no execution)
//! repex plan <config.json> [--json <plan.json>]   predict cost/acceptance, rank plans
//!            [--target-round-trip <s>] [--budget-core-hours <h>] [--no-search]
//! repex analyze <trace.json> [--json <out.json>]  run-health report from a trace
//! repex validate <config.json>                  check a configuration
//! repex example-config [tremd|tsu|ph]           print a starter config
//! repex capabilities                            print the Table 1 comparison
//! repex serve --spool <dir> [--cluster <preset>] [--addr <host:port>]
//!             [--max-queue <n>] [--slice <cycles>]   multi-tenant campaign service
//!             [--budget-core-hours <h>]              predictive admission budget (P010)
//! repex submit <config.json> --campaign <id> [--server <host:port>]
//!              [--tenant <t>] [--weight <w>] [--priority <p>]
//! repex status [<id>] [--server ...] [--json]   one campaign, or the whole queue
//! repex cancel <id> [--server ...]              stop a campaign (final checkpoint kept)
//! repex results <id> [--server ...] [--json <out.json>]
//! repex metrics [--server ...]                  merged Prometheus exposition
//! ```
//!
//! Exit codes (shared by `check`, `plan` and `analyze`, honored by `run`):
//! 0 = clean, 1 = error-level findings, 2 = usage/IO/parse error. When the
//! input itself fails to parse, all three exit 2 — and if `--json` was
//! requested, the artifact still gets a single typed `C000` error record.

mod analyze;
mod plan;
mod serve;
mod watch;

use analysis::tables::{f1, TextTable};
use lint::report::Report;
use obs::json;
use repex::config::{DimensionConfig, SimulationConfig};
use repex::simulation::RemdSimulation;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<u8, String> = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("watch") => watch::cmd_watch(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("plan") => plan::cmd_plan(&args[1..]),
        Some("analyze") => analyze::cmd_analyze(&args[1..]),
        Some("validate") => cmd_validate(&args[1..]).map(|()| 0),
        Some("serve") => serve::cmd_serve(&args[1..]),
        Some("submit") => serve::cmd_submit(&args[1..]),
        Some("status") => serve::cmd_status(&args[1..]),
        Some("cancel") => serve::cmd_cancel(&args[1..]),
        Some("results") => serve::cmd_results(&args[1..]),
        Some("metrics") => serve::cmd_metrics(&args[1..]),
        Some("example-config") => cmd_example(&args[1..]).map(|()| 0),
        Some("capabilities") => {
            println!("{}", repex::capabilities::render_table1_markdown());
            Ok(0)
        }
        Some("--help") | Some("-h") | None => {
            print_usage();
            Ok(0)
        }
        Some(other) => Err(format!("unknown command {other:?} (try --help)")),
    };
    match result {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!(
        "repex — flexible replica-exchange molecular dynamics\n\n\
         USAGE:\n  repex run <config.json> [--json <out.json>] \
[--trace <trace.json>] [--metrics <metrics.json>] [--progress <n>] [--force]\n            \
[--checkpoint <dir>] [--checkpoint-every <n>] [--stop-after <n>]\n            \
[--metrics-stream <snap.jsonl>] [--prom <metrics.prom>] [--campaign <name>]\n  \
         repex run --resume <dir> [flags]\n  \
         repex watch <snap.jsonl> [--once] [--json]\n  \
         repex check <config.json> [--json <diag.json>]\n  \
         repex plan <config.json> [--json <plan.json>] [--target-round-trip <s>]\n           \
[--budget-core-hours <h>] [--no-search]\n  \
         repex analyze <trace.json> [--json <out.json>] \
[--straggler-z <z>] [--straggler-ratio <r>]\n  \
         repex validate <config.json>\n  repex example-config [tremd|tsu|ph]\n  \
         repex capabilities\n  \
         repex serve --spool <dir> [--cluster <preset>] [--addr <host:port>]\n            \
[--max-queue <n>] [--slice <cycles>] [--budget-core-hours <h>]\n  \
         repex submit <config.json> --campaign <id> [--server <host:port>]\n            \
[--tenant <t>] [--weight <w>] [--priority <p>]\n  \
         repex status [<id>] [--server <host:port>] [--json]\n  \
         repex cancel <id> [--server <host:port>]\n  \
         repex results <id> [--server <host:port>] [--json <out.json>]\n  \
         repex metrics [--server <host:port>]\n\n\
         serve runs the multi-tenant campaign service (DESIGN.md §13): a durable,\n\
lint-gated job queue in --spool, weighted fair-share scheduling of every\n\
tenant's pilot over one shared --cluster pool, and a JSON API the other\n\
verbs speak. submit exits 0 when the campaign is accepted, 1 when the\n\
service rejects it (typed S0xx/lint diagnostics printed); cancel stops a\n\
campaign at its next consistency point and keeps its final checkpoint;\n\
results returns the canonical report — byte-identical to repex run --json\n\
on the same config; metrics is the merged Prometheus exposition with one\n\
campaign label per tenant stream.\n\n\
         check lints the plan without executing it: schedulability, exchange \
core\nrequirements, async liveness, ladder acceptance, pairing coverage and \
fault\npolicy (rule catalog in DESIGN.md §9). run performs the same pass and \
refuses\nerror-level findings unless --force.\n\
         plan predicts what the campaign will cost before it burns an \
allocation:\nEq. 1 makespan and utilization, per-ladder acceptance and \
round-trip time,\nand a deterministic search over rung counts, cores and \
pairing ranked\nagainst --target-round-trip (P0xx/P1xx catalog in \
DESIGN.md §14).\n\
         --trace writes a Chrome Trace Event file (open in chrome://tracing \
or Perfetto);\n--metrics writes a flat JSON object of counters;\n\
--progress prints a run-health line every n cycles.\n\
         --metrics-stream appends one telemetry snapshot per exchange window \
as a JSON\nline (tail it with repex watch); --prom rewrites a Prometheus \
text-format file\natomically on every snapshot; --campaign sets the label \
on both (DESIGN.md §12).\n\
         watch tails a snapshot stream, printing a health line per snapshot \
plus any\nfiring W2xx rules; --once prints the latest snapshot and exits; \
--json emits\nmachine-readable JSON. Exit 1 if an error-severity finding \
is active.\n\
         --checkpoint writes an atomic, versioned checkpoint.json every \
--checkpoint-every\ncycles (and whenever a task fails); --resume reloads it \
and continues the campaign\nas if never interrupted; --stop-after checkpoints \
and exits after n more cycles.\n\
         analyze re-reads a --trace file and reports Tc percentiles, \
stragglers,\nbatch imbalance, the critical path and exchange health \
(see EXPERIMENTS.md).\n\n\
         Exit codes for check/plan/analyze/run: 0 clean, 1 error-level \
findings,\n2 usage error (unparseable input always exits 2; a requested \
--json artifact\nstill records it as a C000 diagnostic).\n\
         See README.md for the configuration schema and diagnostics JSON."
    );
}

fn load_config(path: &str) -> Result<SimulationConfig, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    SimulationConfig::from_json(&text).map_err(config_error)
}

/// How every verb words a config that does not parse or decode.
pub(crate) fn config_error(e: json::Error) -> String {
    format!("config parse error: {e}")
}

fn cmd_validate(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("validate needs a config file path")?;
    let cfg = load_config(path)?;
    cfg.validate()?;
    println!(
        "OK: {} — {} replicas ({}), {} cycles, Execution Mode {}, {} cores on {}",
        cfg.title,
        cfg.n_replicas()?,
        cfg.build_grid()?.type_string(),
        cfg.n_cycles,
        cfg.execution_mode()?,
        cfg.pilot_cores()?,
        cfg.cluster()?.name,
    );
    Ok(())
}

/// Fetch the argument following `--flag`, if the flag is present.
pub(crate) fn flag_value(args: &[String], flag: &str) -> Result<Option<String>, String> {
    args.iter()
        .position(|a| a == flag)
        .map(|i| args.get(i + 1).cloned().ok_or_else(|| format!("{flag} needs a value")))
        .transpose()
}

/// `repex check`: lint a plan without executing it. Exit 0 = clean,
/// 1 = error-level findings, 2 = usage/parse error (via `Err`).
fn cmd_check(args: &[String]) -> Result<u8, String> {
    let path = args.first().ok_or("check needs a config file path")?;
    let json_out = flag_value(args, "--json")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let cfg = match SimulationConfig::from_json(&text) {
        Ok(cfg) => cfg,
        Err(e) => {
            write_parse_failure_report(json_out.as_deref(), &e);
            return Err(config_error(e));
        }
    };
    let diags = lint::lint_config(&cfg, &lint::LintOptions::default());
    let report = Report::new(diags, Some(&text));
    print!("{}", report.render_human(path));
    if let Some(out) = json_out {
        std::fs::write(&out, report.to_json()).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("[diagnostics written: {out}]");
    }
    Ok(u8::from(report.has_errors()))
}

/// Fetch a numeric `--flag <n>` argument.
pub(crate) fn uint_flag(args: &[String], flag: &str) -> Result<Option<u64>, String> {
    flag_value(args, flag)?
        .map(|v| v.parse::<u64>().map_err(|_| format!("{flag} needs a count, got {v:?}")))
        .transpose()
}

/// Fetch a floating-point `--flag <x>` argument.
pub(crate) fn float_flag(args: &[String], flag: &str) -> Result<Option<f64>, String> {
    flag_value(args, flag)?
        .map(|v| v.parse::<f64>().map_err(|_| format!("{flag} needs a number, got {v:?}")))
        .transpose()
}

/// The shared check/analyze/plan boundary convention: an input file that
/// fails to parse is a *usage* error (exit 2, message on stderr) — never an
/// exit-1 "findings" outcome — but when the caller asked for a `--json`
/// artifact, a typed C000 record is still written so machine consumers see
/// what happened instead of a missing file: where the text stops being JSON,
/// or the pointer, line and column of the value that has the wrong shape.
pub(crate) fn write_parse_failure_report(json_out: Option<&str>, e: &json::Error) {
    if let Some(out) = json_out {
        let mut diagnostic = obs::Diagnostic::error("C000", e.to_string());
        diagnostic.path = Some(e.pointer.clone()).filter(|pointer| !pointer.is_empty());
        let mut report = Report::new(vec![diagnostic], None);
        report.diagnostics[0].line = e.position.map(|(line, _)| line);
        report.diagnostics[0].col = e.position.map(|(_, col)| col);
        // Best-effort: the exit-2 path is already reporting the parse error.
        let _ = std::fs::write(out, report.to_json());
    }
}

fn cmd_run(args: &[String]) -> Result<u8, String> {
    let json_out = flag_value(args, "--json")?;
    let trace_out = flag_value(args, "--trace")?;
    let metrics_out = flag_value(args, "--metrics")?;
    let resume_dir = flag_value(args, "--resume")?;
    let checkpoint_dir = flag_value(args, "--checkpoint")?;
    let checkpoint_every = uint_flag(args, "--checkpoint-every")?.unwrap_or(1);
    let stop_after = uint_flag(args, "--stop-after")?;
    let force = args.iter().any(|a| a == "--force");
    let progress = uint_flag(args, "--progress")?;
    let metrics_stream = flag_value(args, "--metrics-stream")?;
    let prom_out = flag_value(args, "--prom")?;
    let campaign = flag_value(args, "--campaign")?;

    let mut sim = match &resume_dir {
        Some(dir) => {
            // The plan was linted (and possibly --force'd) when the campaign
            // first started; a resume trusts the checkpointed config.
            let mut sim = RemdSimulation::resume(std::path::Path::new(dir))?;
            if let Some(n) = progress {
                sim = sim.with_progress(n);
            }
            eprintln!("resuming {} from {dir} ...", sim.config().title);
            sim
        }
        None => {
            let path = args.first().ok_or("run needs a config file path or --resume <dir>")?;
            if path.starts_with("--") {
                return Err(format!("run needs a config file path before the flags, got {path:?}"));
            }
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let mut cfg = SimulationConfig::from_json(&text).map_err(config_error)?;
            if let Some(n) = progress {
                cfg.progress_every = n;
            }

            // Pre-flight: the same pass as `repex check`; error-level findings
            // refuse to run unless --force.
            let preflight =
                Report::new(lint::lint_config(&cfg, &lint::LintOptions::default()), Some(&text));
            if !preflight.is_empty() {
                eprint!("{}", preflight.render_human(path));
            }
            if preflight.has_errors() {
                if force {
                    eprintln!(
                        "[--force: running despite {} error-level finding(s)]",
                        preflight.summary.errors
                    );
                } else {
                    eprintln!("refusing to run: fix the plan or pass --force");
                    return Ok(1);
                }
            }
            eprintln!("running {} ...", cfg.title);
            RemdSimulation::new(cfg)?
        }
    };
    // A resumed run keeps checkpointing into its own directory unless
    // redirected with --checkpoint.
    if let Some(dir) = checkpoint_dir.or_else(|| resume_dir.clone()) {
        sim = sim.with_checkpoints(dir, checkpoint_every);
    }
    if let Some(n) = stop_after {
        sim = sim.with_cycle_limit(n);
    }
    if metrics_stream.is_some() || prom_out.is_some() || campaign.is_some() {
        sim = sim.with_live_telemetry(repex::emm::LiveTelemetry {
            stream: metrics_stream.map(std::path::PathBuf::from),
            prom: prom_out.map(std::path::PathBuf::from),
            campaign,
        });
    }
    let recorder = if trace_out.is_some() || metrics_out.is_some() {
        let recorder = obs::Recorder::enabled();
        sim = sim.with_recorder(recorder.clone());
        recorder
    } else {
        obs::Recorder::disabled()
    };
    // Run, but flush the trace/metrics sinks whatever the outcome: a failed
    // or --stop-after'd campaign is exactly when the recorded tail matters.
    let run_result = sim.run();
    let mut flush_err = None;
    if let Some(out) = &trace_out {
        match std::fs::write(out, recorder.chrome_trace_json()) {
            Ok(()) => eprintln!("[trace written: {out} — open in chrome://tracing or Perfetto]"),
            Err(e) => flush_err = Some(format!("cannot write {out}: {e}")),
        }
    }
    if let Some(out) = &metrics_out {
        match std::fs::write(out, recorder.metrics_json()) {
            Ok(()) => eprintln!("[metrics written: {out}]"),
            Err(e) => flush_err = Some(format!("cannot write {out}: {e}")),
        }
    }
    // A run error outranks a flush error; report whichever happened first.
    let report = run_result?;
    if let Some(e) = flush_err {
        return Err(e);
    }

    println!("{}", report.summary());
    if !report.cycles.is_empty() {
        let mut table = TextTable::new(vec![
            "Cycle",
            "MD (s)",
            "EX (s)",
            "Data (s)",
            "RepEx (s)",
            "RP (s)",
            "Tc (s)",
        ]);
        for c in &report.cycles {
            let t = &c.timing;
            table.add_row(vec![
                format!("{}", c.cycle),
                f1(t.t_md),
                f1(t.t_ex_total()),
                f1(t.t_data),
                f1(t.t_repex_over),
                f1(t.t_rp_over),
                f1(t.total()),
            ]);
        }
        println!("\n{}", table.render());
    }
    for (letter, acc) in &report.acceptance {
        println!(
            "{letter}-exchange acceptance: {}/{} ({:.0}%)",
            acc.accepted,
            acc.attempts,
            acc.ratio() * 100.0
        );
    }

    if let Some(out) = json_out {
        // The document is built by the shared encoder so it is
        // byte-identical to what the campaign service serves from
        // `GET /campaigns/:id/results`.
        let body = report.to_json_doc().pretty();
        std::fs::write(&out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
        eprintln!("[report written: {out}]");
    }
    Ok(0)
}

fn cmd_example(args: &[String]) -> Result<(), String> {
    let kind = args.first().map_or("tremd", String::as_str);
    let cfg = match kind {
        "tremd" => SimulationConfig::t_remd(24, 6000, 4),
        "tsu" => {
            let mut cfg = SimulationConfig::t_remd(4, 6000, 4);
            cfg.title = "TSU-REMD example".into();
            cfg.dimensions = vec![
                DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
                DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
                DimensionConfig::Umbrella { dihedral: "phi".into(), count: 4, k_deg: 0.02 },
            ];
            cfg.resource.cluster = "stampede".into();
            cfg
        }
        "ph" => {
            let mut cfg = SimulationConfig::t_remd(8, 6000, 4);
            cfg.title = "pH-REMD example".into();
            cfg.dimensions = vec![DimensionConfig::Ph { min_ph: 3.0, max_ph: 10.0, count: 8 }];
            cfg
        }
        other => return Err(format!("unknown example {other:?} (tremd|tsu|ph)")),
    };
    println!("{}", cfg.to_json());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example_configs_are_valid() {
        for kind in ["tremd", "tsu", "ph"] {
            let args = vec![kind.to_string()];
            cmd_example(&args).unwrap();
        }
        assert!(cmd_example(&["bogus".to_string()]).is_err());
    }

    #[test]
    fn validate_round_trips_example() {
        let cfg = SimulationConfig::t_remd(8, 600, 2);
        let dir = std::env::temp_dir().join("repex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        std::fs::write(&path, cfg.to_json()).unwrap();
        cmd_validate(&[path.to_string_lossy().into_owned()]).unwrap();
    }

    #[test]
    fn run_writes_json_report() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 1);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("run.json");
        let out_path = dir.join("report.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();
        let code = cmd_run(&[
            cfg_path.to_string_lossy().into_owned(),
            "--json".into(),
            out_path.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0, "warnings must not affect the exit code");
        let report = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(report["n_replicas"], 4);
        assert!(report["makespan_s"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn run_checkpoints_stops_and_resumes() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 3);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-resume");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let ckpt_dir = dir.join("ckpt");
        let partial_out = dir.join("partial.json");
        let final_out = dir.join("final.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();

        let code = cmd_run(&[
            cfg_path.to_string_lossy().into_owned(),
            "--checkpoint".into(),
            ckpt_dir.to_string_lossy().into_owned(),
            "--stop-after".into(),
            "1".into(),
            "--json".into(),
            partial_out.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        assert!(ckpt_dir.join("checkpoint.json").exists(), "checkpoint written at the stop");
        let partial = json::parse(&std::fs::read_to_string(&partial_out).unwrap()).unwrap();
        assert_eq!(partial["cycles"].as_array().unwrap().len(), 1, "stopped after one cycle");

        let code = cmd_run(&[
            "--resume".into(),
            ckpt_dir.to_string_lossy().into_owned(),
            "--json".into(),
            final_out.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        let fin = json::parse(&std::fs::read_to_string(&final_out).unwrap()).unwrap();
        assert_eq!(fin["cycles"].as_array().unwrap().len(), 3, "resume finishes the campaign");
        assert!(
            fin["makespan_s"].as_f64().unwrap() > partial["makespan_s"].as_f64().unwrap(),
            "the virtual clock carries across the resume"
        );
    }

    #[test]
    fn resume_of_a_missing_checkpoint_is_a_clean_error() {
        assert!(cmd_run(&["--resume".into(), "/no/such/dir".into()]).is_err());
        assert!(cmd_run(&["--checkpoint".into()]).is_err(), "flag without a value");
    }

    #[test]
    fn run_writes_trace_and_metrics() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("traced.json");
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();
        assert_eq!(
            cmd_run(&[
                cfg_path.to_string_lossy().into_owned(),
                "--trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--metrics".into(),
                metrics_path.to_string_lossy().into_owned(),
            ])
            .unwrap(),
            0
        );
        let trace = json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(!trace["traceEvents"].as_array().unwrap().is_empty());
        let metrics = json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(metrics["exchange.T.attempts"].as_u64().unwrap() > 0);
    }

    #[test]
    fn trace_and_metrics_survive_a_failed_run() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 3);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-flush");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();
        // --checkpoint pointing at a plain file: the save after cycle 1
        // fails, erroring the run with a cycle of events already recorded.
        let bogus_ckpt = dir.join("not-a-dir");
        std::fs::write(&bogus_ckpt, "occupied").unwrap();
        let trace_path = dir.join("trace.json");
        let metrics_path = dir.join("metrics.json");
        let result = cmd_run(&[
            cfg_path.to_string_lossy().into_owned(),
            "--trace".into(),
            trace_path.to_string_lossy().into_owned(),
            "--metrics".into(),
            metrics_path.to_string_lossy().into_owned(),
            "--checkpoint".into(),
            bogus_ckpt.to_string_lossy().into_owned(),
        ]);
        assert!(result.is_err(), "checkpointing into a file must fail the run");
        let trace = json::parse(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(
            !trace["traceEvents"].as_array().unwrap().is_empty(),
            "the buffered trace is flushed despite the error"
        );
        let metrics = json::parse(&std::fs::read_to_string(&metrics_path).unwrap()).unwrap();
        assert!(metrics["exchange.T.attempts"].as_u64().unwrap() > 0);
    }

    #[test]
    fn run_streams_telemetry_and_prometheus() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-stream");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let stream_path = dir.join("snap.jsonl");
        let prom_path = dir.join("metrics.prom");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();
        let code = cmd_run(&[
            cfg_path.to_string_lossy().into_owned(),
            "--metrics-stream".into(),
            stream_path.to_string_lossy().into_owned(),
            "--prom".into(),
            prom_path.to_string_lossy().into_owned(),
            "--campaign".into(),
            "cli-smoke".into(),
        ])
        .unwrap();
        assert_eq!(code, 0);
        let text = std::fs::read_to_string(&stream_path).unwrap();
        let snaps: Vec<json::Value> = text.lines().map(|l| json::parse(l).unwrap()).collect();
        assert_eq!(snaps.len(), 2, "one snapshot per synchronous cycle");
        let last = snaps.last().unwrap();
        assert_eq!(last["campaign"], "cli-smoke");
        assert_eq!(last["done"], true);
        assert_eq!(last["completed"], 2);
        let prom = std::fs::read_to_string(&prom_path).unwrap();
        assert!(prom.contains("# TYPE repex_completed_units gauge"), "{prom}");
        assert!(prom.contains("# TYPE repex_exchange_acceptance_ratio gauge"), "{prom}");
        assert!(prom.contains("campaign=\"cli-smoke\""), "{prom}");
    }

    #[test]
    fn analyze_reads_back_a_recorded_trace() {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-analyze");
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let trace_path = dir.join("trace.json");
        let out_path = dir.join("analysis.json");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();
        assert_eq!(
            cmd_run(&[
                cfg_path.to_string_lossy().into_owned(),
                "--trace".into(),
                trace_path.to_string_lossy().into_owned(),
            ])
            .unwrap(),
            0
        );
        assert_eq!(
            analyze::cmd_analyze(&[
                trace_path.to_string_lossy().into_owned(),
                "--json".into(),
                out_path.to_string_lossy().into_owned(),
            ])
            .unwrap(),
            0
        );
        let doc = json::parse(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(doc["cycles"]["count"], 2);
        assert!(doc["cycles"]["tc"]["p50"].as_f64().unwrap() > 0.0);
        assert!(doc["critical_path"]["max_path_vs_eq1_drift"].as_f64().unwrap() < 1e-9);
        assert_eq!(doc["critical_path"]["dominant"], "md");
        assert!(doc["exchange_health"][0]["attempts"].as_u64().unwrap() > 0);
        assert!(doc["round_trips"].as_u64().is_some());
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        assert!(cmd_validate(&["/no/such/file.json".to_string()]).is_err());
        assert!(cmd_run(&[]).is_err());
        assert!(cmd_run(&["cfg.json".into(), "--trace".into()]).is_err());
        assert!(cmd_check(&[]).is_err());
        assert!(cmd_check(&["/no/such/file.json".to_string()]).is_err());
    }

    /// A structurally valid plan whose Salt groups need more cores than the
    /// pilot has: the L201 error-level finding.
    fn underprovisioned_salt_cfg() -> SimulationConfig {
        let mut cfg = SimulationConfig::t_remd(4, 600, 2);
        cfg.surrogate_steps = 5;
        cfg.dimensions = vec![
            DimensionConfig::Temperature { min_k: 273.0, max_k: 373.0, count: 4 },
            DimensionConfig::Salt { min_molar: 0.0, max_molar: 1.0, count: 4 },
        ];
        cfg.resource.cores = Some(2);
        cfg
    }

    #[test]
    fn check_exit_codes_track_error_findings() {
        let dir = std::env::temp_dir().join("repex-cli-check");
        std::fs::create_dir_all(&dir).unwrap();

        let clean = dir.join("clean.json");
        std::fs::write(&clean, SimulationConfig::t_remd(8, 600, 2).to_json()).unwrap();
        assert_eq!(cmd_check(&[clean.to_string_lossy().into_owned()]).unwrap(), 0);

        let bad = dir.join("bad.json");
        let diag = dir.join("diag.json");
        std::fs::write(&bad, underprovisioned_salt_cfg().to_json()).unwrap();
        let code = cmd_check(&[
            bad.to_string_lossy().into_owned(),
            "--json".into(),
            diag.to_string_lossy().into_owned(),
        ])
        .unwrap();
        assert_eq!(code, 1, "error-level findings exit 1");
        let doc = json::parse(&std::fs::read_to_string(&diag).unwrap()).unwrap();
        assert!(doc["summary"]["errors"].as_u64().unwrap() >= 1);
        assert!(doc["diagnostics"]
            .as_array()
            .unwrap()
            .iter()
            .any(|d| d["code"] == "L201" && d["severity"] == "error"));
    }

    #[test]
    fn run_refuses_error_findings_unless_forced() {
        let dir = std::env::temp_dir().join("repex-cli-force");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, underprovisioned_salt_cfg().to_json()).unwrap();
        let args = vec![path.to_string_lossy().into_owned()];
        assert_eq!(cmd_run(&args).unwrap(), 1, "refused without --force");
        let mut forced = args;
        forced.push("--force".into());
        assert_eq!(cmd_run(&forced).unwrap(), 0, "--force overrides the gate");
    }
}
