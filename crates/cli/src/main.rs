//! `repex` — the command-line front end.
//!
//! The original RepEx is driven from the command line with a simulation
//! input file and a resource configuration; this binary is the equivalent.
//! Usage is `repex --help`. Every verb is one entry of [`VERBS`], which the
//! parser, the dispatch and `--help` all read, so what is printed is what is
//! parsed. A command line is parsed whole before any file is read: a
//! malformed one (an unknown, repeated or valueless flag, a bad value, a
//! second operand) exits 2 with the verb's usage.
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
use std::path::PathBuf;
use std::process::ExitCode;
use Kind::{Count, Number, Switch, Text};
use Operand::{Absent, Optional, Required};

/// What a flag takes: nothing, or a text, a `u64` or a finite `f64` shown as
/// its placeholder. A value never starts with `--`.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Text(&'static str),
    Count(&'static str),
    Number(&'static str),
}

/// A verb's one positional argument, as its placeholder.
#[derive(Clone, Copy)]
enum Operand {
    Absent,
    Optional(&'static str),
    Required(&'static str),
}

/// A flag: its name, what it takes and a one-line help text.
struct Flag(&'static str, Kind, &'static str);

struct Verb {
    name: &'static str,
    operand: Operand,
    run: fn(&Args) -> Result<u8, String>,
    summary: &'static str,
    flags: &'static [Flag],
}

const SERVER: Flag = Flag("--server", Text("<host:port>"), "the service (default 127.0.0.1:8642)");

/// The command line: every verb, its operand, the function that runs it, its
/// summary and its flags. Parsing, dispatch and `--help` all read it.
#[rustfmt::skip]
const VERBS: &[Verb] = &[
    Verb { name: "run", operand: Optional("<config.json>"), run: cmd_run,
        summary: "run a simulation; error-level findings of the pre-flight lint refuse it", flags: &[
        Flag("--json", Text("<out.json>"), "write the report (what `results` serves)"),
        Flag("--trace", Text("<trace.json>"), "Chrome trace (chrome://tracing or Perfetto)"),
        Flag("--metrics", Text("<metrics.json>"), "flat counters (failures, acceptances, ...)"),
        Flag("--metrics-stream", Text("<snap.jsonl>"), "append live telemetry snapshots"),
        Flag("--prom", Text("<metrics.prom>"), "Prometheus text, rewritten per snapshot"),
        Flag("--campaign", Text("<name>"), "label on both (default: the title)"),
        Flag("--progress", Count("<n>"), "print a run-health line every n cycles"),
        Flag("--force", Switch, "run despite error-level findings"),
        Flag("--checkpoint", Text("<dir>"), "write a resumable checkpoint (and on failure)"),
        Flag("--checkpoint-every", Count("<n>"), "cycles between checkpoints (default 1)"),
        Flag("--stop-after", Count("<n>"), "checkpoint and stop after n more cycles"),
        Flag("--resume", Text("<dir>"), "continue a checkpointed campaign (no config)"),
    ] },
    Verb { name: "watch", operand: Required("<snap.jsonl>"), run: watch::cmd_watch,
        summary: "tail a --metrics-stream file: health and W2xx findings per snapshot", flags: &[
        Flag("--once", Switch, "report the latest snapshot and exit"),
        Flag("--json", Switch, "machine-readable output"),
    ] },
    Verb { name: "check", operand: Required("<config.json>"), run: cmd_check,
        summary: "lint the plan without executing it (rule catalog: DESIGN.md §9)",
        flags: &[Flag("--json", Text("<diag.json>"), "write the diagnostics")] },
    Verb { name: "plan", operand: Required("<config.json>"), run: plan::cmd_plan,
        summary: "predict cost, acceptance and round trips; rank plans (DESIGN.md §14)", flags: &[
        Flag("--json", Text("<plan.json>"), "write the plan and its diagnostics"),
        Flag("--target-round-trip", Number("<s>"), "rank candidate plans against it"),
        Flag("--budget-core-hours", Number("<h>"), "a predicted cost over it is P010"),
        Flag("--no-search", Switch, "price the configured plan only"),
    ] },
    Verb { name: "analyze", operand: Required("<trace.json>"), run: analyze::cmd_analyze,
        summary: "run health from a --trace file: Tc, stragglers, critical path", flags: &[
        Flag("--json", Text("<out.json>"), "write the report and its diagnostics"),
        Flag("--straggler-z", Number("<z>"), "straggler z-score threshold (default 2)"),
        Flag("--straggler-ratio", Number("<r>"), "straggler stretch threshold (default 1.5)"),
    ] },
    Verb { name: "validate", operand: Required("<config.json>"), run: cmd_validate,
        summary: "check a configuration and print its shape", flags: &[] },
    Verb { name: "example-config", operand: Optional("tremd|tsu|ph"), run: cmd_example,
        summary: "print a starter config (default tremd)", flags: &[] },
    Verb { name: "capabilities", operand: Absent, run: cmd_capabilities,
        summary: "print the Table 1 comparison", flags: &[] },
    Verb { name: "serve", operand: Absent, run: serve::cmd_serve,
        summary: "the multi-tenant campaign service (DESIGN.md §13)", flags: &[
        Flag("--spool", Text("<dir>"), "the durable job queue (required)"),
        Flag("--cluster", Text("<preset>"), "the one shared pool (default small:64)"),
        Flag("--addr", Text("<host:port>"), "listen address (default 127.0.0.1:8642)"),
        Flag("--max-queue", Count("<n>"), "queued campaigns before S010 (default 64)"),
        Flag("--slice", Count("<cycles>"), "cycles per scheduling slice (default 4)"),
        Flag("--budget-core-hours", Number("<h>"), "predicted cost over it rejects (P010)"),
    ] },
    Verb { name: "submit", operand: Required("<config.json>"), run: serve::cmd_submit,
        summary: "queue a campaign; exit 1 when the service rejects it", flags: &[
        Flag("--campaign", Text("<id>"), "spool directory and metrics label (required)"),
        SERVER,
        Flag("--tenant", Text("<name>"), "fair-share account (default: default)"),
        Flag("--weight", Number("<w>"), "fair-share weight (default 1)"),
        Flag("--priority", Count("<p>"), "queue priority (default 0)"),
    ] },
    Verb { name: "status", operand: Optional("<id>"), run: serve::cmd_status,
        summary: "one campaign, or the whole queue",
        flags: &[SERVER, Flag("--json", Switch, "print the status document")] },
    Verb { name: "cancel", operand: Required("<id>"), run: serve::cmd_cancel,
        summary: "stop a campaign at its next consistency point (final checkpoint kept)",
        flags: &[SERVER] },
    Verb { name: "results", operand: Required("<id>"), run: serve::cmd_results,
        summary: "a campaign's report, byte-identical to `run --json`",
        flags: &[SERVER, Flag("--json", Text("<out.json>"), "write it to a file, not stdout")] },
    Verb { name: "metrics", operand: Absent, run: serve::cmd_metrics,
        summary: "the service's Prometheus exposition, one campaign label per tenant stream",
        flags: &[SERVER] },
];

impl Verb {
    /// The synopsis line (`repex <verb> <operand> [flags]`), the summary and
    /// one line per flag: what `--help` and a usage error print.
    fn usage(&self) -> String {
        let operand = match self.operand {
            Absent => String::new(),
            Optional(what) => format!(" [{what}]"),
            Required(what) => format!(" {what}"),
        };
        let flags = if self.flags.is_empty() { "" } else { " [flags]" };
        let mut out = format!("  repex {}{operand}{flags}\n      {}\n", self.name, self.summary);
        for Flag(name, kind, help) in self.flags {
            let value = match kind {
                Switch => "",
                Text(what) | Count(what) | Number(what) => what,
            };
            out += &format!("      {:<32}{help}\n", format!("{name} {value}"));
        }
        out
    }

    fn usage_error(&self, msg: &str) -> String {
        format!("{msg}\nusage:\n{}", self.usage().trim_end())
    }
}

/// A command line parsed against its verb's entry in [`VERBS`].
pub(crate) struct Args {
    verb: &'static Verb,
    operand: Option<String>,
    /// Each flag given with its value (empty for a switch), of the flag's kind.
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Parse `argv`, the verb first. Every refusal is a usage error.
    fn parse(argv: &[String]) -> Result<Args, String> {
        let (name, rest) = argv.split_first().ok_or("no command given (try --help)")?;
        let Some(verb) = VERBS.iter().find(|v| v.name == name) else {
            return Err(format!("unknown command {name:?} (try --help)"));
        };
        let refuse = |msg: String| Err(verb.usage_error(&msg));
        let mut args = Args { verb, operand: None, given: Vec::new() };
        let mut tokens = rest.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if args.operand.is_some() || matches!(verb.operand, Absent) {
                    return refuse(format!("unexpected operand {token:?}"));
                }
                args.operand = Some(token.clone());
                continue;
            }
            let Some(&Flag(name, kind, _)) = verb.flags.iter().find(|f| f.0 == token) else {
                return refuse(format!("unknown flag {token}"));
            };
            if args.given.iter().any(|(given, _)| *given == name) {
                return refuse(format!("{name} given twice"));
            }
            let value = match kind {
                Switch => String::new(),
                _ => match tokens.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return refuse(format!("{name} needs a value")),
                },
            };
            let expected = match kind {
                Count(_) => value.parse::<u64>().is_err().then_some("a count"),
                Number(_) => {
                    (!value.parse::<f64>().is_ok_and(f64::is_finite)).then_some("a finite number")
                }
                Switch | Text(_) => None,
            };
            if let Some(expected) = expected {
                return refuse(format!("{name} needs {expected}, got {value:?}"));
            }
            args.given.push((name, value));
        }
        if let (Required(what), None) = (verb.operand, &args.operand) {
            return refuse(format!("{name} needs {what}"));
        }
        Ok(args)
    }

    /// The operand of a verb that requires one (the parser refused the line
    /// without it).
    pub(crate) fn path(&self) -> &str {
        self.operand.as_deref().unwrap_or_default()
    }

    pub(crate) fn text(&self, name: &str) -> Option<&str> {
        debug_assert!(self.verb.flags.iter().any(|f| f.0 == name), "no flag {name}");
        self.given.iter().find(|(given, _)| *given == name).map(|(_, value)| value.as_str())
    }

    pub(crate) fn switch(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// The parser checked every value against its kind, so these parse.
    pub(crate) fn count(&self, name: &str) -> Option<u64> {
        self.text(name).and_then(|v| v.parse().ok())
    }

    pub(crate) fn number(&self, name: &str) -> Option<f64> {
        self.text(name).and_then(|v| v.parse().ok())
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Print the usage for no verb or `--help`; else parse `argv` (the verb
/// first) and run the verb.
fn dispatch(argv: &[String]) -> Result<u8, String> {
    if matches!(argv.first().map(String::as_str), None | Some("--help" | "-h")) {
        let verbs: String = VERBS.iter().map(Verb::usage).collect();
        print!(
            "repex — flexible replica-exchange molecular dynamics\n\n\
             USAGE (the operand and the flags in any order):\n{verbs}\n\
             Exit codes for check/plan/analyze/run: 0 clean, 1 error-level findings,\n\
             2 usage error (unparseable input always exits 2; a requested --json artifact\n\
             still records it as a C000 diagnostic).\n\
             See README.md for the configuration schema and diagnostics JSON.\n"
        );
        return Ok(0);
    }
    let args = Args::parse(argv)?;
    (args.verb.run)(&args)
}

/// Read and decode a config. When it does not decode, a `--json` artifact
/// named by `json_out` gets the typed C000 record first.
fn read_config(path: &str, json_out: Option<&str>) -> Result<(String, SimulationConfig), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    match SimulationConfig::from_json(&text) {
        Ok(cfg) => Ok((text, cfg)),
        Err(e) => {
            write_parse_failure_report(json_out, &e);
            Err(format!("config parse error: {e}"))
        }
    }
}

fn cmd_validate(args: &Args) -> Result<u8, String> {
    let (_, cfg) = read_config(args.path(), None)?;
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
    Ok(0)
}

/// `repex check`: lint a plan without executing it. Exit 0 = clean,
/// 1 = error-level findings, 2 = usage/parse error (via `Err`).
fn cmd_check(args: &Args) -> Result<u8, String> {
    let path = args.path();
    let json_out = args.text("--json");
    let (text, cfg) = read_config(path, json_out)?;
    let diags = lint::lint_config(&cfg);
    let report = Report::new(diags, Some(&text));
    print!("{}", report.render_human(path));
    if let Some(out) = json_out {
        write_out(out, &report.to_json(), "diagnostics")?;
    }
    Ok(u8::from(report.has_errors()))
}

/// Write an artifact and say so on stderr.
pub(crate) fn write_out(out: &str, body: &str, what: &str) -> Result<(), String> {
    std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("[{what} written: {out}]");
    Ok(())
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

fn cmd_run(args: &Args) -> Result<u8, String> {
    let json_out = args.text("--json");
    let trace_out = args.text("--trace");
    let metrics_out = args.text("--metrics");
    let resume_dir = args.text("--resume");
    if args.operand.is_some() == resume_dir.is_some() {
        return Err(args.verb.usage_error("run takes either <config.json> or --resume <dir>"));
    }
    // The sinks are written after the campaign: a path that cannot take a
    // file is refused before any work starts.
    let refused: Vec<String> =
        [json_out, trace_out, metrics_out].into_iter().flatten().filter_map(unwritable).collect();
    if !refused.is_empty() {
        return Err(refused.join("\nerror: "));
    }

    let mut sim = match resume_dir {
        Some(dir) => {
            // The plan was linted (and possibly --force'd) when the campaign
            // first started; a resume trusts the checkpointed config.
            let sim = RemdSimulation::resume(std::path::Path::new(dir))?;
            eprintln!("resuming {} from {dir} ...", sim.config().title);
            sim
        }
        None => {
            let path = args.path();
            // `run --json` is the report, never a C000 artifact.
            let (text, cfg) = read_config(path, None)?;

            // Pre-flight: the same pass as `repex check`; error-level findings
            // refuse to run unless --force.
            let preflight = Report::new(lint::lint_config(&cfg), Some(&text));
            if !preflight.is_empty() {
                eprint!("{}", preflight.render_human(path));
            }
            if preflight.has_errors() {
                if args.switch("--force") {
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
    if let Some(n) = args.count("--progress") {
        sim = sim.with_progress(n);
    }
    // A resumed run keeps checkpointing into its own directory unless
    // redirected with --checkpoint.
    if let Some(dir) = args.text("--checkpoint").or(resume_dir) {
        sim = sim.with_checkpoints(dir, args.count("--checkpoint-every").unwrap_or(1));
    }
    if let Some(n) = args.count("--stop-after") {
        sim = sim.with_cycle_limit(n);
    }
    let (stream, prom) = (args.text("--metrics-stream"), args.text("--prom"));
    let campaign = args.text("--campaign");
    if stream.is_some() || prom.is_some() || campaign.is_some() {
        sim = sim.with_live_telemetry(repex::emm::LiveTelemetry {
            stream: stream.map(PathBuf::from),
            prom: prom.map(PathBuf::from),
            campaign: campaign.map(String::from),
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
    let mut flush_errs = Vec::new();
    if let Some(out) = trace_out {
        match std::fs::write(out, recorder.chrome_trace_json()) {
            Ok(()) => eprintln!("[trace written: {out} — open in chrome://tracing or Perfetto]"),
            Err(e) => flush_errs.push(format!("cannot write {out}: {e}")),
        }
    }
    if let Some(out) = metrics_out {
        match std::fs::write(out, recorder.metrics_json()) {
            Ok(()) => eprintln!("[metrics written: {out}]"),
            Err(e) => flush_errs.push(format!("cannot write {out}: {e}")),
        }
    }
    // A run error outranks the flush errors, which are all reported.
    let report = run_result?;
    if !flush_errs.is_empty() {
        return Err(flush_errs.join("\nerror: "));
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
        write_out(out, &report.to_json_doc().pretty(), "report")?;
    }
    Ok(0)
}

/// Why `out` cannot take a file — its parent is not an existing directory,
/// or it is a directory itself — or `None` when it can.
fn unwritable(out: &str) -> Option<String> {
    let path = std::path::Path::new(out);
    let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
    let parent = parent.unwrap_or(std::path::Path::new("."));
    if !parent.is_dir() {
        Some(format!("cannot write {out}: {} is not a directory", parent.display()))
    } else if path.is_dir() {
        Some(format!("cannot write {out}: it is a directory"))
    } else {
        None
    }
}

fn cmd_capabilities(_: &Args) -> Result<u8, String> {
    println!("{}", repex::capabilities::render_table1_markdown());
    Ok(0)
}

fn cmd_example(args: &Args) -> Result<u8, String> {
    let kind = args.operand.as_deref().unwrap_or("tremd");
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
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run one verb's command line through the parser, as `main` does.
    pub(crate) fn repex(verb: &str, args: &[String]) -> Result<u8, String> {
        dispatch(&[&[verb.to_string()], args].concat())
    }

    #[test]
    fn example_configs_are_valid() {
        for kind in ["tremd", "tsu", "ph"] {
            let args = vec![kind.to_string()];
            repex("example-config", &args).unwrap();
        }
        assert!(repex("example-config", &["bogus".to_string()]).is_err());
    }

    #[test]
    fn validate_round_trips_example() {
        let cfg = SimulationConfig::t_remd(8, 600, 2);
        let dir = std::env::temp_dir().join("repex-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cfg.json");
        std::fs::write(&path, cfg.to_json()).unwrap();
        repex("validate", &[path.to_string_lossy().into_owned()]).unwrap();
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
        let code = repex(
            "run",
            &[
                cfg_path.to_string_lossy().into_owned(),
                "--json".into(),
                out_path.to_string_lossy().into_owned(),
            ],
        )
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

        let code = repex(
            "run",
            &[
                cfg_path.to_string_lossy().into_owned(),
                "--checkpoint".into(),
                ckpt_dir.to_string_lossy().into_owned(),
                "--stop-after".into(),
                "1".into(),
                "--json".into(),
                partial_out.to_string_lossy().into_owned(),
            ],
        )
        .unwrap();
        assert_eq!(code, 0);
        assert!(ckpt_dir.join("checkpoint.json").exists(), "checkpoint written at the stop");
        let partial = json::parse(&std::fs::read_to_string(&partial_out).unwrap()).unwrap();
        assert_eq!(partial["cycles"].as_array().unwrap().len(), 1, "stopped after one cycle");

        let code = repex(
            "run",
            &[
                "--resume".into(),
                ckpt_dir.to_string_lossy().into_owned(),
                "--json".into(),
                final_out.to_string_lossy().into_owned(),
            ],
        )
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
        assert!(repex("run", &["--resume".into(), "/no/such/dir".into()]).is_err());
        assert!(repex("run", &["--checkpoint".into()]).is_err(), "flag without a value");
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
            repex(
                "run",
                &[
                    cfg_path.to_string_lossy().into_owned(),
                    "--trace".into(),
                    trace_path.to_string_lossy().into_owned(),
                    "--metrics".into(),
                    metrics_path.to_string_lossy().into_owned(),
                ]
            )
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
        let result = repex(
            "run",
            &[
                cfg_path.to_string_lossy().into_owned(),
                "--trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--metrics".into(),
                metrics_path.to_string_lossy().into_owned(),
                "--checkpoint".into(),
                bogus_ckpt.to_string_lossy().into_owned(),
            ],
        );
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
        let code = repex(
            "run",
            &[
                cfg_path.to_string_lossy().into_owned(),
                "--metrics-stream".into(),
                stream_path.to_string_lossy().into_owned(),
                "--prom".into(),
                prom_path.to_string_lossy().into_owned(),
                "--campaign".into(),
                "cli-smoke".into(),
            ],
        )
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
            repex(
                "run",
                &[
                    cfg_path.to_string_lossy().into_owned(),
                    "--trace".into(),
                    trace_path.to_string_lossy().into_owned(),
                ]
            )
            .unwrap(),
            0
        );
        assert_eq!(
            repex(
                "analyze",
                &[
                    trace_path.to_string_lossy().into_owned(),
                    "--json".into(),
                    out_path.to_string_lossy().into_owned(),
                ]
            )
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
        assert!(repex("validate", &["/no/such/file.json".to_string()]).is_err());
        assert!(repex("run", &[]).is_err());
        assert!(repex("run", &["cfg.json".into(), "--trace".into()]).is_err());
        assert!(repex("check", &[]).is_err());
        assert!(repex("check", &["/no/such/file.json".to_string()]).is_err());
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
        assert_eq!(repex("check", &[clean.to_string_lossy().into_owned()]).unwrap(), 0);

        let bad = dir.join("bad.json");
        let diag = dir.join("diag.json");
        std::fs::write(&bad, underprovisioned_salt_cfg().to_json()).unwrap();
        let code = repex(
            "check",
            &[
                bad.to_string_lossy().into_owned(),
                "--json".into(),
                diag.to_string_lossy().into_owned(),
            ],
        )
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
        assert_eq!(repex("run", &args).unwrap(), 1, "refused without --force");
        let mut forced = args;
        forced.push("--force".into());
        assert_eq!(repex("run", &forced).unwrap(), 0, "--force overrides the gate");
    }

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    /// The operand may sit anywhere among the flags, and a valued flag's
    /// value is never the operand: `status`'s `--json` is a switch,
    /// `results`'s `--json <out.json>` takes a value.
    #[test]
    fn the_operand_skips_flags_and_their_values() {
        let status = parse(&["status", "--server", "127.0.0.1:1", "camp-a", "--json"]).unwrap();
        assert_eq!(status.operand.as_deref(), Some("camp-a"));
        assert_eq!(status.text("--server"), Some("127.0.0.1:1"));
        assert!(status.switch("--json"));
        assert_eq!(parse(&["status", "--json", "--server", "x"]).unwrap().operand, None);
        assert_eq!(parse(&["status", "--json", "camp-a"]).unwrap().path(), "camp-a");
        let results = parse(&["results", "--json", "out.json", "camp-a"]).unwrap();
        assert_eq!(results.path(), "camp-a");
        assert_eq!(results.text("--json"), Some("out.json"));
        let check = parse(&["check", "--json", "d.json", "cfg.json"]).unwrap();
        assert_eq!((check.path(), check.text("--json")), ("cfg.json", Some("d.json")));
    }

    #[test]
    fn values_are_read_by_their_kind() {
        let serve =
            parse(&["serve", "--spool", "s", "--max-queue", "3", "--budget-core-hours", "-1"]);
        let serve = serve.unwrap();
        assert_eq!(serve.count("--max-queue"), Some(3));
        assert_eq!(serve.number("--budget-core-hours"), Some(-1.0), "a leading - is a value");
        assert_eq!(serve.count("--slice"), None);
        assert!(!parse(&["plan", "cfg.json"]).unwrap().switch("--no-search"));
        // The service judges a finite weight, 0 included (S006).
        assert_eq!(parse(&["submit", "c", "--weight", "0"]).unwrap().number("--weight"), Some(0.0));
    }

    /// Each refusal names what is wrong and ends with the verb's usage.
    #[test]
    fn malformed_command_lines_are_refused_with_the_usage() {
        for (argv, says) in [
            (&["check", "c.json", "--jsno", "d.json"][..], "unknown flag --jsno"),
            (&["check", "c.json", "--json", "--force"], "--json needs a value"),
            (&["check", "c.json", "--json"], "--json needs a value"),
            (&["plan", "--help"], "unknown flag --help"),
            (&["plan", "c.json", "--budget-core-hours", "nan"], "needs a finite number"),
            (&["serve", "--spool", "s", "--budget-core-hours", "NaN"], "needs a finite number"),
            (&["submit", "c.json", "--weight", "inf"], "needs a finite number"),
            (&["submit", "c.json", "--priority", "-1"], "--priority needs a count"),
            (&["run", "c.json", "--stop-after", "two"], "--stop-after needs a count"),
            (&["check", "c.json", "--json", "a", "--json", "b"], "--json given twice"),
            (&["check", "c.json", "d.json"], "unexpected operand \"d.json\""),
            (&["metrics", "extra"], "unexpected operand"),
            (&["watch", "--once"], "watch needs <snap.jsonl>"),
            (&["run", "c.json", "--resume", "ckpt"], "either <config.json> or --resume"),
        ] {
            let verb = argv[0];
            let e = match parse(argv) {
                Ok(args) if verb == "run" => (args.verb.run)(&args).unwrap_err(),
                Ok(_) => panic!("{argv:?} parsed"),
                Err(e) => e,
            };
            assert!(e.lines().next().unwrap().contains(says), "{argv:?}: {e}");
            assert!(e.contains(&format!("usage:\n  repex {verb}")), "{argv:?}: {e}");
        }
        assert!(matches!(parse(&["frobnicate"]), Err(e) if e.contains("unknown command")));
    }

    #[test]
    fn every_verb_and_flag_is_declared_once() {
        for (i, verb) in VERBS.iter().enumerate() {
            assert!(VERBS[..i].iter().all(|v| v.name != verb.name), "{} twice", verb.name);
            for (j, flag) in verb.flags.iter().enumerate() {
                assert!(flag.0.starts_with("--"), "{} {}", verb.name, flag.0);
                assert!(verb.flags[..j].iter().all(|f| f.0 != flag.0), "{} {}", verb.name, flag.0);
            }
        }
    }

    /// Every `repex …` and `cargo run --release -p repex-cli -- …` line in
    /// the fenced blocks of README.md and EXPERIMENTS.md parses against
    /// [`VERBS`]. Nothing runs: a `\` continuation is joined, and a `#`
    /// comment, a trailing `&`, a redirection or a pipe ends the command.
    #[test]
    fn every_documented_invocation_parses() {
        let mut parsed = 0;
        for doc in ["README.md", "EXPERIMENTS.md"] {
            let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap();
            let (mut fenced, mut line) = (false, String::new());
            for (n, raw) in text.lines().enumerate() {
                if raw.trim_start().starts_with("```") {
                    fenced = !fenced;
                    continue;
                }
                if !fenced {
                    continue;
                }
                if let Some(head) = raw.strip_suffix('\\') {
                    line.push_str(head);
                    continue;
                }
                line.push_str(raw);
                let command = std::mem::take(&mut line);
                let words: Vec<&str> = command
                    .split_whitespace()
                    .take_while(|w| {
                        !w.starts_with(['#', '&', '|', '<', '>']) && !w.starts_with("2>")
                    })
                    .collect();
                let argv = match words.as_slice() {
                    ["repex", argv @ ..] => argv,
                    ["cargo", "run", "--release", "-p", "repex-cli", "--", argv @ ..] => argv,
                    _ => continue,
                };
                if let Err(e) = parse(argv) {
                    panic!("{doc}:{}: {command}\n{e}", n + 1);
                }
                parsed += 1;
            }
        }
        assert!(parsed >= 30, "only {parsed} documented invocations found");
    }
}
