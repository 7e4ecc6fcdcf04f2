//! The repository benchmark. See `benchmark/README.md` for the catalogue.
//!
//! ```text
//! repex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! repex-benchmark [--seed <n>] [--seconds <s>]      # every workload, both modes
//! repex-benchmark --quick [--seed <n>]              # every check, small sizes
//! repex-benchmark compare <A> <B>
//! ```
//!
//! Build rule: no file under `src/` names a third-party crate, or calls a
//! function whose signature mentions one, so the harness keeps compiling
//! when the workspace drops its registry dependencies (ROADMAP item 1).

mod campaign;
mod catalogue;
mod checks;
mod compare;
mod json;
mod probes;
mod spans;
mod stats;
mod sys;
mod workloads;

use campaign::Plan;
use checks::Checks;
use json::Value;
use probes::Metrics;
use spans::Spans;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use workloads::{WorkloadSpec, WORKLOADS};

const USAGE: &str = "usage:
  repex-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  repex-benchmark [--seed <n>] [--seconds <s>]
  repex-benchmark --quick [--seed <n>]
  repex-benchmark compare <A> <B>";

/// Exit codes shared with the `repex` CLI: 0 clean, 1 a check failed or a
/// metric regressed, 2 usage.
const EXIT_FAILED: u8 = 1;
const EXIT_USAGE: u8 = 2;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args { workload: None, seed: 1, seconds: 10.0, trace: false, quick: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = Some(value()?.clone()),
            "--seed" => out.seed = value()?.parse().map_err(|_| "--seed takes a whole number")?,
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(out.seconds >= 0.0 && out.seconds <= 3600.0) {
                    return Err("--seconds must be between 0 and 3600".into());
                }
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => out.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn record_path(workload: &str, seed: u64, trace: bool) -> PathBuf {
    out_dir().join(format!("{workload}.seed{seed}.trace{}.json", u8::from(trace)))
}

/// `{"name": {"value": v, "unit": u}, ...}` for the catalogue's metrics of
/// this mode, in catalogue order. A missing or non-finite value is a failed
/// operation, and is left out so the driver refuses the line.
fn metrics_json(trace: bool, measured: Option<&Metrics>, checks: &mut Checks) -> Value {
    let names: Vec<(&str, &str)> = if trace {
        catalogue::PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        catalogue::END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let value = measured.and_then(|m| m.get(name)).copied();
        let reported = checks.attempt("metric.reported_and_finite", || {
            value.filter(|v| v.is_finite()).ok_or_else(|| format!("{name} = {value:?}"))
        });
        if let Some(v) = reported {
            fields.push((name, Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))])));
        }
    }
    Value::obj(fields)
}

/// 0 when everything passed, 1 otherwise.
fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_FAILED)
    }
}

/// Run one workload in one mode; print the contract's result line; write the
/// full record (and, when traced, the spans) under `benchmark/out/`.
fn run_one(w: &WorkloadSpec, args: &Args) -> ExitCode {
    let mut spans = Spans::new(w.name);
    let mut checks = Checks::default();
    let plan = Plan::full(args.seconds);
    let (measured, _) = spans.time("workload", |spans| {
        if args.trace {
            campaign::per_layer(spans, &mut checks, w, args.seed, &plan)
        } else {
            campaign::end_to_end(spans, &mut checks, w, args.seed, &plan)
        }
    });
    let metrics = metrics_json(args.trace, measured.as_ref().map(|m| &m.metrics), &mut checks);
    for failure in &checks.failures {
        eprintln!("FAILED {failure}");
    }
    let result = [
        ("correct", Value::Bool(checks.all_passed())),
        ("attempted", Value::Num(checks.attempted as f64)),
        ("failed", Value::Num(checks.failed as f64)),
        ("metrics", metrics),
    ];
    let raw = measured.iter().flat_map(|m| &m.raw).map(|(name, samples)| {
        (*name, Value::Arr(samples.iter().map(|s| Value::Num(*s)).collect()))
    });
    let mut record = vec![
        ("workload", Value::str(w.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(args.trace)))),
        ("seconds", Value::Num(args.seconds)),
    ];
    record.extend(result.iter().cloned());
    record.push(("samples", Value::obj(raw)));
    record.push(("failures", Value::Arr(checks.failures.iter().map(Value::str).collect())));
    record.push(("meta", sys::meta(args.seed)));

    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(out_dir())?;
        let path = record_path(w.name, args.seed, args.trace);
        std::fs::write(&path, Value::obj(record).render() + "\n")?;
        if args.trace {
            std::fs::write(path.with_extension("spans.json"), spans.to_json().render() + "\n")?;
        }
        Ok(())
    };
    if let Err(e) = write() {
        eprintln!("could not write the run record under {}: {e}", out_dir().display());
        return ExitCode::from(EXIT_FAILED);
    }
    println!("{}", Value::obj(result).render());
    exit_code(checks.all_passed())
}

/// Every workload in both modes, each in a child process of its own so
/// `peak_rss_mib` belongs to that workload alone. Prints one document with
/// the catalogue (units, bounds) and every run record.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::from(EXIT_FAILED);
        }
    };
    let mut runs = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        for trace in [false, true] {
            eprintln!("== {} --trace {}", w.name, u8::from(trace));
            let status = Command::new(&exe)
                .args(["--workload", w.name, "--seed", &args.seed.to_string()])
                .args([
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stdout(std::process::Stdio::null())
                .status();
            ok &= matches!(&status, Ok(s) if s.success());
            let record = std::fs::read_to_string(record_path(w.name, args.seed, trace))
                .map_err(|e| e.to_string())
                .and_then(|text| json::parse(&text));
            match record {
                Ok(r) => runs.push(r),
                Err(e) => {
                    eprintln!("{} --trace {}: no run record: {e}", w.name, u8::from(trace));
                    ok = false;
                }
            }
        }
    }
    let e2e = catalogue::END_TO_END.iter().map(|m| {
        Value::obj([
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
            ("bound", Value::Num(m.bound)),
        ])
    });
    let layers = catalogue::PER_LAYER.iter().map(|m| {
        Value::obj([
            ("name", Value::str(m.name)),
            ("unit", Value::str(m.unit)),
            ("better", Value::str(m.better.as_str())),
        ])
    });
    let workloads = WORKLOADS
        .iter()
        .map(|w| Value::obj([("name", Value::str(w.name)), ("why", Value::str(w.why))]));
    let doc = Value::obj([
        ("bench", Value::str("repex-benchmark")),
        ("meta", sys::meta(args.seed)),
        ("workloads", Value::Arr(workloads.collect())),
        ("end_to_end", Value::Arr(e2e.collect())),
        ("per_layer", Value::Arr(layers.collect())),
        ("runs", Value::Arr(runs)),
    ]);
    println!("{}", doc.render());
    exit_code(ok)
}

/// Every check on the small size set; timings are not reported.
fn run_quick(args: &Args) -> ExitCode {
    let mut checks = Checks::default();
    let plan = Plan::quick();
    for w in &WORKLOADS {
        let mut spans = Spans::new(w.name);
        let e2e = campaign::end_to_end(&mut spans, &mut checks, w, args.seed, &plan);
        metrics_json(false, e2e.as_ref().map(|m| &m.metrics), &mut checks);
        let layers = campaign::per_layer(&mut spans, &mut checks, w, args.seed, &plan);
        metrics_json(true, layers.as_ref().map(|m| &m.metrics), &mut checks);
    }
    for failure in &checks.failures {
        eprintln!("FAILED {failure}");
    }
    println!("quick: {} operations, {} failed", checks.attempted, checks.failed);
    exit_code(checks.all_passed())
}

fn run_compare(paths: &[String]) -> ExitCode {
    let [a, b] = paths else {
        eprintln!("compare takes exactly two files\n{USAGE}");
        return ExitCode::from(EXIT_USAGE);
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| compare::load_set(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            let (table, regressed) = compare::compare(&a, &b);
            print!("{table}");
            exit_code(!regressed)
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return run_compare(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    if args.quick {
        return run_quick(&args);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match WorkloadSpec::find(name) {
            Some(w) => run_one(w, &args),
            None => {
                let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name:?}; known: {}\n{USAGE}", known.join(", "));
                ExitCode::from(EXIT_USAGE)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv("--workload wide-1d --seed 42 --seconds 15 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: Some("wide-1d".into()),
                seed: 42,
                seconds: 15.0,
                trace: true,
                quick: false
            }
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!((d.workload, d.seed, d.trace, d.quick), (None, 1, false, false));
        assert!(parse_args(&argv("--quick --seed 3")).unwrap().quick);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed",
            "--seed x",
            "--seed -1",
            "--trace 2",
            "--seconds nan",
            "--seconds -1",
            "--seconds 1e9",
            "--bogus",
            "wide-1d",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn a_missing_metric_is_a_failed_operation() {
        let mut checks = Checks::default();
        let mut m = Metrics::new();
        for e in &catalogue::END_TO_END {
            m.insert(e.name, 1.5);
        }
        let full = metrics_json(false, Some(&m), &mut checks);
        assert_eq!(full.as_object().unwrap().len(), catalogue::END_TO_END.len());
        assert!(checks.all_passed());
        m.insert("setup_s", f64::NAN);
        let partial = metrics_json(false, Some(&m), &mut checks);
        assert_eq!(partial.as_object().unwrap().len(), catalogue::END_TO_END.len() - 1);
        assert_eq!(checks.failed, 1);
        metrics_json(true, None, &mut checks);
        assert_eq!(checks.failed as usize, 1 + catalogue::PER_LAYER.len());
    }
}
