//! End-to-end exit-code matrix for the analysis-family subcommands.
//!
//! `check`, `plan` and `analyze` share one contract (documented in the
//! `repex` usage text), and `run` honors it before it starts: 0 = clean,
//! 1 = error-level findings, 2 = the input itself could not be read or
//! parsed. On a parse failure every one of the three still honors `--json`
//! by writing an artifact with a single typed `C000` error record, so
//! downstream tooling never has to distinguish "no artifact" from "bad
//! input". A malformed command line is a usage error too: it exits 2 with
//! the verb's synopsis before anything is read or written.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The shared parse-failure code every artifact must carry.
const PARSE_FAILURE_CODE: &str = "C000";

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repex")).args(args).output().expect("repex binary must spawn")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("repex must exit, not signal")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repex-exit-codes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp scratch dir");
    dir.join(name)
}

fn tremd() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/configs/tremd.json")
}

#[test]
fn clean_inputs_exit_zero() {
    for args in [vec!["check", tremd()], vec!["plan", tremd(), "--no-search"]] {
        let out = run(&args);
        assert_eq!(code(&out), 0, "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
}

#[test]
fn error_level_findings_exit_one() {
    // A config that parses but cannot run: steps-per-cycle 0 is C020.
    let text = std::fs::read_to_string(tremd()).expect("example config");
    let broken = text.replace("\"steps-per-cycle\": 6000", "\"steps-per-cycle\": 0");
    assert_ne!(text, broken, "the example config shape moved under this test");
    let path = scratch("steps-zero.json");
    std::fs::write(&path, broken).expect("write broken config");
    for sub in ["check", "plan", "run"] {
        let out = run(&[sub, path.to_str().expect("utf-8 temp path")]);
        assert_eq!(code(&out), 1, "{sub} must report findings, not a parse error");
    }
}

#[test]
fn missing_inputs_exit_two() {
    for args in [
        ["check", "/no/such/config.json"],
        ["plan", "/no/such/config.json"],
        ["analyze", "/no/such/trace.json"],
    ] {
        assert_eq!(code(&run(&args)), 2, "{args:?}");
    }
}

#[test]
fn unparseable_config_exits_two_and_writes_a_c000_artifact() {
    let bad = scratch("not-json.json");
    std::fs::write(&bad, "{ this is not json").expect("write bad config");
    for sub in ["check", "plan"] {
        let artifact = scratch(&format!("{sub}-c000.json"));
        let out = run(&[
            sub,
            bad.to_str().expect("utf-8 temp path"),
            "--json",
            artifact.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(code(&out), 2, "{sub} on unparseable input");
        let written = std::fs::read_to_string(&artifact)
            .unwrap_or_else(|_| panic!("{sub} must still write the --json artifact"));
        assert!(
            written.contains(&format!("\"{PARSE_FAILURE_CODE}\"")),
            "{sub} artifact: {written}"
        );
        assert!(written.contains("\"error\""), "{sub} artifact severity: {written}");
    }
}

/// A config that is JSON but not a config: the C000 record names the value
/// by pointer and says where it is in the file.
#[test]
fn a_config_of_the_wrong_shape_gets_a_c000_with_its_line_and_column() {
    let text = std::fs::read_to_string(tremd()).expect("example config");
    let broken = text.replace("\"count\": 24", "\"count\": 8.5");
    assert_ne!(text, broken, "the example config shape moved under this test");
    let path = scratch("count-fraction.json");
    std::fs::write(&path, &broken).expect("write broken config");
    let line = 1 + broken.lines().position(|l| l.contains("8.5")).expect("the edited line");
    for sub in ["check", "plan"] {
        let artifact = scratch(&format!("{sub}-c000-shape.json"));
        let out = run(&[
            sub,
            path.to_str().expect("utf-8 temp path"),
            "--json",
            artifact.to_str().expect("utf-8 temp path"),
        ]);
        assert_eq!(code(&out), 2, "{sub}: a config that does not decode is a usage error");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("/dimensions/0/count: expected an unsigned integer"), "{stderr}");
        let written = std::fs::read_to_string(&artifact).expect("the --json artifact");
        let doc = obs::json::parse(&written).expect("the artifact is JSON");
        let record = &doc["diagnostics"][0];
        assert_eq!(record["code"], PARSE_FAILURE_CODE, "{written}");
        assert_eq!(record["path"], "/dimensions/0/count", "{written}");
        assert_eq!(record["line"], line, "{written}");
        assert!(record["col"].as_u64().is_some_and(|col| col > 1), "{written}");
    }
}

#[test]
fn malformed_trace_exits_two_and_writes_a_c000_artifact() {
    let bad = scratch("not-a-trace.json");
    std::fs::write(&bad, "][").expect("write bad trace");
    let artifact = scratch("analyze-c000.json");
    let out = run(&[
        "analyze",
        bad.to_str().expect("utf-8 temp path"),
        "--json",
        artifact.to_str().expect("utf-8 temp path"),
    ]);
    assert_eq!(code(&out), 2);
    let written =
        std::fs::read_to_string(&artifact).expect("analyze must still write the artifact");
    assert!(written.contains(&format!("\"{PARSE_FAILURE_CODE}\"")), "analyze artifact: {written}");
}

/// A fresh, empty working directory for one invocation.
fn empty_dir(name: &str) -> PathBuf {
    let dir = scratch(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp scratch dir");
    dir
}

/// `args` run from the empty directory `dir`, where relative outputs land.
fn run_in(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repex"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repex binary must spawn")
}

/// Malformed command lines. Each exits 2 before reading or writing
/// anything, and prints the verb's synopsis line: the one `repex --help`
/// prints for it.
#[test]
fn malformed_command_lines_exit_two_with_the_synopsis_and_write_nothing() {
    let help = String::from_utf8(run(&["--help"]).stdout).expect("utf-8 usage");
    // A real checkpoint, so `run <config> --resume <dir>` could resume it.
    let ckpt = empty_dir("usage-ckpt");
    let ckpt = ckpt.to_str().expect("utf-8 temp path");
    assert_eq!(code(&run(&["run", tremd(), "--checkpoint", ckpt, "--stop-after", "1"])), 0);
    let cases: [&[&str]; 7] = [
        // An unknown flag.
        &["check", tremd(), "--jsno", "d.json"],
        // A valued flag followed by a flag instead of its value.
        &["check", tremd(), "--json", "--force"],
        // --help is top-level only.
        &["plan", "--help"],
        // A number that is not finite.
        &["plan", tremd(), "--budget-core-hours", "nan", "--json", "plan.json"],
        // A repeated flag.
        &["check", tremd(), "--json", "a.json", "--json", "b.json"],
        // A second operand.
        &["check", tremd(), tremd(), "--json", "d.json"],
        // A config and a checkpoint to resume.
        &["run", tremd(), "--resume", ckpt, "--json", "report.json"],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let dir = empty_dir(&format!("usage-{i}"));
        let out = run_in(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{args:?}: {stderr}");
        let synopsis = help
            .lines()
            .map(str::trim)
            .find(|l| l.starts_with(&format!("repex {} ", args[0])))
            .expect("the verb's synopsis in --help");
        assert!(stderr.contains(synopsis), "{args:?} must print {synopsis:?}: {stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).expect("scratch").collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
}

/// The operand may follow the flags: `check --json d.json <config>` checks
/// the config and writes what `check <config> --json d.json` writes.
#[test]
fn the_operand_may_follow_the_flags() {
    let dir = empty_dir("operand-last");
    let out = run_in(&dir, &["check", "--json", "d.json", tremd()]);
    assert_eq!(code(&out), 0, "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(code(&run_in(&dir, &["check", tremd(), "--json", "first.json"])), 0);
    let written = std::fs::read_to_string(dir.join("d.json")).expect("d.json written");
    assert_eq!(written, std::fs::read_to_string(dir.join("first.json")).expect("first.json"));
}

/// `run` writes `--json`, `--trace` and `--metrics` after the campaign and
/// `--prom` after the first cycle, so a path that cannot take a file is
/// refused before the campaign starts: exit 2, no `running` banner and no
/// checkpoint.
#[test]
fn an_unwritable_sink_is_refused_before_the_campaign_starts() {
    for (flag, sink) in [("--json", "/no/dir/r.json"), ("--prom", "/no/dir/m.prom")] {
        let ckpt = empty_dir("sink-preflight").join("ck");
        let out =
            run(&["run", tremd(), "--checkpoint", ckpt.to_str().expect("utf-8 path"), flag, sink]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(code(&out), 2, "{flag}: {stderr}");
        let refused = format!("cannot write {sink}: /no/dir is not a directory");
        assert!(stderr.contains(&refused), "{flag}: {stderr}");
        assert!(!stderr.contains("running "), "{flag}: the campaign started: {stderr}");
        assert!(!ckpt.exists(), "{flag}: the campaign ran: {} exists", ckpt.display());
    }
}

/// Every sink that cannot be written is named, in flag order, not only
/// the last one.
#[test]
fn every_unwritable_sink_is_named() {
    let out = run(&["run", tremd(), "--trace", "/no/dir/t.json", "--metrics", "/no/dir/m.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(code(&out), 2, "{stderr}");
    let trace = stderr.find("cannot write /no/dir/t.json").expect("the trace sink named");
    let metrics = stderr.find("cannot write /no/dir/m.json").expect("the metrics sink named");
    assert!(trace < metrics, "{stderr}");
}
