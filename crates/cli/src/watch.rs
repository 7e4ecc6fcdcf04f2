//! `repex watch` — tail a `--metrics-stream` snapshot file live.
//!
//! `repex run --metrics-stream <path>` appends one `TelemetrySnapshot` per
//! exchange window as a single JSON line (each line is written with one
//! `write` call, so a tailer never sees a torn record except for a final
//! partial line, which is simply re-read on the next poll). This subcommand
//! consumes that stream from the outside: it follows the stream, one health
//! line per snapshot, until done, or with `--once` reports the latest
//! snapshot and exits (usage: `repex --help`).
//!
//! Because a `--resume`d campaign re-emits from its checkpointed snapshot
//! cursor, a stream that spans a crash can contain duplicate sequence
//! numbers; the reader decodes every line as a `TelemetrySnapshot` and
//! keeps the last record per `seq` (the resumed run's version) through
//! `obs::merge_snapshots`.
//!
//! A line that is not JSON, or is JSON but not a snapshot, is malformed.
//! Follow mode is torn-write tolerant: a malformed line at the current end
//! of the stream is treated as a write in progress (the cursor rewinds and
//! the next poll re-reads it whole), while a malformed line that already
//! has complete lines after it is skipped with a warning. `--once` keeps
//! the stricter contract — interior corruption is an error there, because
//! a one-shot report has no later poll to self-correct with.
//!
//! Exit codes: 0 = clean, 1 = an error-severity finding is active in the
//! latest snapshot, 2 = usage/IO/parse error (via `Err`).

use obs::json::{self, Encode, Value};
use obs::{obj, DimSnapshot, TelemetrySnapshot};
use std::io::{Read, Seek, SeekFrom};

/// Poll interval while following a live stream.
const POLL_MS: u64 = 150;

pub(crate) fn cmd_watch(args: &crate::Args) -> Result<u8, String> {
    let (path, json) = (args.path(), args.switch("--json"));
    if args.switch("--once") {
        let merged = read_merged(path)?;
        let latest = merged.last().expect("read_merged returns at least one snapshot");
        if json {
            println!("{}", watch_doc(path, &merged).pretty());
        } else {
            println!(
                "stream: {path} ({} snapshot(s), campaign {:?})",
                merged.len(),
                latest.campaign
            );
            println!("{}", health_line(latest));
            if latest.findings.is_empty() {
                println!("no live findings");
            }
            for f in &latest.findings {
                println!("{f}");
            }
        }
        return Ok(exit_code(latest));
    }
    follow(path, json)
}

/// Follow the stream until a `done: true` snapshot arrives, printing one
/// line per new snapshot.
fn follow(path: &str, json: bool) -> Result<u8, String> {
    // Fail fast on a missing file rather than silently polling forever.
    std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut offset = 0u64;
    let mut warned = false;
    let mut latest: Option<TelemetrySnapshot> = None;
    loop {
        let lines = read_complete_lines(path, &mut offset)?;
        for snap in parse_follow_batch(lines, &mut offset, &mut warned, path) {
            if json {
                println!("{}", snap.encode().compact());
            } else {
                println!("{}", health_line(&snap));
                for f in &snap.findings {
                    println!("  {f}");
                }
            }
            latest = Some(snap);
        }
        if let Some(done) = latest.as_ref().filter(|s| s.done) {
            return Ok(exit_code(done));
        }
        std::thread::sleep(std::time::Duration::from_millis(POLL_MS));
    }
}

/// Read the stream once: one snapshot per `seq` (the last record of each,
/// as `obs::merge_snapshots` keeps it), ascending, and at least one.
fn read_merged(path: &str) -> Result<Vec<TelemetrySnapshot>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let merged = obs::merge_snapshots(parse_stream(path, &text)?);
    if merged.is_empty() {
        return Err(format!("{path} holds no snapshots yet"));
    }
    Ok(merged)
}

/// The `--once --json` report on a merged stream. `acceptance` holds the
/// rows `repex analyze` writes as `exchange_health`, from the same encoder,
/// so a mid-run `watch --once --json` agrees with a post-hoc trace replay
/// over the same event prefix.
fn watch_doc(path: &str, merged: &[TelemetrySnapshot]) -> Value {
    let latest = &merged[merged.len() - 1];
    obj! {
        "stream" => path,
        "snapshots" => merged.len(),
        "latest" => latest,
        "acceptance" => latest.dims.iter().map(DimSnapshot::health).collect::<Vec<_>>(),
        "active_findings" => latest.findings,
        "done" => latest.done,
    }
}

/// 1 while an error-severity finding is active in the snapshot.
fn exit_code(snap: &TelemetrySnapshot) -> u8 {
    u8::from(obs::diag::has_errors(&snap.findings))
}

/// Decode the JSONL text. A torn *final* line (no trailing newline, not yet
/// a whole snapshot) is the writer mid-append and is ignored; a malformed
/// line anywhere else is corruption and errors.
fn parse_stream(path: &str, text: &str) -> Result<Vec<TelemetrySnapshot>, String> {
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        match json::from_str(line) {
            Ok(s) => out.push(s),
            Err(_) if i + 1 == lines.len() && !text.ends_with('\n') => {}
            Err(e) => return Err(format!("{path}:{}: malformed snapshot line: {e}", i + 1)),
        }
    }
    Ok(out)
}

/// New complete lines appended since `offset`, each with the byte offset it
/// starts at. Bytes after the last newline are a torn tail: left unconsumed
/// for the next poll.
fn read_complete_lines(path: &str, offset: &mut u64) -> Result<Vec<(u64, String)>, String> {
    let mut f = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    f.seek(SeekFrom::Start(*offset)).map_err(|e| format!("cannot seek {path}: {e}"))?;
    let mut buf = String::new();
    f.read_to_string(&mut buf).map_err(|e| format!("cannot read {path}: {e}"))?;
    let Some(end) = buf.rfind('\n') else { return Ok(Vec::new()) };
    let base = *offset;
    *offset += (end + 1) as u64;
    let mut out = Vec::new();
    let mut pos = 0usize;
    for raw in buf[..=end].split_inclusive('\n') {
        let start = base + pos as u64;
        pos += raw.len();
        let line = raw.trim();
        if !line.is_empty() {
            out.push((start, line.to_string()));
        }
    }
    Ok(out)
}

/// Parse one batch of newline-terminated lines from the follow tail. A
/// malformed line at the END of the batch may still be a torn write racing
/// the reader (a single `write` is not guaranteed atomic for a concurrent
/// reader on every filesystem): rewind the cursor to its start so the next
/// poll re-reads it whole. A malformed line with complete lines after it is
/// genuine corruption: skipped with a one-time warning, and the tail keeps
/// flowing — an interrupted `watch` must not kill a healthy campaign view.
fn parse_follow_batch(
    lines: Vec<(u64, String)>,
    offset: &mut u64,
    warned: &mut bool,
    path: &str,
) -> Vec<TelemetrySnapshot> {
    let mut out = Vec::with_capacity(lines.len());
    let last = lines.len().saturating_sub(1);
    for (i, (start, line)) in lines.into_iter().enumerate() {
        match json::from_str(&line) {
            Ok(s) => out.push(s),
            Err(_) if i == last => {
                *offset = start;
                break;
            }
            Err(e) => {
                if !*warned {
                    eprintln!("[watch] {path}: skipping malformed snapshot line: {e}");
                    *warned = true;
                }
            }
        }
    }
    out
}

/// One human line per snapshot: progress, clock, ETA, Tc percentiles,
/// per-dimension acceptance, fault counters.
fn health_line(s: &TelemetrySnapshot) -> String {
    let mut line = format!(
        "[watch] #{} {}/{} units  t {:.1}s  eta {:.1}s  Tc p50 {:.2}s p99 {:.2}s",
        s.seq, s.completed, s.total, s.time, s.eta_seconds, s.tc.p50, s.tc.p99,
    );
    for d in &s.dims {
        line.push_str(&format!("  acc[{}] {:.2}", d.kind, d.ratio()));
    }
    line.push_str(&format!("  failed {} stragglers {}", s.failed_tasks, s.stragglers));
    if s.done {
        line.push_str("  [done]");
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(seq: u64, done: bool, attempts: u64, accepted: u64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq,
            campaign: "watch-test".into(),
            time: seq as f64 * 10.0,
            completed: seq,
            total: 4,
            eta_seconds: 1.0,
            done,
            dims: vec![DimSnapshot { kind: 'T', attempts, accepted, ..Default::default() }],
            tc: obs::HistSummary { p50: 1.0, p99: 2.0, ..Default::default() },
            ..Default::default()
        }
    }

    fn snap_line(seq: u64, done: bool, attempts: u64, accepted: u64) -> String {
        snap(seq, done, attempts, accepted).encode().compact()
    }

    fn doc(path: &std::path::Path) -> Result<Value, String> {
        let path = path.to_string_lossy();
        read_merged(&path).map(|merged| watch_doc(&path, &merged))
    }

    /// `cmd_watch` following a stream, refused if it is still tailing after
    /// 30 s: follow mode only returns on a `done` snapshot it can read.
    fn follow_to_the_end(path: &std::path::Path, extra: &[&str]) -> u8 {
        let mut args = vec!["watch".to_string(), path.to_string_lossy().into_owned()];
        args.extend(extra.iter().map(|a| a.to_string()));
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(crate::dispatch(&args)));
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("watch is still following a finished stream after 30 s")
            .unwrap()
    }

    fn temp_stream(name: &str, body: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("repex-cli-watch");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, body).unwrap();
        path
    }

    #[test]
    fn once_merges_duplicate_seqs_and_reports_the_latest() {
        // A resume re-emits seq 2: the reader must keep the later record.
        let body = format!(
            "{}\n{}\n{}\n{}\n",
            snap_line(1, false, 2, 1),
            snap_line(2, false, 3, 1),
            snap_line(2, false, 4, 2),
            snap_line(3, true, 6, 3),
        );
        let path = temp_stream("dup.jsonl", &body);
        let doc = doc(&path).unwrap();
        assert_eq!(doc["snapshots"], 3, "4 lines, one duplicate seq");
        assert_eq!(doc["latest"]["seq"], 3);
        assert_eq!(doc["done"], true);
        assert_eq!(doc["acceptance"][0]["attempts"], 6);
        assert!((doc["acceptance"][0]["ratio"].as_f64().unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(doc["latest"], snap(3, true, 6, 3).encode(), "the latest record, whole");
    }

    #[test]
    fn torn_final_line_is_ignored() {
        for tail in ["{\"seq\": 2, \"camp", "{\"seq\": 2}"] {
            let body = format!("{}\n{tail}", snap_line(1, false, 2, 1));
            let path = temp_stream("torn.jsonl", &body);
            let doc = doc(&path).unwrap();
            assert_eq!(doc["snapshots"], 1, "the torn tail is not a record yet: {tail}");
            assert_eq!(doc["latest"]["seq"], 1);
        }
    }

    #[test]
    fn corrupt_interior_line_is_an_error() {
        // Not JSON, and JSON that is not a snapshot: both are corruption.
        for bad in ["not json", "{\"seq\": 1}"] {
            let body = format!("{bad}\n{}\n", snap_line(1, false, 2, 1));
            let path = temp_stream("corrupt.jsonl", &body);
            let e = doc(&path).unwrap_err();
            assert!(e.contains(":1: malformed snapshot line"), "{bad}: {e}");
        }
    }

    #[test]
    fn missing_or_empty_streams_are_clean_errors() {
        let watch = |args: &[&str]| {
            crate::tests::repex("watch", &args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
        };
        assert!(watch(&["/no/such/stream.jsonl", "--once"]).is_err());
        assert!(watch(&["--once"]).is_err(), "flag without a path");
        let path = temp_stream("empty.jsonl", "");
        assert!(doc(&path).is_err(), "no snapshots yet");
    }

    #[test]
    fn follow_mode_drains_a_finished_stream_and_exits() {
        let body = format!("{}\n{}\n", snap_line(1, false, 2, 1), snap_line(2, true, 4, 2));
        let path = temp_stream("follow.jsonl", &body);
        assert_eq!(follow_to_the_end(&path, &[]), 0, "done snapshot ends the tail");
        assert_eq!(follow_to_the_end(&path, &["--json"]), 0);
    }

    #[test]
    fn follow_batch_rewinds_on_torn_tail_and_skips_interior_corruption() {
        let mut warned = false;
        // Batch ending in a malformed fragment: possibly a torn write, so
        // the cursor rewinds to the fragment's start for the next poll.
        let mut offset = 100u64;
        let lines = vec![(0u64, snap_line(1, false, 2, 1)), (50u64, "{\"seq\":2,\"tr".to_string())];
        let snaps = parse_follow_batch(lines, &mut offset, &mut warned, "s");
        assert_eq!(snaps.len(), 1);
        assert_eq!(offset, 50, "cursor rewound to the torn line's start");
        assert!(!warned, "a possibly-torn tail is not corruption");
        // The same fragment with a complete line after it is genuine
        // corruption: skipped (once, with a warning), cursor untouched.
        let mut offset = 200u64;
        let lines = vec![(50u64, "{\"seq\":2,\"tr".to_string()), (80u64, snap_line(3, true, 6, 3))];
        let snaps = parse_follow_batch(lines, &mut offset, &mut warned, "s");
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].seq, 3);
        assert_eq!(offset, 200, "interior corruption does not rewind");
        assert!(warned);
    }

    #[test]
    fn follow_reassembles_a_torn_trailing_line_across_polls() {
        let dir = std::env::temp_dir().join("repex-cli-watch-torn-follow");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.jsonl");
        // The writer is caught mid-append: the first half of snapshot 2 is
        // on disk with no newline yet.
        let second = snap_line(2, false, 4, 2);
        let (head, tail) = second.split_at(second.len() / 2);
        std::fs::write(&path, format!("{}\n{head}", snap_line(1, false, 2, 1))).unwrap();
        let writer = {
            let path = path.clone();
            let tail = tail.to_string();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(400));
                use std::io::Write;
                let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                writeln!(f, "{tail}").unwrap();
                writeln!(f, "{}", snap_line(3, true, 6, 3)).unwrap();
            })
        };
        let code = follow_to_the_end(&path, &[]);
        writer.join().unwrap();
        assert_eq!(code, 0, "the reassembled line parses and done ends the tail");
    }

    #[test]
    fn error_findings_set_the_exit_code() {
        let mut snap = snap(1, true, 2, 1);
        snap.findings.push(obs::Diagnostic::error("W999", "synthetic"));
        let path = temp_stream("errors.jsonl", &format!("{}\n", snap.encode().compact()));
        let code =
            crate::tests::repex("watch", &[path.to_string_lossy().into_owned(), "--once".into()])
                .unwrap();
        assert_eq!(code, 1, "error-severity finding exits 1");
        assert_eq!(follow_to_the_end(&path, &[]), 1, "follow mode honors the same convention");
    }

    /// The acceptance criterion from the live-telemetry work: a mid-run
    /// `watch --once --json` must agree with a post-hoc `repex analyze`
    /// replay over the same event prefix, to 1e-9.
    #[test]
    fn once_json_acceptance_matches_analyze_replay_over_the_same_prefix() {
        let mut cfg = repex::config::SimulationConfig::t_remd(4, 600, 3);
        cfg.surrogate_steps = 5;
        let dir = std::env::temp_dir().join("repex-cli-watch-replay");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cfg_path = dir.join("cfg.json");
        let trace_path = dir.join("trace.json");
        let stream_path = dir.join("snap.jsonl");
        let ckpt_dir = dir.join("ckpt");
        std::fs::write(&cfg_path, cfg.to_json()).unwrap();

        // Stop mid-campaign: the stream and the trace both cover exactly
        // the first two cycles.
        let code = crate::tests::repex(
            "run",
            &[
                cfg_path.to_string_lossy().into_owned(),
                "--trace".into(),
                trace_path.to_string_lossy().into_owned(),
                "--metrics-stream".into(),
                stream_path.to_string_lossy().into_owned(),
                "--checkpoint".into(),
                ckpt_dir.to_string_lossy().into_owned(),
                "--stop-after".into(),
                "2".into(),
            ],
        )
        .unwrap();
        assert_eq!(code, 0);

        let doc = doc(&stream_path).unwrap();
        let events =
            obs::parse_chrome_trace(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
        let (replay, _) = crate::analyze::analyze(&events, obs::StragglerPolicy::default());
        let replayed = replay["exchange_health"].as_array().unwrap();
        let live = doc["acceptance"].as_array().unwrap();
        assert!(!replayed.is_empty(), "the prefix attempted exchanges");
        for h in replayed {
            let dim = h["dim"].as_u64().unwrap();
            let l = live
                .iter()
                .find(|l| l["dim"].as_u64() == Some(dim))
                .unwrap_or_else(|| panic!("live stream is missing dim {dim}"));
            assert_eq!(l["attempts"], h["attempts"], "dim {dim} attempts");
            assert_eq!(l["accepted"], h["accepted"], "dim {dim} accepted");
            let drift = (l["ratio"].as_f64().unwrap() - h["ratio"].as_f64().unwrap()).abs();
            assert!(drift < 1e-9, "dim {dim} acceptance drift {drift}");
        }
        assert_eq!(live, replayed, "one encoder writes both rows");
    }
}
