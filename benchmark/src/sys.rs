//! What the harness reads from the host: memory high-water mark, thread CPU
//! time, and the provenance block (`meta`) every record carries.

use crate::json::Value;
use std::process::Command;

/// Extract `VmHWM` (peak resident set) in MiB from `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line.split_whitespace().skip(1);
    let kib: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// `utime + stime` in seconds from `/proc/<pid>/task/<tid>/stat` text.
/// The command name (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`. `/proc` reports in USER_HZ = 100 ticks/s
/// on every Linux architecture.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11); // state is field 3; utime is 14
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// CPU seconds consumed so far by the calling thread (10 ms resolution).
pub fn thread_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat")
        .map_err(|e| format!("read /proc/thread-self/stat: {e}"))?;
    parse_stat_cpu_seconds(&stat).ok_or_else(|| "unparseable /proc/thread-self/stat".to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// How a working tree may be labelled. `clean` is only ever given to a tree
/// whose `git status --porcelain` is empty; anything else is `dirty`, and a
/// directory that is not a git checkout (the driver's) is `unversioned`.
pub fn tree_state(porcelain: Option<&str>) -> &'static str {
    match porcelain {
        None => "unversioned",
        Some("") => "clean",
        Some(_) => "dirty",
    }
}

/// The PR-5 provenance block: toolchain, revision + tree state, cores, seed,
/// wall-clock timestamp.
pub fn meta(seed: u64) -> Value {
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    let porcelain = rev.as_ref().and_then(|_| command_line("git", &["status", "--porcelain"]));
    let state = tree_state(porcelain.as_deref());
    let git_rev = match (&rev, state) {
        (Some(r), "clean") => r.clone(),
        (Some(r), _) => format!("{r}-dirty"),
        (None, _) => "unknown".to_string(),
    };
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs() as f64);
    Value::obj([
        (
            "rustc_version",
            Value::str(command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        ),
        ("git_rev", Value::str(git_rev)),
        ("tree_state", Value::str(state)),
        ("nproc", Value::Num(nproc() as f64)),
        ("seed", Value::Num(seed as f64)),
        ("timestamp", Value::Num(timestamp)),
    ])
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_in_mib() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\t12 pages\n"), None);
        assert_eq!(parse_vm_hwm_mib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn live_readers_work_on_this_host() {
        assert!(peak_rss_mib().unwrap() > 0.5);
        let before = thread_cpu_seconds().unwrap();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_seconds().unwrap() >= before);
    }

    #[test]
    fn stat_cpu_time_survives_hostile_command_names() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 5 1 1";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(3.0));
        assert_eq!(parse_stat_cpu_seconds("42 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
    }

    #[test]
    fn only_an_empty_porcelain_is_clean() {
        assert_eq!(tree_state(Some("")), "clean");
        assert_eq!(tree_state(Some(" M ISSUE.md")), "dirty");
        assert_eq!(tree_state(Some("?? benchmark/out/x")), "dirty");
        assert_eq!(tree_state(None), "unversioned");
    }
}
