//! End-to-end checks of the resilience surface of the `repro` bin:
//! a chaos run must fail partially (non-zero exit, failure manifest in
//! `telemetry.json`, survivors completed), a transient fault plan plus
//! retries must converge to byte-identical artifacts and exit zero, an
//! interrupted run resumed with `--resume` must reproduce the
//! uninterrupted artifacts without re-executing journaled jobs, and the
//! whole output tree bar `timings.json` must not depend on `--jobs`.

use serde::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cestim-resilience-bins-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn repro(out: &Path, extra: &[&str]) -> std::process::ExitStatus {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "1", "--jobs", "4", "table1"])
        .arg("--out")
        .arg(out)
        .args(extra)
        .status()
        .expect("spawn repro")
}

fn read_telemetry(out: &Path) -> Value {
    let text = std::fs::read_to_string(out.join("telemetry.json")).expect("telemetry.json");
    serde_json::from_str(&text).expect("telemetry parses")
}

fn executor_stat(t: &Value, name: &str) -> u64 {
    t.get("executor")
        .and_then(|e| e.get(name))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("executor.{name} missing from telemetry"))
}

/// Every file under `out`, keyed by its `/`-separated relative path.
fn tree(out: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    let mut dirs = vec![out.to_path_buf()];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read output dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                dirs.push(path);
            } else {
                let name = path.strip_prefix(out).unwrap().to_string_lossy();
                let name = name.replace(std::path::MAIN_SEPARATOR, "/");
                files.insert(name, std::fs::read(&path).expect("read output file"));
            }
        }
    }
    files
}

/// A run's artifacts: its output tree without the run records (cache,
/// journal, telemetry, timings), the files CI's `diff -r` compares.
fn artifacts(out: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = tree(out);
    files.retain(|name, _| {
        !["cache/", "journal/", "telemetry.json", "timings.json"]
            .iter()
            .any(|record| name.starts_with(record))
    });
    files
}

fn sorted_lines(bytes: &[u8]) -> Vec<&[u8]> {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    lines.sort_unstable();
    lines
}

#[test]
fn output_tree_does_not_depend_on_the_worker_count() {
    let [serial, parallel] = ["1", "4"].map(|jobs| {
        let out = temp_dir(&format!("jobs{jobs}"));
        // The later `--jobs` wins over the helper's.
        assert!(repro(&out, &["--no-cache", "--jobs", jobs]).success());
        let files = tree(&out);
        std::fs::remove_dir_all(&out).unwrap();
        files
    });
    assert!(serial.contains_key("timings.json"));
    assert_eq!(
        serial.keys().collect::<Vec<_>>(),
        parallel.keys().collect::<Vec<_>>()
    );
    for (name, a) in &serial {
        let b = &parallel[name];
        match name.as_str() {
            // The one home of wall-clock figures.
            "timings.json" => {}
            // Completion order follows the workers; the set of lines does not.
            "journal/run.jsonl" => assert_eq!(sorted_lines(a), sorted_lines(b)),
            // Byte-equal once `executor.workers` reads the same.
            "telemetry.json" => {
                let serial =
                    String::from_utf8_lossy(a).replacen(r#""workers": 1,"#, r#""workers": 4,"#, 1);
                assert_eq!(serial, String::from_utf8_lossy(b));
            }
            _ => assert!(a == b, "{name} differs between --jobs 1 and --jobs 4"),
        }
    }
}

#[test]
fn chaos_run_fails_partially_with_manifest() {
    let out = temp_dir("chaos");
    // Arm the plan through the environment: the same path the CI
    // chaos-smoke job uses.
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "1", "--jobs", "4", "table1"])
        .arg("--out")
        .arg(&out)
        .env("CESTIM_EXEC_FAULT", "panic:7")
        .status()
        .expect("spawn repro");
    assert!(!status.success(), "chaos run must exit non-zero");

    let t = read_telemetry(&out);
    assert_eq!(t.get("fault_plan").and_then(Value::as_str), Some("panic:7"));
    assert!(executor_stat(&t, "panics_caught") > 0, "panics were caught");
    assert!(
        executor_stat(&t, "executed") > 0,
        "non-faulted jobs still ran"
    );

    let failures = t
        .get("failures")
        .and_then(Value::as_array)
        .expect("failure manifest");
    assert_eq!(failures.len(), 1, "one failed experiment");
    let f = &failures[0];
    assert_eq!(f.get("id").and_then(Value::as_str), Some("table1"));
    let errors = f.get("errors").and_then(Value::as_array).expect("errors");
    assert!(!errors.is_empty(), "manifest lists per-job errors");
    for e in errors {
        assert_eq!(e.get("key").and_then(Value::as_str).map(str::len), Some(32));
        assert_eq!(e.get("kind").and_then(Value::as_str), Some("Panicked"));
        let msg = e.get("message").and_then(Value::as_str).unwrap_or("");
        assert!(msg.contains("injected fault"), "got message {msg:?}");
    }
    std::fs::remove_dir_all(&out).unwrap();
}

#[test]
fn retried_transient_faults_converge_and_exit_zero() {
    let (clean, healed) = (temp_dir("retry-clean"), temp_dir("retry-healed"));
    assert!(repro(&clean, &[]).success(), "fault-free run");
    let status = repro(&healed, &["--fault", "panic:3", "--retries", "2"]);
    assert!(
        status.success(),
        "retried-then-succeeded suite must exit zero"
    );

    assert_eq!(
        artifacts(&clean),
        artifacts(&healed),
        "healed artifacts must be byte-identical to the fault-free run"
    );
    let t = read_telemetry(&healed);
    assert!(executor_stat(&t, "retries") > 0, "retries were taken");
    assert!(executor_stat(&t, "panics_caught") > 0);
    assert_eq!(
        t.get("failures").and_then(Value::as_array).map(Vec::len),
        Some(0),
        "no entries in the failure manifest"
    );
    for dir in [&clean, &healed] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn interrupted_run_resumes_byte_identical() {
    let (clean, out) = (temp_dir("resume-clean"), temp_dir("resume"));
    assert!(repro(&clean, &[]).success(), "fault-free run");

    // First run "dies" partway: the injected faults abort the experiment
    // after some jobs have been journaled and cached.
    let status = repro(&out, &["--fault", "panic:3"]);
    assert!(!status.success(), "interrupted run must exit non-zero");

    let status = repro(&out, &["--resume"]);
    assert!(status.success(), "resumed run must exit zero");
    assert_eq!(
        artifacts(&clean),
        artifacts(&out),
        "resumed artifacts must be byte-identical to an uninterrupted run"
    );
    let t = read_telemetry(&out);
    assert_eq!(t.get("resumed").and_then(Value::as_bool), Some(true));
    let resumed = executor_stat(&t, "jobs_resumed");
    assert!(resumed > 0, "journaled jobs were replayed from cache");
    assert_eq!(
        executor_stat(&t, "cache_hits"),
        resumed,
        "every resumed job came back as a cache hit"
    );
    assert_eq!(
        executor_stat(&t, "submitted"),
        resumed + executor_stat(&t, "executed"),
        "no journaled job was re-executed"
    );

    // A second resume skips the whole experiment via the journal.
    let status = repro(&out, &["--resume"]);
    assert!(status.success());
    let t = read_telemetry(&out);
    assert_eq!(executor_stat(&t, "submitted"), 0, "experiment skipped");
    for dir in [&clean, &out] {
        std::fs::remove_dir_all(dir).unwrap();
    }
}
