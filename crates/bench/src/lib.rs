//! # cestim-bench
//!
//! Reproduction harness for the cestim workspace.
//!
//! * `repro` binary — regenerates **every table and figure** of Klauser et
//!   al. (ISCA 1998): `cargo run --release -p cestim-bench --bin repro --
//!   all` writes text and JSON per experiment under `results/`.
//! * `fuzz` binary — seeded differential fuzzer over the simulator stack.
//!
//! Throughput is measured by the standalone `perfbench/` package, the
//! repository's one benchmark (see docs/PERFORMANCE.md).
//!
//! This crate intentionally contains no library logic beyond shared helper
//! functions for its binaries; all measurement code lives in `cestim-sim`.

#![warn(missing_docs)]

use cestim_obs::Tracer;
use cestim_pipeline::PipelineStats;
use std::io::Write;
use std::path::Path;

/// Creates the parent directory of `path`, if it names one.
fn create_parent(path: &Path) -> std::io::Result<()> {
    match path.parent().filter(|d| !d.as_os_str().is_empty()) {
        Some(dir) => std::fs::create_dir_all(dir),
        None => Ok(()),
    }
}

/// Writes an experiment's text and JSON artifacts under `dir`.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the files.
pub fn write_artifacts(
    dir: &Path,
    id: &str,
    text: &str,
    json: &serde_json::Value,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{id}.txt")), text)?;
    write_json(&dir.join(format!("{id}.json")), json)
}

/// Writes `value` as pretty-printed JSON to `path`. Every JSON file the
/// binaries write goes through here: the artifacts, `telemetry.json`,
/// `timings.json` and the `--metrics-out` snapshot.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_json<T: serde::Serialize + ?Sized>(path: &Path, value: &T) -> std::io::Result<()> {
    create_parent(path)?;
    std::fs::write(path, serde_json::to_string_pretty(value)?)
}

/// Writes a recorded trace as JSONL to `path`; returns the event count.
///
/// # Errors
///
/// Returns any I/O error from creating or writing the file.
pub fn write_trace(path: &Path, tracer: &Tracer) -> std::io::Result<u64> {
    create_parent(path)?;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let n = tracer.export_jsonl(&mut w)?;
    w.flush()?;
    Ok(n)
}

/// Renders the key derived rates of one run as an aligned text block,
/// using [`PipelineStats`]' rate helpers.
pub fn stats_summary(stats: &PipelineStats) -> String {
    format!(
        "cycles            {:>12}\n\
         committed insts   {:>12}\n\
         ipc               {:>12.3}\n\
         mispredict rate   {:>11.2}%  (committed)\n\
         speculation ratio {:>12.3}\n\
         squashed fraction {:>11.2}%\n\
         gated cycles      {:>11.2}%\n\
         recoveries/kinst  {:>12.2}\n\
         icache miss rate  {:>11.2}%\n\
         dcache miss rate  {:>11.2}%\n",
        stats.cycles,
        stats.committed_insts,
        stats.ipc(),
        stats.mispredict_rate_committed() * 100.0,
        stats.speculation_ratio(),
        stats.squashed_fraction() * 100.0,
        stats.gated_fraction() * 100.0,
        stats.recoveries_per_kilo_inst(),
        stats.icache_miss_rate() * 100.0,
        stats.dcache_miss_rate() * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_land_on_disk() {
        let dir = std::env::temp_dir().join("cestim-bench-test");
        let _ = std::fs::remove_dir_all(&dir);
        write_artifacts(&dir, "x", "hello", &serde_json::json!({"a": 1})).unwrap();
        assert_eq!(std::fs::read_to_string(dir.join("x.txt")).unwrap(), "hello");
        let j: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("x.json")).unwrap()).unwrap();
        assert_eq!(j["a"], 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn obs_writers_land_on_disk() {
        let dir = std::env::temp_dir().join("cestim-bench-obs-test");
        let _ = std::fs::remove_dir_all(&dir);

        let mut tracer = Tracer::unbounded();
        tracer.record(cestim_obs::TraceEvent::Gate {
            cycle: 1,
            low_confidence: 2,
        });
        assert_eq!(write_trace(&dir.join("t.jsonl"), &tracer).unwrap(), 1);
        let lines = std::fs::read_to_string(dir.join("t.jsonl")).unwrap();
        assert_eq!(lines.lines().count(), 1);

        let reg = cestim_obs::Registry::new();
        reg.counter("x", &[]).add(3);
        write_json(&dir.join("m.json"), &reg.snapshot()).unwrap();
        let m: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("m.json")).unwrap()).unwrap();
        assert!(m.to_string().contains('x'));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_writers_land_on_disk() {
        use cestim_obs::export::{write_perfetto, write_prometheus};
        let dir = std::env::temp_dir().join("cestim-bench-telemetry-test");
        let _ = std::fs::remove_dir_all(&dir);

        let collector = cestim_obs::span::SpanCollector::new();
        let mut buf = collector.buffer("main");
        let span = buf.open("root", cestim_obs::span::SpanId::NONE, &[]);
        buf.close(span);
        buf.flush();
        let spans = collector.drain();
        write_perfetto(dir.join("trace.json"), &spans).unwrap();
        let j: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(dir.join("trace.json")).unwrap())
                .unwrap();
        assert!(j["traceEvents"].as_array().is_some());

        let reg = cestim_obs::Registry::new();
        reg.counter("exec.jobs.submitted", &[]).add(2);
        write_prometheus(dir.join("metrics.prom"), &reg.snapshot()).unwrap();
        let text = std::fs::read_to_string(dir.join("metrics.prom")).unwrap();
        assert!(text.contains("# TYPE exec_jobs_submitted counter"));

        // An instrumented simulator pass exports the pipeline families.
        let cfg = cestim_sim::RunConfig::paper(
            cestim_workloads::WorkloadKind::Compress,
            1,
            cestim_sim::PredictorKind::Gshare,
        );
        let inst = cestim_sim::run_instrumented(&cfg, &[], &mut cestim_pipeline::NullObserver);
        write_prometheus(dir.join("pipeline.prom"), &inst.metrics).unwrap();
        let text = std::fs::read_to_string(dir.join("pipeline.prom")).unwrap();
        assert!(text.contains("# TYPE pipeline_cycles counter"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stats_summary_uses_rate_helpers() {
        let s = PipelineStats {
            cycles: 100,
            committed_insts: 200,
            fetched_insts: 300,
            squashed_insts: 100,
            committed_branches: 40,
            mispredicted_committed: 4,
            icache_accesses: 100,
            icache_misses: 1,
            dcache_accesses: 100,
            dcache_misses: 2,
            ..PipelineStats::default()
        };
        let text = stats_summary(&s);
        assert!(text.contains("2.000"), "{text}"); // ipc
        assert!(text.contains("10.00%"), "{text}"); // mispredict rate
    }
}
