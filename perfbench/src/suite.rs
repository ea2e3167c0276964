//! The `suite` workload: clean regenerations of six experiments through
//! an `Executor` with a fresh on-disk cache, as a clean `repro` does.

use crate::cells::{closed_loop, report_loop};
use crate::expected::{suite_digest, Expected};
use crate::stats::median;
use crate::{timed_reps, Opts, Report};
use cestim_exec::{CacheKey, CachePolicy, DiskCache, Executor};
use cestim_sim::suite::{run_experiment_with, ExperimentResult};
use serde::Value;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The experiment list. `table2-detail` reuses `table2`'s cached jobs.
pub const EXPERIMENTS: [&str; 6] = [
    "table2",
    "table2-detail",
    "fig6",
    "cluster",
    "ext-smt",
    "ext-modern",
];

/// Workload scale of the experiments.
pub const SCALE: u32 = 1;

/// One worker: with `nproc` workers the experiments' times followed
/// whatever else ran on the host's other CPU, and spread too widely to
/// compare runs.
const WORKERS: usize = 1;

/// A fresh, empty cache directory for regeneration `n`.
fn fresh_dir(opts: &Opts, n: usize) -> PathBuf {
    let dir = opts.work_dir.join(format!("suite-cache-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn executor(dir: &Path) -> Executor {
    Executor::new(WORKERS)
        .with_cache(dir, CachePolicy::ReadWrite)
        .expect("open the suite cache directory")
}

/// Checks one experiment's text+json hash against the recorded one.
fn check(
    report: &mut Report,
    expected: &Expected,
    scale: u32,
    id: &str,
    r: Option<ExperimentResult>,
) {
    let got = r.as_ref().map(suite_digest);
    let want = expected.suite(scale, id);
    report.check(got.is_some() && got.as_deref() == want, || {
        format!("suite {id} at scale {scale}: hash {got:?}, recorded {want:?}")
    });
}

/// The cache entries a regeneration stored: their keys and payloads.
fn stored_entries(dir: &Path) -> Vec<(CacheKey, String, Value)> {
    let mut out = Vec::new();
    let Ok(rd) = std::fs::read_dir(dir) else {
        return out;
    };
    let mut paths: Vec<PathBuf> = rd.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        let Some(entry) = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(&t).ok())
        else {
            continue;
        };
        let hex = |k: &str| {
            entry
                .get(k)
                .and_then(Value::as_str)
                .and_then(|s| u64::from_str_radix(s, 16).ok())
        };
        let label = entry.get("label").and_then(Value::as_str).unwrap_or("");
        if let (Some(schema), Some(content), Some(payload)) =
            (hex("schema"), hex("content"), entry.get("payload"))
        {
            out.push((
                CacheKey { schema, content },
                label.to_string(),
                payload.clone(),
            ));
        }
    }
    out
}

/// Committed branches recorded in the `stats` objects of a payload.
fn committed_branches(v: &Value) -> u64 {
    match v {
        Value::Object(m) => m
            .iter()
            .map(|(k, child)| match child.get("committed_branches") {
                Some(n) if k == "stats" => n.as_u64().unwrap_or(0),
                _ => committed_branches(child),
            })
            .sum(),
        Value::Array(items) => items.iter().map(committed_branches).sum(),
        _ => 0,
    }
}

/// The `suite` workload.
pub fn workload(opts: &Opts, expected: &Expected, report: &mut Report) {
    let scale = SCALE;
    // Set-up: the analog programs the experiments simulate, and an empty
    // executor cache.
    let (setup, ()) = timed_reps(opts.size.setup_reps, || {
        for k in cestim_workloads::WorkloadKind::all() {
            black_box(k.build(scale));
        }
        black_box(executor(&fresh_dir(opts, 0)));
    });
    // Regeneration number; each starts on a fresh cache directory.
    let regen = std::cell::Cell::new(0);
    let mut exec = executor(&fresh_dir(opts, 0));
    let mut branches = None;
    let l = closed_loop(
        opts.seconds,
        EXPERIMENTS.len(),
        |i| {
            if i == 0 && regen.get() > 0 {
                exec = executor(&fresh_dir(opts, regen.get()));
            }
            run_experiment_with(&exec, EXPERIMENTS[i], scale)
        },
        |i, r| {
            check(report, expected, scale, EXPERIMENTS[i], r);
            if i + 1 == EXPERIMENTS.len() {
                let n = regen.get();
                let dir = opts.work_dir.join(format!("suite-cache-{n}"));
                let stored: u64 = stored_entries(&dir)
                    .iter()
                    .map(|(_, _, p)| committed_branches(p))
                    .sum();
                report.check(branches.is_none_or(|b| b == stored), || {
                    format!("suite regeneration {n} stored {stored} committed branches")
                });
                branches.get_or_insert(stored);
                let _ = std::fs::remove_dir_all(&dir);
                regen.set(n + 1);
            }
        },
    );
    report_loop(
        report,
        &l,
        "experiments",
        EXPERIMENTS.len(),
        branches.unwrap_or(0),
    );
    report.setup_and_memory(&setup);
}

/// Per-layer costs and counts of one regeneration.
pub fn traced(opts: &Opts, expected: &Expected, report: &mut Report) {
    let scale = SCALE;
    let dir = fresh_dir(opts, 0);
    let exec = executor(&dir);
    for id in EXPERIMENTS {
        let t = Instant::now();
        let r = run_experiment_with(&exec, id, scale);
        let secs = t.elapsed().as_secs_f64();
        check(report, expected, scale, id, r);
        report.metric(
            format!("sim.suite.{id}_s"),
            secs,
            "s",
            format!("scale {scale}, {} workers", exec.workers()),
        );
    }
    let r = exec.report();
    report.metric(
        "exec.jobs_executed",
        r.executed as f64,
        "count",
        "Executor::report".into(),
    );
    report.metric(
        "exec.cache_hits",
        r.cache_hits as f64,
        "count",
        "Executor::report".into(),
    );

    // DiskCache::store of exactly the entries the regeneration stored,
    // into a second directory, timed per batch.
    let entries = stored_entries(&dir);
    let copy = DiskCache::open(opts.work_dir.join("suite-store")).expect("open the store cache");
    let mut batches = Vec::new();
    for _ in 0..crate::REPETITIONS {
        let t = Instant::now();
        for (key, label, payload) in &entries {
            let _ = copy.store(key, label, payload);
        }
        batches.push(t.elapsed().as_secs_f64() * 1e9 / entries.len().max(1) as f64);
    }
    report.check(!entries.is_empty(), || {
        "suite stored no cache entries".into()
    });
    report.metric(
        "exec.cache.store_ns",
        median(&batches),
        "ns",
        format!(
            "median of {} batches of {} stores",
            batches.len(),
            entries.len()
        ),
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every experiment's result, computed sequentially without a cache, for
/// recording.
pub fn outcomes(scale: u32) -> Vec<(&'static str, ExperimentResult)> {
    EXPERIMENTS
        .iter()
        .map(|&id| {
            let r = run_experiment_with(&Executor::sequential(), id, scale)
                .expect("every listed experiment id exists");
            (id, r)
        })
        .collect()
}
