//! Executor integration: parallel and cached experiment runs must be
//! bit-for-bit identical to the serial path.

use cestim_exec::{CachePolicy, Executor, Job};
use cestim_sim::suite;
use cestim_sim::{EstimatorSpec, ExecJob, JobOutput, PredictorKind, RunConfig, SIM_JOB_SCHEMA};
use cestim_workloads::WorkloadKind;
use std::path::PathBuf;

const WORKLOADS: &[WorkloadKind] = &[
    WorkloadKind::Compress,
    WorkloadKind::Go,
    WorkloadKind::Xlisp,
    WorkloadKind::Ijpeg,
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cestim-sim-exec-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn table2_parallel_matches_serial_bit_for_bit() {
    // A multi-workload experiment run serially and with four workers: the
    // rendered text and the JSON must agree byte-for-byte.
    let serial = suite::table2_on(&Executor::sequential(), 1, WORKLOADS);
    let parallel = suite::table2_on(&Executor::new(4), 1, WORKLOADS);
    assert_eq!(serial.text, parallel.text);
    assert_eq!(
        serial.json.to_string(),
        parallel.json.to_string(),
        "JSON must be byte-identical"
    );
}

#[test]
fn boost_parallel_matches_serial() {
    // Boost merges per-workload window counts; merged order must not
    // depend on execution order.
    let serial = suite::boost_on(&Executor::sequential(), 1, WORKLOADS);
    let parallel = suite::boost_on(&Executor::new(4), 1, WORKLOADS);
    assert_eq!(serial.text, parallel.text);
    assert_eq!(serial.json.to_string(), parallel.json.to_string());
}

#[test]
fn run_outcome_round_trips_through_disk_cache_bit_for_bit() {
    let dir = tmp_dir("roundtrip");
    let job = ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        specs: vec![EstimatorSpec::jrs_paper()],
    };
    let jobs = std::slice::from_ref(&job);

    let cold = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    let fresh = cold.run_all(jobs).remove(0);
    assert_eq!(cold.report().executed, 1);

    let warm = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    let cached = warm.run_all(jobs).remove(0);
    assert_eq!(warm.report().cache_hits, 1);
    assert_eq!(warm.report().executed, 0, "warm run must not simulate");
    assert_eq!(cached, fresh);
    // Bit-for-bit: the serialized forms agree too.
    assert_eq!(
        serde::to_value(&cached).to_string(),
        serde::to_value(&fresh).to_string()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn refresh_re_executes_and_rewrites() {
    let dir = tmp_dir("refresh");
    let job = ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        specs: vec![],
    };
    let jobs = std::slice::from_ref(&job);

    let first = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    first.run_all(jobs);
    assert_eq!(first.report().executed, 1);

    let refresh = Executor::sequential()
        .with_cache(&dir, CachePolicy::Refresh)
        .unwrap();
    refresh.run_all(jobs);
    assert_eq!(refresh.report().cache_hits, 0, "refresh skips reads");
    assert_eq!(refresh.report().executed, 1, "refresh re-simulates");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn schema_salt_bump_invalidates_old_entries() {
    let dir = tmp_dir("schema");
    let job = ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        specs: vec![],
    };
    let key = job.cache_key();
    assert_eq!(
        key.schema,
        cestim_exec::schema_salt(env!("CARGO_PKG_VERSION"), SIM_JOB_SCHEMA)
    );

    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    exec.run_all(std::slice::from_ref(&job));
    assert!(dir.join(key.file_name()).exists());

    // A schema bump changes the file name entirely (stale entries are
    // simply never read) and the sweep removes them from disk.
    let bumped = cestim_exec::schema_salt(env!("CARGO_PKG_VERSION"), SIM_JOB_SCHEMA + 1);
    assert_ne!(bumped, key.schema);
    assert_eq!(exec.evict_stale(bumped), 1);
    assert!(!dir.join(key.file_name()).exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_cache_entry_is_a_miss_not_a_panic() {
    let dir = tmp_dir("corrupt");
    let job = ExecJob::Run {
        cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        specs: vec![],
    };
    let jobs = std::slice::from_ref(&job);

    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    let fresh = exec.run_all(jobs).remove(0);

    // Truncate the entry mid-JSON.
    let path = dir.join(job.cache_key().file_name());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();

    let recover = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    let redone = recover.run_all(jobs).remove(0);
    assert_eq!(recover.report().cache_hits, 0, "corrupted entry is a miss");
    assert_eq!(recover.report().executed, 1);
    assert_eq!(redone, fresh);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cross_experiment_cache_sharing() {
    // table2 and table2-detail submit identical Run jobs: after table2
    // warms the cache, table2-detail replays entirely from it.
    let dir = tmp_dir("share");
    let small: &[WorkloadKind] = &[WorkloadKind::Compress];

    let exec = Executor::sequential()
        .with_cache(&dir, CachePolicy::ReadWrite)
        .unwrap();
    suite::table2_on(&exec, 1, small);
    let executed_after_first = exec.report().executed;
    assert!(executed_after_first > 0);

    let detail = suite::table2_detail_on(&exec, 1, small);
    assert_eq!(
        exec.report().executed,
        executed_after_first,
        "table2-detail must be answered from table2's cached runs"
    );
    assert!(!detail.text.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn output_enum_unwrap_panics_are_informative() {
    let out = JobOutput::Smt(cestim_pipeline::SmtStats {
        cycles: 1,
        per_thread: vec![],
    });
    let err = std::panic::catch_unwind(|| out.into_run()).unwrap_err();
    let msg = err.downcast_ref::<String>().unwrap();
    assert!(msg.contains("expected Run output"), "{msg}");
}
