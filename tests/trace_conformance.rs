//! Differential conformance suite for the external branch-trace format.
//!
//! Proves the three pillars of `docs/TRACES.md`:
//!
//! 1. **Round-trip fidelity** — export → import is bit-exact in both
//!    encodings, and cross-encoding (binary → JSONL → binary) conversions
//!    are lossless; the content hash is encoding-independent.
//! 2. **Replay equivalence** — replaying an exported trace through the
//!    [`cestim::TraceSimulator`] frontend reproduces the live replay-mode
//!    simulator bit for bit: pipeline stats, quadrant counts, and every
//!    per-estimator metric, across all four predictors and the full
//!    conformance estimator set.
//! 3. **Cache/wire stability** — `ExecJob::Replay` keys the exec cache on
//!    the trace *content hash*, not the (potentially megabytes of) inline
//!    records, and that key is stable across encodings.

use cestim::trace_io;
use cestim::{
    conformance_specs, export_config_trace, run_replay_live, run_trace, PredictorKind, RunConfig,
    WorkloadKind,
};
use cestim_exec::Job;
use cestim_sim::{capture_live_trace, EstimatorSpec, ExecJob};

fn cfg(workload: WorkloadKind, predictor: PredictorKind) -> RunConfig {
    RunConfig::paper(workload, 1, predictor)
}

/// Export → binary → import and export → JSONL → import are both
/// bit-exact, cross-encoding conversion is lossless, and the content hash
/// does not depend on which encoding carried the records.
#[test]
fn export_round_trips_bit_exactly_in_both_encodings() {
    for workload in [WorkloadKind::Compress, WorkloadKind::Xlisp] {
        let records =
            export_config_trace(&cfg(workload, PredictorKind::Gshare)).expect("export halts");
        assert!(!records.is_empty(), "{workload}: empty export");

        let bin = trace_io::to_binary(&records);
        let from_bin = trace_io::from_binary(&bin).expect("binary round-trip");
        assert_eq!(records, from_bin, "{workload}: binary round-trip");

        let jsonl = trace_io::to_jsonl(&records);
        let from_jsonl = trace_io::from_jsonl(&jsonl).expect("jsonl round-trip");
        assert_eq!(records, from_jsonl, "{workload}: jsonl round-trip");

        // Cross-encoding: binary -> records -> JSONL -> records -> binary.
        let cross = trace_io::to_binary(
            &trace_io::from_jsonl(&trace_io::to_jsonl(&from_bin)).expect("cross decode"),
        );
        assert_eq!(bin, cross, "{workload}: cross-encoding not lossless");

        // The sniffing importer accepts both encodings.
        assert_eq!(records, trace_io::from_bytes(&bin).expect("sniff binary"));
        assert_eq!(
            records,
            trace_io::from_bytes(jsonl.as_bytes()).expect("sniff jsonl")
        );

        // Content hash is a function of the records, not the encoding.
        assert_eq!(
            trace_io::content_hash(&records),
            trace_io::content_hash(&from_jsonl),
            "{workload}: hash must be encoding-independent"
        );
    }
}

/// The exported trace is the architectural branch stream: it must not
/// depend on which predictor the exporting simulator happened to run.
#[test]
fn exported_trace_is_predictor_independent() {
    let baseline = export_config_trace(&cfg(WorkloadKind::Go, PredictorKind::Gshare)).unwrap();
    for p in [
        PredictorKind::McFarling,
        PredictorKind::SAg,
        PredictorKind::Bimodal,
    ] {
        let other = export_config_trace(&cfg(WorkloadKind::Go, p)).unwrap();
        assert_eq!(baseline, other, "{}: export differs", p.name());
    }
}

/// The live simulator's capture hook and the interpreter-based exporter
/// agree record for record, even though the live pipeline fetches (and
/// then squashes) wrong-path work the interpreter never sees.
#[test]
fn capture_hook_matches_interpreter_export() {
    for workload in [WorkloadKind::Gcc, WorkloadKind::Perl] {
        let c = cfg(workload, PredictorKind::Gshare);
        let exported = export_config_trace(&c).expect("export halts");
        let captured = capture_live_trace(&c);
        assert_eq!(
            exported, captured,
            "{workload}: capture hook diverged from interpreter export"
        );
    }
}

/// The heart of the suite: for every predictor, replaying the exported
/// trace through `TraceSimulator` reproduces the live replay-mode run bit
/// for bit — stats, quadrants, and per-estimator metrics — for the full
/// conformance estimator set (all estimator families, including
/// profile-based ones).
#[test]
fn trace_replay_is_bit_identical_to_live_replay_for_every_predictor() {
    let records = export_config_trace(&cfg(WorkloadKind::Compress, PredictorKind::Gshare)).unwrap();
    for p in PredictorKind::all() {
        let c = cfg(WorkloadKind::Compress, p);
        let specs = conformance_specs();
        let live = run_replay_live(&c, &specs);
        let replayed = run_trace(&records, p, &c.pipeline, &specs);
        // Compare through canonical JSON so a divergence prints the whole
        // structure, field names included.
        assert_eq!(
            serde_json::to_string(&live).unwrap(),
            serde_json::to_string(&replayed).unwrap(),
            "{}: trace replay diverged from live replay",
            p.name()
        );
    }
}

/// Replay equivalence holds under fetch gating too: a gated live
/// replay-mode run and a gated trace replay are bit-identical.
#[test]
fn gated_trace_replay_matches_gated_live_replay() {
    let mut c = cfg(WorkloadKind::M88ksim, PredictorKind::Gshare);
    c.pipeline = c.pipeline.with_gating(1);
    let records = export_config_trace(&c).unwrap();
    let specs = conformance_specs();
    let live = run_replay_live(&c, &specs);
    let replayed = run_trace(&records, c.predictor, &c.pipeline, &specs);
    assert_eq!(live, replayed, "gated replay diverged");
    assert!(live.stats.gated_cycles > 0, "gate never engaged");
}

/// The replay path preserves the committed population: a normal
/// (speculating, squashing) run and a trace replay agree on the committed
/// architectural counters and assess the same number of committed
/// branches per estimator. (The *split* of those branches into quadrants
/// may differ by a handful for estimators whose state updates at commit:
/// the two fetch modes drain commits at different times relative to the
/// next assessment. Bit-exactness is guaranteed between live replay mode
/// and trace replay — see the tests above — not across fetch modes.)
#[test]
fn trace_replay_preserves_the_committed_population() {
    let c = cfg(WorkloadKind::Vortex, PredictorKind::Gshare);
    let records = export_config_trace(&c).unwrap();
    let specs = conformance_specs();
    let normal = cestim::run(&c, &specs);
    let replayed = run_trace(&records, c.predictor, &c.pipeline, &specs);

    assert!(normal.stats.squashed_insts > 0, "normal run never squashed");
    assert_eq!(replayed.stats.squashed_insts, 0, "replay must not squash");
    assert_eq!(
        normal.stats.committed_insts, replayed.stats.committed_insts,
        "committed instruction streams differ"
    );
    assert_eq!(
        normal.stats.committed_branches,
        replayed.stats.committed_branches
    );
    for (n, r) in normal.estimators.iter().zip(&replayed.estimators) {
        assert_eq!(n.name, r.name);
        assert_eq!(
            n.quadrants.committed.total(),
            r.quadrants.committed.total(),
            "{}: committed population size differs between live and replay",
            n.name
        );
        assert_eq!(
            r.quadrants.committed.total(),
            replayed.stats.committed_branches,
            "{}: replay assessed a branch it did not commit",
            n.name
        );
    }
}

/// `ExecJob::Replay` cache identity: the content (and therefore the exec
/// cache key) embeds the trace content hash instead of the records, is
/// stable across re-encodings of the same trace, and separates jobs whose
/// traces differ.
#[test]
fn replay_job_cache_key_hashes_trace_content() {
    let c = cfg(WorkloadKind::Compress, PredictorKind::Gshare);
    let records = export_config_trace(&c).unwrap();
    let job = |records: Vec<cestim::TraceRecord>| ExecJob::Replay {
        records,
        predictor: PredictorKind::Gshare,
        pipeline: c.pipeline.clone(),
        specs: vec![EstimatorSpec::jrs_paper()],
    };

    let a = job(records.clone());
    let content = a.content();
    let replay = content
        .get("Replay")
        .and_then(|v| v.as_object())
        .expect("content is a Replay object");
    assert!(
        replay.get("records").is_none(),
        "content must not embed the record array"
    );
    assert_eq!(
        replay.get("trace").and_then(|v| v.as_str()),
        Some(trace_io::content_hash_hex(&records).as_str()),
        "content must carry the trace content hash"
    );
    assert!(a.label().contains(&trace_io::content_hash_hex(&records)));

    // Re-encoding the trace must not move the cache key.
    let re_encoded = trace_io::from_bytes(trace_io::to_jsonl(&records).as_bytes()).unwrap();
    let b = job(re_encoded);
    assert_eq!(
        cestim_exec::content_hash(&a.content()),
        cestim_exec::content_hash(&b.content()),
        "cache key must be stable across encodings"
    );

    // A different trace must produce a different key.
    let mut truncated = records.clone();
    truncated.truncate(records.len() / 2);
    let d = job(truncated);
    assert_ne!(
        cestim_exec::content_hash(&a.content()),
        cestim_exec::content_hash(&d.content()),
        "different traces must not collide"
    );
}

/// Executing a `Replay` job returns the same outcome as calling
/// `run_trace` directly — the job layer adds identity, not behaviour.
#[test]
fn replay_job_executes_to_the_direct_outcome() {
    let c = cfg(WorkloadKind::Compress, PredictorKind::Gshare);
    let records = export_config_trace(&c).unwrap();
    let specs = vec![EstimatorSpec::jrs_paper()];
    let direct = run_trace(&records, c.predictor, &c.pipeline, &specs);
    let job = ExecJob::Replay {
        records,
        predictor: c.predictor,
        pipeline: c.pipeline.clone(),
        specs,
    };
    let out = cestim_exec::Executor::sequential()
        .run_all_checked(std::slice::from_ref(&job))
        .remove(0)
        .unwrap()
        .into_run();
    assert_eq!(direct, out);
}
