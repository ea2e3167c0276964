//! Golden snapshot of the Perfetto export for a 2-job chaos run.
//!
//! A sequential executor with `panic:2` + one retry produces a fully
//! deterministic span tree (ids are assigned in program order on one
//! thread). Wall-clock quantities — timestamps and the key-derived
//! backoff — are normalised before rendering, so the golden file pins the
//! *structure*: names, parent links, labels, thread tags, and the exact
//! Chrome `trace_event` JSON shape.
//!
//! Regenerate after an intentional format change with:
//! `CESTIM_BLESS=1 cargo test -p cestim-exec --test golden_trace`

use cestim_exec::{Executor, FaultPlan, Job, RetryPolicy};
use cestim_obs::export::render_perfetto;
use cestim_obs::span::{SpanCollector, SpanRecord};
use serde_json::Value;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/chaos_trace.json");

struct SquareJob(u64);

impl Job for SquareJob {
    type Output = u64;

    fn content(&self) -> Value {
        serde_json::json!({ "square": self.0 })
    }

    fn schema_salt(&self) -> u64 {
        1
    }

    fn label(&self) -> String {
        format!("square-{}", self.0)
    }

    fn execute(&self) -> u64 {
        self.0 * self.0
    }
}

/// Replaces wall-clock data with synthetic id-derived intervals: a child
/// (always a larger id than its parent) starts later and ends earlier, so
/// interval containment survives normalisation while every byte of the
/// render becomes run-independent.
fn normalise(mut records: Vec<SpanRecord>) -> Vec<SpanRecord> {
    let max_id = records.iter().map(|r| r.id.0).max().unwrap_or(0);
    for r in &mut records {
        r.start_nanos = r.id.0 * 1_000;
        r.end_nanos = (max_id + 1) * 1_000 - r.start_nanos / 2;
    }
    for r in &mut records {
        for (k, v) in &mut r.labels {
            if k == "backoff_ms" {
                *v = "<backoff>".into();
            }
        }
    }
    records
}

#[test]
fn chaos_trace_matches_golden_snapshot() {
    let spans = SpanCollector::new();
    let exec = Executor::sequential()
        .with_fault_plan(FaultPlan::parse("panic:2").unwrap())
        .with_retry(RetryPolicy {
            max_attempts: 2,
            base_ms: 1,
            max_ms: 1,
        })
        .with_spans(&spans);
    let out = exec.run_all(&[SquareJob(3), SquareJob(5)]);
    assert_eq!(out, vec![9, 25]);

    let rendered = render_perfetto(&normalise(spans.drain()));

    if std::env::var_os("CESTIM_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden file missing - regenerate with CESTIM_BLESS=1");
    assert_eq!(
        rendered, golden,
        "perfetto export drifted from tests/golden/chaos_trace.json; \
         if intentional, regenerate with CESTIM_BLESS=1"
    );

    // Belt and braces: the golden itself must stay valid JSON containing
    // the chaos narrative (failed injected attempt, then a successful
    // retry, on the second submitted job).
    let doc: Value = serde_json::from_str(&golden).unwrap();
    let events = doc["traceEvents"].as_array().unwrap();
    let attempts: Vec<&Value> = events
        .iter()
        .filter(|e| e["name"] == "exec.attempt")
        .collect();
    assert_eq!(attempts.len(), 3, "two jobs, one retried");
    let panicked: Vec<&Value> = attempts
        .iter()
        .copied()
        .filter(|a| a["args"]["outcome"] == "panicked")
        .collect();
    assert_eq!(panicked.len(), 1);
    assert_eq!(panicked[0]["args"]["injected"], "true");
    assert_eq!(panicked[0]["args"]["attempt"], "1");
}
