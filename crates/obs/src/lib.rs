//! # cestim-obs
//!
//! Observability substrate for the cestim workspace: a metrics registry,
//! a structured event tracer, and causal span tracing with standard-format
//! exporters.
//!
//! The paper's entire contribution is *measurement* — quadrant counts,
//! SENS/SPEC/PVP/PVN, misprediction-distance histograms over the
//! speculative branch stream — so the simulator needs first-class
//! telemetry rather than ad-hoc counters:
//!
//! * [`Registry`] — named [`Counter`] / [`Gauge`] / log2-bucketed
//!   [`Histogram`] handles with `(key, value)` labels, snapshotable to a
//!   serializable [`MetricsSnapshot`]. Handles touch atomics only; the
//!   registry lock is taken at registration time.
//! * [`Tracer`] — a bounded ring buffer of owned [`TraceEvent`]s
//!   (fetch/predict/resolve/commit/squash/recovery/gate), with JSONL export
//!   ([`TraceWriter`]) and a reader ([`read_trace_jsonl`]) so analyses can
//!   replay a recorded run post-hoc. `cestim-pipeline` makes it a
//!   simulator observer and owns the replay back into observer hooks.
//! * [`span`] — causal, hierarchical span tracing: a
//!   [`SpanCollector`](span::SpanCollector) gathers parent-linked
//!   [`SpanRecord`](span::SpanRecord)s from per-thread buffers, merged
//!   deterministically; this is the wall-clock timing source, exported via
//!   [`export`] as Perfetto `trace_event` JSON
//!   ([`render_perfetto`](export::render_perfetto)) or served as
//!   Prometheus text exposition
//!   ([`render_prometheus`](export::render_prometheus)).
//! * [`monitor`] — a std-only ANSI terminal monitor
//!   ([`RunMonitor`](monitor::RunMonitor)) rendering live executor
//!   progress from the metric stream.
//! * [`cancel`] — an ambient per-thread cooperative deadline
//!   ([`cancel::arm`] / [`cancel::current`]) that the simulator hot loop
//!   polls every N cycles so overdue jobs release their worker instead
//!   of running to completion (see docs/RESILIENCE.md).

#![warn(missing_docs)]

mod metrics;
mod trace;

pub mod cancel;
pub mod export;
pub mod monitor;
pub mod span;

pub use metrics::{
    Counter, FloatGauge, Gauge, Histogram, HistogramBucket, HistogramSnapshot, MetricSample,
    MetricValue, MetricsSnapshot, Registry, BUCKET_COUNT,
};
pub use trace::{read_trace_jsonl, TraceEvent, TraceWriter, Tracer};
