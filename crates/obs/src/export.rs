//! Standard-format exporters: Chrome `trace_event` (Perfetto) JSON for
//! span traces and Prometheus text exposition for metric snapshots.
//!
//! Both renderers are deliberately hand-rolled string builders rather than
//! `serde` serializations: the output formats are externally specified
//! (the Chrome Trace Event format and the Prometheus exposition format),
//! and building them directly keeps field order, number formatting, and
//! escaping byte-stable for golden tests.

use crate::metrics::{MetricValue, MetricsSnapshot};
use crate::span::SpanRecord;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

// ---------------------------------------------------------------------------
// Perfetto / Chrome trace_event JSON.
// ---------------------------------------------------------------------------

/// Renders spans as a Chrome `trace_event` JSON document (the "JSON Array
/// Format" with an object wrapper), directly loadable in `ui.perfetto.dev`
/// or `chrome://tracing`.
///
/// * Every span becomes one complete (`"ph":"X"`) event with `ts`/`dur` in
///   microseconds (3 decimal places, so nanosecond precision survives).
/// * Thread tags map to `tid`s in sorted-tag order (pid is always 1), and
///   each tag is announced with a `thread_name` metadata event, so
///   Perfetto's track names match the collector's thread tags.
/// * The span's id, parent id, and labels ride along in `args`, which
///   keeps the causal chain (`exec.batch` → job → attempt) inspectable in
///   the UI even though `trace_event` has no native parent links.
/// * Events are ordered by span id, so output for a given record set is
///   deterministic.
pub fn render_perfetto(records: &[SpanRecord]) -> String {
    let mut tags: Vec<&str> = records.iter().map(|r| r.thread.as_str()).collect();
    tags.sort_unstable();
    tags.dedup();
    let tid_of = |tag: &str| tags.iter().position(|t| *t == tag).unwrap_or(0) + 1;

    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| r.id);

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    for tag in &tags {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
            tid_of(tag),
            json_string(tag)
        );
    }
    for r in sorted {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let dur_nanos = r.end_nanos.saturating_sub(r.start_nanos);
        let _ = write!(
            out,
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":{},\"cat\":\"cestim\",\
             \"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{}",
            tid_of(&r.thread),
            json_string(&r.name),
            micros(r.start_nanos),
            micros(dur_nanos),
            r.id.0,
            r.parent.0,
        );
        for (k, v) in &r.labels {
            let _ = write!(out, ",{}:{}", json_string(k), json_string(v));
        }
        out.push_str("}}");
    }
    out.push_str("\n]}\n");
    out
}

/// Writes [`render_perfetto`] to the file at `path`.
///
/// # Errors
///
/// Returns any I/O error from creating the parent directory or the file.
pub fn write_perfetto(path: impl AsRef<Path>, records: &[SpanRecord]) -> io::Result<()> {
    write_file(path.as_ref(), &render_perfetto(records))
}

/// Writes `text` to `path`, creating the parent directory first.
fn write_file(path: &Path, text: &str) -> io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Microseconds with fixed 3-decimal formatting (nanosecond resolution),
/// emitted without float rounding: `1234567ns` → `"1234.567"`.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1000, nanos % 1000)
}

/// JSON string literal (quotes included) with standard escaping.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition.
// ---------------------------------------------------------------------------

/// Renders a metrics snapshot in the Prometheus text exposition format
/// (version 0.0.4, the `text/plain` scrape format).
///
/// * Metric names are sanitised to `[a-zA-Z0-9_:]` (dots become
///   underscores: `exec.jobs.submitted` → `exec_jobs_submitted`).
/// * Counters map to `counter`, integer and float gauges to `gauge`.
/// * Histograms expand to cumulative `<name>_bucket{le="..."}` series over
///   the log2 bucket upper bounds, a final `le="+Inf"` bucket, and
///   `<name>_sum` / `<name>_count` — the shape PromQL's
///   `histogram_quantile` expects.
/// * Label values are escaped per the spec (`\\`, `\"`, `\n`).
/// * Samples of one family are grouped under a single `# TYPE` line, in
///   first-registration order.
pub fn render_prometheus(snapshot: &MetricsSnapshot) -> String {
    // Group samples into families (same sanitised name) preserving
    // first-seen order; the exposition format requires one TYPE header
    // per family with all its samples adjacent.
    let mut families: Vec<(String, &'static str, Vec<usize>)> = Vec::new();
    for (i, m) in snapshot.metrics.iter().enumerate() {
        let name = sanitize_name(&m.name);
        let ty = match m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) | MetricValue::Float(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        match families.iter_mut().find(|(n, t, _)| *n == name && *t == ty) {
            Some((_, _, idx)) => idx.push(i),
            None => families.push((name, ty, vec![i])),
        }
    }

    let mut out = String::new();
    for (name, ty, idx) in &families {
        let _ = writeln!(out, "# TYPE {name} {ty}");
        for &i in idx {
            let m = &snapshot.metrics[i];
            match &m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name}{} {v}", label_block(&m.labels, None));
                }
                MetricValue::Float(v) => {
                    let _ = writeln!(out, "{name}{} {}", label_block(&m.labels, None), float(*v));
                }
                MetricValue::Histogram(h) => {
                    let mut cum = 0u64;
                    for b in &h.buckets {
                        cum += b.count;
                        let le = b.high.to_string();
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cum}",
                            label_block(&m.labels, Some(&le))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{name}_bucket{} {}",
                        label_block(&m.labels, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(out, "{name}_sum{} {}", label_block(&m.labels, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{name}_count{} {}",
                        label_block(&m.labels, None),
                        h.count
                    );
                }
            }
        }
    }
    out
}

/// Writes [`render_prometheus`] to the file at `path`.
///
/// # Errors
///
/// Returns any I/O error from creating the parent directory or the file.
pub fn write_prometheus(path: impl AsRef<Path>, snapshot: &MetricsSnapshot) -> io::Result<()> {
    write_file(path.as_ref(), &render_prometheus(snapshot))
}

/// Maps a dotted metric name onto the Prometheus name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// `{k="v",...}` rendered with exposition-format escaping, plus an
/// optional trailing `le` label; empty string when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{}=\"{}\"", sanitize_name(k), escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{}\"", escape_label(le));
    }
    out.push('}');
    out
}

/// Label-value escaping per the exposition format: backslash, double
/// quote, and line feed.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Prometheus float rendering (`+Inf` / `-Inf` / `NaN` spellings).
fn float(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanCollector, SpanId};
    use crate::Registry;

    fn two_spans() -> Vec<SpanRecord> {
        let c = SpanCollector::new();
        let root = c.open("exec.batch", SpanId::NONE, &[("jobs", "1")]);
        let child = c.open("exec.attempt", root.id(), &[("attempt", "1")]);
        c.close(child, "worker-0");
        c.close(root, "main");
        let mut recs = c.drain();
        // Zero timestamps for format-shape assertions.
        for r in &mut recs {
            r.start_nanos = 0;
            r.end_nanos = 0;
        }
        recs
    }

    #[test]
    fn perfetto_has_thread_metadata_and_complete_events() {
        let out = render_perfetto(&two_spans());
        // Parses as JSON.
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        // 2 thread_name metadata + 2 spans.
        assert_eq!(events.len(), 4);
        assert!(out.contains("\"ph\":\"M\""));
        assert!(out.contains("\"thread_name\""));
        assert!(out.contains("\"name\":\"exec.batch\""));
        assert!(out.contains("\"parent\":1"));
        assert!(out.contains("\"attempt\":\"1\""));
        // Thread tags sorted: main=1, worker-0=2.
        assert!(out.contains("{\"name\":\"main\"}"));
    }

    #[test]
    fn perfetto_microseconds_have_nanosecond_resolution() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1), "0.001");
        assert_eq!(micros(1_234_567), "1234.567");
    }

    #[test]
    fn perfetto_escapes_names() {
        let mut recs = two_spans();
        recs[0].name = "we\"ird\nname".to_string();
        let out = render_perfetto(&recs);
        assert!(out.contains("\"we\\\"ird\\nname\""));
        serde_json::from_str::<serde_json::Value>(&out).unwrap();
    }

    #[test]
    fn prometheus_counter_and_gauge_exact_format() {
        let r = Registry::new();
        r.counter("exec.jobs.submitted", &[("suite", "fig1")])
            .add(7);
        r.gauge("exec.queue.depth", &[]).set(3);
        r.float_gauge("pipeline.ipc", &[]).set(1.5);
        let out = render_prometheus(&r.snapshot());
        assert_eq!(
            out,
            "# TYPE exec_jobs_submitted counter\n\
             exec_jobs_submitted{suite=\"fig1\"} 7\n\
             # TYPE exec_queue_depth gauge\n\
             exec_queue_depth 3\n\
             # TYPE pipeline_ipc gauge\n\
             pipeline_ipc 1.5\n"
        );
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative() {
        let r = Registry::new();
        let h = r.histogram("exec.job.nanos", &[]);
        for v in [1, 2, 3, 1000] {
            h.record(v);
        }
        let out = render_prometheus(&r.snapshot());
        assert!(out.starts_with("# TYPE exec_job_nanos histogram\n"));
        // log2 buckets: [1,1]=1, [2,3]=2 cumulative 3, [512,1023]=1 cum 4.
        assert!(out.contains("exec_job_nanos_bucket{le=\"1\"} 1\n"));
        assert!(out.contains("exec_job_nanos_bucket{le=\"3\"} 3\n"));
        assert!(out.contains("exec_job_nanos_bucket{le=\"1023\"} 4\n"));
        assert!(out.contains("exec_job_nanos_bucket{le=\"+Inf\"} 4\n"));
        assert!(out.contains("exec_job_nanos_sum 1006\n"));
        assert!(out.contains("exec_job_nanos_count 4\n"));
    }

    #[test]
    fn prometheus_escapes_label_values() {
        let r = Registry::new();
        r.counter("m", &[("path", "a\\b\"c\nd")]).inc();
        let out = render_prometheus(&r.snapshot());
        assert!(out.contains("m{path=\"a\\\\b\\\"c\\nd\"} 1\n"));
    }

    #[test]
    fn prometheus_groups_families_and_sanitizes() {
        let r = Registry::new();
        r.counter("exec.retries", &[("suite", "a")]).inc();
        r.counter("exec.panics_caught", &[]).inc();
        r.counter("exec.retries", &[("suite", "b")]).add(2);
        let out = render_prometheus(&r.snapshot());
        // One TYPE line for exec_retries, both samples adjacent under it.
        assert_eq!(out.matches("# TYPE exec_retries counter").count(), 1);
        let retries_pos = out.find("# TYPE exec_retries").unwrap();
        let panics_pos = out.find("# TYPE exec_panics_caught").unwrap();
        assert!(retries_pos < panics_pos);
        assert!(out.contains("exec_retries{suite=\"a\"} 1\nexec_retries{suite=\"b\"} 2\n"));
    }

    #[test]
    fn prometheus_float_special_values() {
        assert_eq!(float(f64::NAN), "NaN");
        assert_eq!(float(f64::INFINITY), "+Inf");
        assert_eq!(float(f64::NEG_INFINITY), "-Inf");
        assert_eq!(float(0.25), "0.25");
    }
}
