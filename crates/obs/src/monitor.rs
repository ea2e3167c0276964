//! Terminal live monitor: a std-only ANSI renderer of the executor's
//! metric stream while a suite runs.
//!
//! [`RunMonitor::start`] spawns a sampling thread that periodically
//! snapshots a [`Registry`], derives a [`MonitorFrame`] (job progress,
//! queue depth, cache hit-rate, retries, job-time bounds, throughput),
//! and redraws a small status block on stderr using plain ANSI cursor
//! movement — no curses dependency. Frame derivation and rendering are
//! pure functions of the snapshot, so they are unit-testable without a
//! terminal or timing.

use crate::metrics::{HistogramSnapshot, MetricValue, MetricsSnapshot, Registry};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One sampled view of the executor metrics (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorFrame {
    /// Jobs submitted so far (`exec.jobs.submitted`).
    pub submitted: u64,
    /// Jobs answered from the cache (`exec.jobs.cache_hits`).
    pub cache_hits: u64,
    /// Job attempts that ran to completion (`exec.jobs.executed`).
    pub executed: u64,
    /// Retry attempts beyond the first (`exec.retries`).
    pub retries: u64,
    /// Panicking attempts caught (`exec.panics_caught`).
    pub panics: u64,
    /// Jobs over deadline (`exec.timeouts`).
    pub timeouts: u64,
    /// Jobs waiting in the pool queue (`exec.queue.depth`).
    pub queue_depth: i64,
    /// Jobs currently executing (`exec.jobs.inflight`).
    pub inflight: i64,
    /// Job wall-clock times (`exec.job.nanos`; empty when absent),
    /// rendered by [`fmt_job_time`].
    pub job_nanos: HistogramSnapshot,
}

impl MonitorFrame {
    /// Derives a frame from a metrics snapshot (absent metrics read as 0).
    pub fn sample(snap: &MetricsSnapshot) -> MonitorFrame {
        let counter = |name: &str| snap.counter_value(name).unwrap_or(0);
        let gauge = |name: &str| match snap.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        };
        let job_nanos = match snap.get("exec.job.nanos") {
            Some(MetricValue::Histogram(h)) => h.clone(),
            _ => HistogramSnapshot::default(),
        };
        MonitorFrame {
            submitted: counter("exec.jobs.submitted"),
            cache_hits: counter("exec.jobs.cache_hits"),
            executed: counter("exec.jobs.executed"),
            retries: counter("exec.retries"),
            panics: counter("exec.panics_caught"),
            timeouts: counter("exec.timeouts"),
            queue_depth: gauge("exec.queue.depth"),
            inflight: gauge("exec.jobs.inflight"),
            job_nanos,
        }
    }

    /// Cache hit-rate over submitted jobs (0 when nothing submitted yet).
    pub fn hit_rate(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.submitted as f64
        }
    }

    /// Renders the frame as plain text lines (no ANSI), with `rate` =
    /// executed jobs per second derived by the caller from frame deltas.
    pub fn render(&self, rate: f64) -> String {
        format!(
            "jobs: {} submitted · {} executed · {} cached ({:.1}% hit) · {} queued · {} in-flight\n\
             faults: {} retries · {} panics caught · {} timeouts\n\
             job time: {} · {:.2} jobs/s\n",
            self.submitted,
            self.executed,
            self.cache_hits,
            self.hit_rate() * 100.0,
            self.queue_depth,
            self.inflight,
            self.retries,
            self.panics,
            self.timeouts,
            fmt_job_time(&self.job_nanos),
            rate,
        )
    }

    /// Number of lines [`MonitorFrame::render`] produces (the redraw
    /// height).
    pub const LINES: usize = 3;
}

/// Human-scale duration from nanoseconds (`1.5us`, `12.3ms`, `2.50s`).
pub fn fmt_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}us", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

/// Job-time quantiles as what they are: `p50 <= 1.0ms, p95 <= 2.1ms,
/// p99 <= 4.2ms`. Each figure is the upper bound of the log2 bucket that
/// holds the rank ([`HistogramSnapshot::quantile`]), not the rank's
/// value, so a figure can overstate the quantile by up to 2×.
pub fn fmt_job_time(h: &HistogramSnapshot) -> String {
    [(50, 0.50), (95, 0.95), (99, 0.99)]
        .map(|(p, q)| format!("p{p} <= {}", fmt_nanos(h.quantile(q))))
        .join(", ")
}

/// Handle to a running monitor thread; stop (or drop) it to end the
/// redraw loop and leave a final frame on stderr.
pub struct RunMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RunMonitor {
    /// Starts sampling `registry` every `refresh` interval, redrawing a
    /// [`MonitorFrame::LINES`]-line ANSI status block on stderr.
    pub fn start(registry: &Registry, refresh: Duration) -> RunMonitor {
        let stop = Arc::new(AtomicBool::new(false));
        let registry = registry.clone();
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut drawn = false;
            let mut prev_executed = 0u64;
            let mut rate = 0.0f64;
            loop {
                let done = stop2.load(Ordering::Relaxed);
                let frame = MonitorFrame::sample(&registry.snapshot());
                let dt = refresh.as_secs_f64().max(1e-9);
                if frame.executed >= prev_executed {
                    // Exponentially smoothed throughput over sample deltas.
                    let inst = (frame.executed - prev_executed) as f64 / dt;
                    rate = if drawn { 0.5 * rate + 0.5 * inst } else { inst };
                }
                prev_executed = frame.executed;
                let mut out = String::new();
                if drawn {
                    // Move back up over our previous block and clear it
                    // line by line as we rewrite.
                    out.push_str(&format!("\x1b[{}A", MonitorFrame::LINES));
                }
                for line in frame.render(rate).lines() {
                    out.push_str("\x1b[2K");
                    out.push_str(line);
                    out.push('\n');
                }
                let mut err = std::io::stderr().lock();
                let _ = err.write_all(out.as_bytes());
                let _ = err.flush();
                drawn = true;
                if done {
                    break;
                }
                std::thread::sleep(refresh);
            }
        });
        RunMonitor {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the monitor, drawing one final frame before returning.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RunMonitor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry_with_activity() -> Registry {
        let r = Registry::new();
        r.counter("exec.jobs.submitted", &[]).add(10);
        r.counter("exec.jobs.cache_hits", &[]).add(4);
        r.counter("exec.jobs.executed", &[]).add(5);
        r.counter("exec.retries", &[]).add(2);
        r.counter("exec.panics_caught", &[]).add(2);
        r.counter("exec.timeouts", &[]).add(1);
        r.gauge("exec.queue.depth", &[]).set(3);
        r.gauge("exec.jobs.inflight", &[]).set(2);
        let h = r.histogram("exec.job.nanos", &[]);
        for _ in 0..99 {
            h.record(1_000_000); // → bucket [2^19, 2^20)
        }
        h.record(1 << 30);
        r
    }

    #[test]
    fn frame_samples_executor_metrics() {
        let f = MonitorFrame::sample(&registry_with_activity().snapshot());
        assert_eq!(f.submitted, 10);
        assert_eq!(f.cache_hits, 4);
        assert_eq!(f.executed, 5);
        assert_eq!(f.retries, 2);
        assert_eq!(f.queue_depth, 3);
        assert_eq!(f.inflight, 2);
        assert!((f.hit_rate() - 0.4).abs() < 1e-12);
        // p50/p95 from the dominant bucket, p99 boundary: rank 100 of
        // 100 falls in the top bucket only at q=1.0; rank 99 stays low.
        assert_eq!(f.job_nanos.count, 100);
        assert_eq!(f.job_nanos.quantile(0.99), (1 << 20) - 1);
    }

    #[test]
    fn frame_renders_all_fields() {
        let f = MonitorFrame::sample(&registry_with_activity().snapshot());
        let text = f.render(2.5);
        assert_eq!(text.lines().count(), MonitorFrame::LINES);
        assert!(text.contains("10 submitted"));
        assert!(text.contains("40.0% hit"));
        assert!(text.contains("3 queued"));
        assert!(text.contains("2 in-flight"));
        assert!(text.contains("2 retries"));
        assert!(text.contains("1 timeouts"));
        assert!(text.contains("2.50 jobs/s"));
        assert!(text.contains("job time: p50 <= 1.0ms, p95 <= 1.0ms, p99 <= 1.0ms · "));
    }

    #[test]
    fn empty_snapshot_renders_zeros() {
        let f = MonitorFrame::sample(&Registry::new().snapshot());
        assert_eq!(f, MonitorFrame::default());
        let text = f.render(0.0);
        assert!(text.contains("0 submitted"));
        assert!(text.contains("p50 <= 0ns"));
    }

    #[test]
    fn job_time_is_printed_as_bucket_upper_bounds() {
        let r = Registry::new();
        let h = r.histogram("exec.job.nanos", &[]);
        // 60 ms lies in [2^25, 2^26) ns; its upper bound is 67.1 ms.
        h.record(60_000_000);
        let Some(MetricValue::Histogram(h)) = r.snapshot().get("exec.job.nanos").cloned() else {
            panic!("histogram registered above");
        };
        assert_eq!(
            fmt_job_time(&h),
            "p50 <= 67.1ms, p95 <= 67.1ms, p99 <= 67.1ms"
        );
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(999), "999ns");
        assert_eq!(fmt_nanos(1_500), "1.5us");
        assert_eq!(fmt_nanos(12_300_000), "12.3ms");
        assert_eq!(fmt_nanos(2_500_000_000), "2.50s");
    }

    #[test]
    fn monitor_thread_starts_and_stops() {
        let r = registry_with_activity();
        let m = RunMonitor::start(&r, Duration::from_millis(5));
        std::thread::sleep(Duration::from_millis(15));
        m.stop();
    }
}
