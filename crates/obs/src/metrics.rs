//! Metrics registry: named counter/gauge/histogram handles and
//! serializable snapshots.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds zeros and
/// bucket `i >= 1` holds values with `floor(log2(v)) == i - 1`, i.e. the
/// range `[2^(i-1), 2^i)`.
pub const BUCKET_COUNT: usize = 65;

/// Returns the bucket index a sample lands in.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive `(low, high)` bounds of a bucket.
pub(crate) fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

#[derive(Debug)]
struct HistogramCell {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A monotone counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Overwrites the value (for end-of-run exports of externally
    /// accumulated counters).
    pub fn set(&self, n: u64) {
        self.cell.store(n, Ordering::Relaxed);
    }
}

/// A settable signed gauge handle.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, d: i64) {
        self.cell.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A settable floating-point gauge handle (stored as `f64` bits).
#[derive(Debug, Clone)]
pub struct FloatGauge {
    cell: Arc<AtomicU64>,
}

impl FloatGauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.cell.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.cell.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed histogram handle for `u64` samples.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.cell.count.fetch_add(1, Ordering::Relaxed);
        self.cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.cell.count.load(Ordering::Relaxed)
    }

    /// Snapshot of non-empty buckets.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = (0..BUCKET_COUNT)
            .filter_map(|i| {
                let count = self.cell.buckets[i].load(Ordering::Relaxed);
                (count > 0).then(|| {
                    let (low, high) = bucket_bounds(i);
                    HistogramBucket { low, high, count }
                })
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count: self.cell.count.load(Ordering::Relaxed),
            sum: self.cell.sum.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time state of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Non-empty buckets, ordered by range.
    pub buckets: Vec<HistogramBucket>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` (clamped to `[0, 1]`; NaN is
    /// treated as 0).
    ///
    /// Walks the cumulative bucket counts and returns the **upper bound**
    /// of the first bucket containing the `ceil(q * count)`-th sample.
    /// With log2 buckets this is biased upward by at most one bucket
    /// width — the estimate is never more than 2× the true value (exact
    /// for the zero bucket) — which is the right direction to err for
    /// latency reporting. The two edges are exceptions to the upward
    /// bias: an empty histogram returns 0 for every `q`, and `q <= 0`
    /// (the minimum) returns the first bucket's **lower** bound, so
    /// `quantile(0.0)` never exceeds any observed sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        if q == 0.0 {
            return self.buckets.first().map_or(0, |b| b.low);
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for b in &self.buckets {
            cum += b.count;
            if cum >= rank {
                return b.high;
            }
        }
        self.buckets.last().map_or(0, |b| b.high)
    }

    /// Merges another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for b in &other.buckets {
            match self.buckets.iter_mut().find(|x| x.low == b.low) {
                Some(x) => x.count += b.count,
                None => self.buckets.push(b.clone()),
            }
        }
        self.buckets.sort_by_key(|b| b.low);
        self.count += other.count;
        // `sum` wraps, matching the relaxed atomic accumulation in
        // `Histogram::record`.
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// One `[low, high]` bucket with its sample count.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramBucket {
    /// Inclusive lower bound.
    pub low: u64,
    /// Inclusive upper bound.
    pub high: u64,
    /// Samples in the bucket.
    pub count: u64,
}

enum Cell {
    Counter(Counter),
    Gauge(Gauge),
    Float(FloatGauge),
    Histogram(Histogram),
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    cell: Cell,
}

/// A registry of named metrics.
///
/// Cloning shares the underlying store. Handle registration takes a lock;
/// recording through a handle touches only its atomic cell, so hot paths
/// should register once and keep the handle.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<Vec<Entry>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        reuse: impl Fn(&Cell) -> Option<T>,
        create: impl FnOnce() -> (Cell, T),
    ) -> T {
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(e) = inner
            .iter()
            .find(|e| e.name == name && labels_eq(&e.labels, labels))
        {
            if let Some(handle) = reuse(&e.cell) {
                return handle;
            }
            panic!("metric `{name}` already registered with a different type");
        }
        let (cell, handle) = create();
        inner.push(Entry {
            name: name.to_string(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            cell,
        });
        handle
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.register(
            name,
            labels,
            |c| match c {
                Cell::Counter(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Counter {
                    cell: Arc::new(AtomicU64::new(0)),
                };
                (Cell::Counter(h.clone()), h)
            },
        )
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register(
            name,
            labels,
            |c| match c {
                Cell::Gauge(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Gauge {
                    cell: Arc::new(AtomicI64::new(0)),
                };
                (Cell::Gauge(h.clone()), h)
            },
        )
    }

    /// Registers (or retrieves) a floating-point gauge.
    pub fn float_gauge(&self, name: &str, labels: &[(&str, &str)]) -> FloatGauge {
        self.register(
            name,
            labels,
            |c| match c {
                Cell::Float(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = FloatGauge {
                    cell: Arc::new(AtomicU64::new(0)),
                };
                (Cell::Float(h.clone()), h)
            },
        )
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register(
            name,
            labels,
            |c| match c {
                Cell::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            || {
                let h = Histogram {
                    cell: Arc::new(HistogramCell::default()),
                };
                (Cell::Histogram(h.clone()), h)
            },
        )
    }

    /// Snapshots every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().expect("registry lock");
        MetricsSnapshot {
            metrics: inner
                .iter()
                .map(|e| MetricSample {
                    name: e.name.clone(),
                    labels: e.labels.clone(),
                    value: match &e.cell {
                        Cell::Counter(h) => MetricValue::Counter(h.get()),
                        Cell::Gauge(h) => MetricValue::Gauge(h.get()),
                        Cell::Float(h) => MetricValue::Float(h.get()),
                        Cell::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn labels_eq(have: &[(String, String)], want: &[(&str, &str)]) -> bool {
    have.len() == want.len()
        && have
            .iter()
            .zip(want)
            .all(|((hk, hv), (wk, wv))| hk == wk && hv == wv)
}

/// Serializable point-in-time state of a [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every registered metric, in registration order.
    pub metrics: Vec<MetricSample>,
}

impl MetricsSnapshot {
    /// First metric with this name (any labels).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| &m.value)
    }

    /// Metric with this exact name and label set.
    pub fn get_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Option<&MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.name == name && labels_eq(&m.labels, labels))
            .map(|m| &m.value)
    }

    /// Convenience: counter value by name, if present and a counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: float-gauge value by name, if present and a float.
    pub fn float_value(&self, name: &str) -> Option<f64> {
        match self.get(name)? {
            MetricValue::Float(v) => Some(*v),
            _ => None,
        }
    }
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricSample {
    /// Metric name (dotted, e.g. `pipeline.cycles`).
    pub name: String,
    /// Label pairs, e.g. `("workload", "compress")`.
    pub labels: Vec<(String, String)>,
    /// The value.
    pub value: MetricValue,
}

/// A snapshotted metric value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Signed gauge.
    Gauge(i64),
    /// Floating-point gauge.
    Float(f64),
    /// Log2 histogram.
    Histogram(HistogramSnapshot),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        let c = r.counter("pipeline.cycles", &[("workload", "go")]);
        c.add(41);
        c.inc();
        assert_eq!(c.get(), 42);
        // Re-registration returns the same cell.
        let c2 = r.counter("pipeline.cycles", &[("workload", "go")]);
        c2.inc();
        assert_eq!(c.get(), 43);
        // Different labels are a different metric.
        let c3 = r.counter("pipeline.cycles", &[("workload", "compress")]);
        assert_eq!(c3.get(), 0);
        let snap = r.snapshot();
        assert_eq!(
            snap.get_labeled("pipeline.cycles", &[("workload", "go")]),
            Some(&MetricValue::Counter(43))
        );
    }

    #[test]
    fn gauges_move_both_ways() {
        let r = Registry::new();
        let g = r.gauge("inflight", &[]);
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn float_gauges_hold_fractions() {
        let r = Registry::new();
        let g = r.float_gauge("ipc", &[]);
        g.set(1.75);
        assert_eq!(g.get(), 1.75);
        let snap = r.snapshot();
        assert_eq!(snap.float_value("ipc"), Some(1.75));
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let r = Registry::new();
        let h = r.histogram("dist", &[]);
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1049);
        let find = |low: u64| s.buckets.iter().find(|b| b.low == low).map(|b| b.count);
        assert_eq!(find(0), Some(1)); // 0
        assert_eq!(find(1), Some(1)); // 1
        assert_eq!(find(2), Some(2)); // 2, 3
        assert_eq!(find(4), Some(2)); // 4, 7
        assert_eq!(find(8), Some(1)); // 8
        assert_eq!(find(1024), Some(1));
    }

    #[test]
    fn quantile_at_bucket_edges() {
        let r = Registry::new();
        let h = r.histogram("q", &[]);
        // 10 samples: 4 zeros, 4 in [4,7], 2 in [8,15].
        for v in [0, 0, 0, 0, 4, 5, 6, 7, 8, 15] {
            h.record(v);
        }
        let s = h.snapshot();
        // Ranks 1..=4 land in the zero bucket (exact upper bound 0).
        assert_eq!(s.quantile(0.0), 0);
        assert_eq!(s.quantile(0.4), 0);
        // Rank 5 (q just past the zero bucket) → [4,7] upper bound.
        assert_eq!(s.quantile(0.41), 7);
        assert_eq!(s.quantile(0.8), 7);
        // Rank 9..=10 → [8,15] upper bound; p100 == max bucket bound.
        assert_eq!(s.quantile(0.81), 15);
        assert_eq!(s.quantile(1.0), 15);
        // Out-of-range q clamps.
        assert_eq!(s.quantile(-1.0), 0);
        assert_eq!(s.quantile(2.0), 15);
    }

    #[test]
    fn quantile_empty_and_single() {
        assert_eq!(HistogramSnapshot::default().quantile(0.5), 0);
        let r = Registry::new();
        let h = r.histogram("one", &[]);
        h.record(1000);
        // Single sample: every quantile reports its bucket's upper bound,
        // documenting the <2x upper-bound bias of log2 buckets.
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 1023);
        assert_eq!(s.quantile(0.99), 1023);
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty histograms answer 0 for every q, including the edges.
        let empty = HistogramSnapshot::default();
        for q in [f64::NAN, -1.0, 0.0, 0.5, 1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0);
        }
        // Single non-zero bucket: the minimum (q <= 0) reports the
        // bucket's lower bound — never above any observed sample —
        // while every other quantile keeps the upper-bound bias.
        let r = Registry::new();
        let h = r.histogram("edge", &[]);
        h.record(1000); // bucket [512, 1023]
        let s = h.snapshot();
        assert_eq!(s.quantile(0.0), 512);
        assert_eq!(s.quantile(-3.0), 512);
        assert_eq!(s.quantile(f64::NAN), 512);
        assert_eq!(s.quantile(f64::MIN_POSITIVE), 1023);
        assert_eq!(s.quantile(1.0), 1023);
        assert_eq!(s.quantile(f64::INFINITY), 1023);
        assert_eq!(s.quantile(f64::NEG_INFINITY), 512);
        // Two buckets: q=1.0 lands on the last bucket even when the
        // rank computation saturates.
        let h2 = r.histogram("edge2", &[]);
        h2.record(1);
        h2.record(u64::MAX);
        let s2 = h2.snapshot();
        assert_eq!(s2.quantile(0.0), 1);
        assert_eq!(s2.quantile(1.0), u64::MAX);
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let r = Registry::new();
        r.counter("a", &[("k", "v")]).add(7);
        r.gauge("b", &[]).set(-3);
        r.histogram("c", &[]).record(9);
        let snap = r.snapshot();
        let s = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&s).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.gauge("x", &[]);
    }
}
