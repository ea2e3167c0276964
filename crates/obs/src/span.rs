//! Causal, hierarchical span tracing.
//!
//! A [`SpanCollector`] hands out monotonically increasing [`SpanId`]s and
//! gathers finished, parent-linked [`SpanRecord`]s. Recording is designed
//! around two paths:
//!
//! * **Hot path** — a worker thread owns a [`SpanBuffer`]: finishing a
//!   span appends to a plain `Vec`, and the shared sink lock is taken only
//!   when the buffer fills or is dropped (flush batching), so concurrent
//!   recorders never contend per span.
//! * **Ambient path** — low-frequency call sites (experiments, simulation
//!   runs) use a thread-local *ambient context* installed with
//!   [`set_ambient`]; [`AmbientSpan`] routes through it, maintaining an
//!   implicit parent stack so nested spans nest causally.
//!
//! All recording is gated on the collector being enabled; a
//! [`SpanCollector::disabled`] collector makes every call a cheap no-op
//! and every guard inert. [`SpanCollector::drain`] merges everything
//! recorded so far deterministically: records are sorted by id, and ids
//! are allocated from one atomic counter, so the merged order is a pure
//! function of the recorded set regardless of which thread flushed first.
//!
//! Timestamps are nanoseconds relative to the collector's creation
//! instant, so traces from one run share a single timebase.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Identifier of one span, unique within its [`SpanCollector`].
///
/// Ids are allocated from a single atomic counter starting at 1 and are
/// strictly monotonic in allocation order; `SpanId(0)` is reserved to mean
/// "no parent" (see [`SpanId::NONE`]). A child's id is therefore always
/// greater than its parent's, which makes parent links acyclic by
/// construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no parent" sentinel (id 0 is never allocated).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real allocated id (not [`SpanId::NONE`]).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// One finished span: a named, labelled wall-clock interval with a causal
/// parent link and the tag of the thread that closed it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// This span's id (monotonic, unique per collector).
    pub id: SpanId,
    /// Parent span id, or [`SpanId::NONE`] for a root.
    pub parent: SpanId,
    /// Span name (e.g. `exec.batch`, `exec.attempt`, `sim.phase`).
    pub name: String,
    /// Key/value labels (cache key, attempt number, fault provenance, …).
    pub labels: Vec<(String, String)>,
    /// Start time, nanoseconds since the collector epoch.
    pub start_nanos: u64,
    /// End time, nanoseconds since the collector epoch.
    pub end_nanos: u64,
    /// Tag of the thread that recorded the span (e.g. `main`, `worker-1`).
    pub thread: String,
}

struct Shared {
    epoch: Instant,
    next_id: AtomicU64,
    sink: Mutex<Vec<SpanRecord>>,
}

/// Collects [`SpanRecord`]s from any number of threads.
///
/// Cloning is cheap (an `Arc`); all clones feed the same sink. A
/// [`disabled`](SpanCollector::disabled) collector records nothing and
/// costs one `Option` check per call.
#[derive(Clone, Default)]
pub struct SpanCollector {
    shared: Option<Arc<Shared>>,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// How many finished spans a [`SpanBuffer`] holds before flushing to the
/// shared sink.
const BUFFER_FLUSH_AT: usize = 256;

impl SpanCollector {
    /// An enabled collector with a fresh epoch.
    pub fn new() -> SpanCollector {
        SpanCollector {
            shared: Some(Arc::new(Shared {
                epoch: Instant::now(),
                next_id: AtomicU64::new(1),
                sink: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A collector that records nothing.
    pub fn disabled() -> SpanCollector {
        SpanCollector { shared: None }
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Nanoseconds since the collector epoch (0 when disabled).
    pub fn now_nanos(&self) -> u64 {
        match &self.shared {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    fn alloc_id(&self) -> SpanId {
        match &self.shared {
            Some(s) => SpanId(s.next_id.fetch_add(1, Ordering::Relaxed)),
            None => SpanId::NONE,
        }
    }

    /// Opens a span with an explicit parent, outside any buffer or stack.
    /// Close it with [`SpanBuffer::close`] (possibly on another thread) or
    /// [`SpanCollector::close`]. Returns an inert span when disabled.
    pub fn open(&self, name: &str, parent: SpanId, labels: &[(&str, &str)]) -> OpenSpan {
        if !self.enabled() {
            return OpenSpan::inert();
        }
        OpenSpan {
            id: self.alloc_id(),
            parent,
            name: name.to_string(),
            labels: own_labels(labels),
            start_nanos: self.now_nanos(),
        }
    }

    /// Closes `span` now, recording it directly into the shared sink
    /// (takes the sink lock — fine off the hot path).
    pub fn close(&self, span: OpenSpan, thread: &str) {
        if let Some(rec) = self.finish(span, thread) {
            self.record(rec);
        }
    }

    fn finish(&self, span: OpenSpan, thread: &str) -> Option<SpanRecord> {
        if !span.id.is_some() || !self.enabled() {
            return None;
        }
        Some(SpanRecord {
            id: span.id,
            parent: span.parent,
            name: span.name,
            labels: span.labels,
            start_nanos: span.start_nanos,
            end_nanos: self.now_nanos(),
            thread: thread.to_string(),
        })
    }

    /// Records an already-assembled span (no-op when disabled). The record
    /// should carry an id from this collector — synthesise one with
    /// [`record_closed`](SpanCollector::record_closed) otherwise.
    pub fn record(&self, rec: SpanRecord) {
        if let Some(s) = &self.shared {
            s.sink.lock().unwrap().push(rec);
        }
    }

    /// Records a synthetic already-closed interval (e.g. a queue wait
    /// reconstructed from an enqueue timestamp).
    pub fn record_closed(
        &self,
        name: &str,
        parent: SpanId,
        labels: &[(&str, &str)],
        start_nanos: u64,
        end_nanos: u64,
        thread: &str,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let id = self.alloc_id();
        self.record(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            labels: own_labels(labels),
            start_nanos,
            end_nanos,
            thread: thread.to_string(),
        });
        id
    }

    /// A per-thread recording buffer tagged with a thread name. Buffers
    /// batch finished spans and take the sink lock only on flush.
    pub fn buffer(&self, thread_tag: &str) -> SpanBuffer {
        SpanBuffer {
            collector: self.clone(),
            tag: thread_tag.to_string(),
            buf: Vec::new(),
        }
    }

    /// Removes and returns everything recorded so far, sorted by id.
    ///
    /// Make sure outstanding [`SpanBuffer`]s have flushed (dropping one
    /// flushes it) — buffered-but-unflushed spans are not visible here.
    pub fn drain(&self) -> Vec<SpanRecord> {
        match &self.shared {
            Some(s) => {
                let mut v = std::mem::take(&mut *s.sink.lock().unwrap());
                v.sort_by_key(|r| r.id);
                v
            }
            None => Vec::new(),
        }
    }

    fn same_as(&self, other: &SpanCollector) -> bool {
        match (&self.shared, &other.shared) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// An in-progress span: id + start time captured, end pending. Inert (all
/// operations no-ops) when produced by a disabled collector.
#[derive(Debug)]
pub struct OpenSpan {
    id: SpanId,
    parent: SpanId,
    name: String,
    labels: Vec<(String, String)>,
    start_nanos: u64,
}

impl OpenSpan {
    fn inert() -> OpenSpan {
        OpenSpan {
            id: SpanId::NONE,
            parent: SpanId::NONE,
            name: String::new(),
            labels: Vec::new(),
            start_nanos: 0,
        }
    }

    /// This span's id ([`SpanId::NONE`] when inert).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Start time, nanoseconds since the collector epoch (0 when inert).
    pub fn start_nanos(&self) -> u64 {
        self.start_nanos
    }

    /// Appends a label (e.g. an outcome discovered after opening).
    pub fn label(&mut self, key: &str, value: &str) {
        if self.id.is_some() {
            self.labels.push((key.to_string(), value.to_string()));
        }
    }
}

/// Per-thread span recording buffer (see [`SpanCollector::buffer`]).
///
/// Finished spans accumulate locally and are flushed to the collector's
/// sink when the buffer reaches an internal threshold, on
/// [`flush`](SpanBuffer::flush), or on drop.
#[derive(Debug)]
pub struct SpanBuffer {
    collector: SpanCollector,
    tag: String,
    buf: Vec<SpanRecord>,
}

impl SpanBuffer {
    /// Opens a child span of `parent` (start = now).
    pub fn open(&self, name: &str, parent: SpanId, labels: &[(&str, &str)]) -> OpenSpan {
        self.collector.open(name, parent, labels)
    }

    /// Closes `span`, stamping this buffer's thread tag.
    pub fn close(&mut self, span: OpenSpan) {
        if let Some(rec) = self.collector.finish(span, &self.tag) {
            self.buf.push(rec);
            if self.buf.len() >= BUFFER_FLUSH_AT {
                self.flush();
            }
        }
    }

    /// Records a synthetic already-closed interval under this thread tag.
    pub fn record_closed(
        &mut self,
        name: &str,
        parent: SpanId,
        labels: &[(&str, &str)],
        start_nanos: u64,
        end_nanos: u64,
    ) {
        if !self.collector.enabled() {
            return;
        }
        let id = self.collector.alloc_id();
        self.buf.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            labels: own_labels(labels),
            start_nanos,
            end_nanos,
            thread: self.tag.clone(),
        });
        if self.buf.len() >= BUFFER_FLUSH_AT {
            self.flush();
        }
    }

    /// Nanoseconds since the collector epoch (0 when disabled).
    pub fn now_nanos(&self) -> u64 {
        self.collector.now_nanos()
    }

    /// The thread tag stamped on spans closed through this buffer.
    pub fn tag(&self) -> &str {
        &self.tag
    }

    /// Whether the owning collector records anything.
    pub fn enabled(&self) -> bool {
        self.collector.enabled()
    }

    /// Pushes buffered records into the shared sink (one lock).
    pub fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        if let Some(s) = &self.collector.shared {
            s.sink.lock().unwrap().append(&mut self.buf);
        }
    }
}

impl Drop for SpanBuffer {
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------------
// Ambient (thread-local) span context.
// ---------------------------------------------------------------------------

struct Ambient {
    collector: SpanCollector,
    tag: String,
    /// Open ambient span ids, innermost last. The bottom entry is the
    /// externally supplied root parent (possibly `NONE`).
    stack: Vec<SpanId>,
}

thread_local! {
    static AMBIENT: RefCell<Option<Ambient>> = const { RefCell::new(None) };
}

/// Installs `collector` as this thread's ambient span context: subsequent
/// [`AmbientSpan`]s on this thread are recorded as spans parented under
/// `root`.
///
/// Returns a guard; the previous ambient context is restored when it
/// drops. Installing a disabled collector effectively suspends ambient
/// recording for the guard's lifetime.
pub fn set_ambient(collector: &SpanCollector, root: SpanId, thread_tag: &str) -> AmbientGuard {
    let prev = AMBIENT.with(|a| {
        a.borrow_mut().replace(Ambient {
            collector: collector.clone(),
            tag: thread_tag.to_string(),
            stack: vec![root],
        })
    });
    AmbientGuard { prev }
}

/// Restores the previous ambient context on drop (see [`set_ambient`]).
#[must_use = "dropping the guard immediately uninstalls the ambient context"]
pub struct AmbientGuard {
    prev: Option<Ambient>,
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|a| *a.borrow_mut() = self.prev.take());
    }
}

/// Opens a span under the ambient context (parent = innermost open
/// ambient span) and pushes it on the ambient stack. Returns an inert
/// span when no enabled ambient context is installed.
pub fn ambient_begin(name: &str, labels: &[(&str, &str)]) -> OpenSpan {
    AMBIENT.with(|a| match a.borrow_mut().as_mut() {
        Some(amb) if amb.collector.enabled() => {
            let parent = *amb.stack.last().unwrap_or(&SpanId::NONE);
            let span = amb.collector.open(name, parent, labels);
            amb.stack.push(span.id());
            span
        }
        _ => OpenSpan::inert(),
    })
}

/// Closes a span opened with [`ambient_begin`], popping the ambient stack.
///
/// Spans must be closed innermost-first; closing out of order pops
/// whatever is innermost (the record itself keeps the correct parent).
pub fn ambient_end(span: OpenSpan) {
    if !span.id.is_some() {
        return;
    }
    AMBIENT.with(|a| {
        if let Some(amb) = a.borrow_mut().as_mut() {
            if let Some(pos) = amb.stack.iter().rposition(|&id| id == span.id) {
                amb.stack.remove(pos);
            }
            let tag = amb.tag.clone();
            amb.collector.close(span, &tag);
        }
    });
}

/// Clones this thread's ambient collector (disabled when none installed),
/// plus the innermost open ambient span id — the handoff point for code
/// that wants to record spans on another thread under the current parent.
pub fn ambient_handle() -> (SpanCollector, SpanId) {
    AMBIENT.with(|a| match a.borrow().as_ref() {
        Some(amb) => (
            amb.collector.clone(),
            *amb.stack.last().unwrap_or(&SpanId::NONE),
        ),
        None => (SpanCollector::disabled(), SpanId::NONE),
    })
}

/// RAII ambient span: [`ambient_begin`] on construction, [`ambient_end`]
/// on drop.
#[derive(Debug)]
pub struct AmbientSpan {
    span: Option<OpenSpan>,
}

impl AmbientSpan {
    /// Opens an ambient child span (inert without an ambient context).
    pub fn enter(name: &str, labels: &[(&str, &str)]) -> AmbientSpan {
        AmbientSpan {
            span: Some(ambient_begin(name, labels)),
        }
    }

    /// The open span's id ([`SpanId::NONE`] when inert).
    pub fn id(&self) -> SpanId {
        self.span.as_ref().map_or(SpanId::NONE, |s| s.id())
    }
}

impl Drop for AmbientSpan {
    fn drop(&mut self) {
        if let Some(span) = self.span.take() {
            ambient_end(span);
        }
    }
}

/// Returns `true` when `collector` is the ambient collector of this
/// thread (used by tests and callers to avoid double-recording).
pub fn ambient_is(collector: &SpanCollector) -> bool {
    AMBIENT.with(|a| {
        a.borrow()
            .as_ref()
            .is_some_and(|amb| amb.collector.same_as(collector))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let c = SpanCollector::disabled();
        assert!(!c.enabled());
        let span = c.open("x", SpanId::NONE, &[]);
        assert_eq!(span.id(), SpanId::NONE);
        c.close(span, "main");
        c.record_closed("y", SpanId::NONE, &[], 0, 1, "main");
        assert!(c.drain().is_empty());
    }

    #[test]
    fn ids_are_monotonic_and_children_follow_parents() {
        let c = SpanCollector::new();
        let root = c.open("root", SpanId::NONE, &[]);
        let child = c.open("child", root.id(), &[("k", "v")]);
        assert!(child.id() > root.id());
        let child_id = child.id();
        let root_id = root.id();
        c.close(child, "main");
        c.close(root, "main");
        let recs = c.drain();
        assert_eq!(recs.len(), 2);
        // Drain is sorted by id: root (allocated first) leads.
        assert_eq!(recs[0].id, root_id);
        assert_eq!(recs[1].id, child_id);
        assert_eq!(recs[1].parent, root_id);
        assert_eq!(recs[1].labels, vec![("k".to_string(), "v".to_string())]);
        assert!(recs[0].end_nanos >= recs[0].start_nanos);
    }

    #[test]
    fn buffers_batch_and_merge_deterministically() {
        let c = SpanCollector::new();
        let root = c.open("batch", SpanId::NONE, &[]);
        let root_id = root.id();
        std::thread::scope(|s| {
            for t in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    let mut buf = c.buffer(&format!("worker-{t}"));
                    for i in 0..10 {
                        let sp = buf.open(&format!("job-{t}-{i}"), root_id, &[]);
                        buf.close(sp);
                    }
                    // Buffer flushes on drop here.
                });
            }
        });
        c.close(root, "main");
        let recs = c.drain();
        assert_eq!(recs.len(), 41);
        // Sorted by id regardless of flush interleaving.
        assert!(recs.windows(2).all(|w| w[0].id < w[1].id));
        // Every child's parent id precedes it (acyclic by construction).
        for r in &recs {
            if r.parent.is_some() {
                assert!(r.parent < r.id);
            }
        }
        // Second drain is empty.
        assert!(c.drain().is_empty());
    }

    #[test]
    fn buffer_flushes_at_threshold_without_drop() {
        let c = SpanCollector::new();
        let mut buf = c.buffer("main");
        for _ in 0..BUFFER_FLUSH_AT {
            let sp = buf.open("s", SpanId::NONE, &[]);
            buf.close(sp);
        }
        // Threshold reached: records visible before the buffer drops.
        assert_eq!(c.drain().len(), BUFFER_FLUSH_AT);
    }

    #[test]
    fn ambient_stack_parents_nested_spans() {
        let c = SpanCollector::new();
        let _g = set_ambient(&c, SpanId::NONE, "main");
        assert!(ambient_is(&c));
        let outer = ambient_begin("outer", &[]);
        let inner = ambient_begin("inner", &[]);
        let outer_id = outer.id();
        let inner_id = inner.id();
        ambient_end(inner);
        ambient_end(outer);
        let recs = c.drain();
        assert_eq!(recs.len(), 2);
        let outer_rec = recs.iter().find(|r| r.id == outer_id).unwrap();
        let inner_rec = recs.iter().find(|r| r.id == inner_id).unwrap();
        assert_eq!(inner_rec.parent, outer_id);
        assert_eq!(outer_rec.parent, SpanId::NONE);
        assert!(inner_rec.start_nanos >= outer_rec.start_nanos);
        assert!(inner_rec.end_nanos <= outer_rec.end_nanos);
        assert_eq!(outer_rec.thread, "main");
    }

    #[test]
    fn ambient_guard_restores_previous_context() {
        let c1 = SpanCollector::new();
        let c2 = SpanCollector::new();
        let _g1 = set_ambient(&c1, SpanId::NONE, "a");
        assert!(ambient_is(&c1));
        {
            let _g2 = set_ambient(&c2, SpanId::NONE, "b");
            assert!(ambient_is(&c2));
        }
        assert!(ambient_is(&c1));
    }

    #[test]
    fn ambient_without_context_is_inert() {
        // No set_ambient on this thread.
        std::thread::spawn(|| {
            let c = SpanCollector::new();
            let sp = ambient_begin("x", &[]);
            assert_eq!(sp.id(), SpanId::NONE);
            ambient_end(sp);
            let raii = AmbientSpan::enter("y", &[]);
            assert_eq!(raii.id(), SpanId::NONE);
            drop(raii);
            let (handle, parent) = ambient_handle();
            assert!(!handle.enabled());
            assert_eq!(parent, SpanId::NONE);
            assert!(c.drain().is_empty());
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ambient_span_raii_nests() {
        let c = SpanCollector::new();
        let _g = set_ambient(&c, SpanId::NONE, "main");
        {
            let _outer = AmbientSpan::enter("outer", &[]);
            let _inner = AmbientSpan::enter("inner", &[("k", "v")]);
            let _leaf = AmbientSpan::enter("leaf", &[]);
        }
        let recs = c.drain();
        assert_eq!(recs.len(), 3);
        let find = |name: &str| recs.iter().find(|r| r.name == name).unwrap();
        let (outer, inner, leaf) = (find("outer"), find("inner"), find("leaf"));
        // Causal chain: leaf → inner → outer → root.
        assert_eq!(leaf.parent, inner.id);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, SpanId::NONE);
        // Child interval ⊆ parent interval.
        for (child, parent) in [(leaf, inner), (inner, outer)] {
            assert!(child.start_nanos >= parent.start_nanos);
            assert!(child.end_nanos <= parent.end_nanos);
            // Ids are acyclic: every parent id precedes its child's id.
            assert!(parent.id < child.id);
        }
        assert_eq!(inner.labels, vec![("k".to_string(), "v".to_string())]);
    }

    #[test]
    fn open_span_label_appends() {
        let c = SpanCollector::new();
        let mut sp = c.open("s", SpanId::NONE, &[("a", "1")]);
        sp.label("b", "2");
        c.close(sp, "main");
        let recs = c.drain();
        assert_eq!(
            recs[0].labels,
            vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string())
            ]
        );
    }
}
