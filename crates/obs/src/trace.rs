//! Structured event tracing: owned trace events, a bounded ring-buffer
//! tracer, and JSONL export/import.

use cestim_core::Confidence;
use serde::{Deserialize, Serialize};
use std::io::{self, BufRead, Write};

/// One structured simulator event, in the owned form suitable for
/// retention and (de)serialization.
///
/// `Predict` and `Commit`/`Squash` carry everything the live
/// `SimObserver` hooks see, so a recorded stream replays the paper's
/// analyses (misprediction distance, clustering) bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A fetch burst: `count` instructions fetched starting at `pc`.
    Fetch {
        /// Cycle of the burst.
        cycle: u64,
        /// PC of the first instruction fetched.
        pc: u32,
        /// Instructions fetched this cycle.
        count: u32,
    },
    /// A conditional branch was fetched and predicted.
    Predict {
        /// Fetch-order sequence number among fetched branches.
        seq: u64,
        /// Branch PC.
        pc: u32,
        /// Fetch/predict cycle.
        cycle: u64,
        /// Predicted direction.
        predicted_taken: bool,
        /// Architecturally correct direction on the fetched path.
        actual_taken: bool,
        /// `predicted_taken != actual_taken`.
        mispredicted: bool,
        /// Speculative global history at prediction.
        ghr: u32,
        /// Per-estimator confidence estimates, in attach order.
        estimates: Vec<Confidence>,
    },
    /// A branch resolved in execute.
    Resolve {
        /// Sequence number of the branch.
        seq: u64,
        /// Branch PC.
        pc: u32,
        /// Resolution cycle.
        cycle: u64,
        /// Whether it had been mispredicted.
        mispredicted: bool,
    },
    /// A branch committed (architectural path).
    Commit {
        /// Sequence number of the branch.
        seq: u64,
        /// Branch PC.
        pc: u32,
        /// Predicted direction.
        predicted_taken: bool,
        /// Correct direction.
        actual_taken: bool,
        /// `predicted_taken != actual_taken`.
        mispredicted: bool,
        /// Fetch cycle.
        fetch_cycle: u64,
        /// Resolve cycle (`None` if it never resolved).
        resolve_cycle: Option<u64>,
        /// Speculative global history at prediction.
        ghr: u32,
        /// Per-estimator confidence estimates.
        estimates: Vec<Confidence>,
    },
    /// A speculative branch was squashed by an older misprediction.
    Squash {
        /// Sequence number of the branch.
        seq: u64,
        /// Branch PC.
        pc: u32,
        /// Predicted direction.
        predicted_taken: bool,
        /// Correct direction on its (wrong) path.
        actual_taken: bool,
        /// `predicted_taken != actual_taken`.
        mispredicted: bool,
        /// Fetch cycle.
        fetch_cycle: u64,
        /// Resolve cycle (`None` when squashed before resolving).
        resolve_cycle: Option<u64>,
        /// Speculative global history at prediction.
        ghr: u32,
        /// Per-estimator confidence estimates.
        estimates: Vec<Confidence>,
    },
    /// Misprediction recovery: squash + rewind + refetch.
    Recovery {
        /// Sequence number of the mispredicted branch.
        seq: u64,
        /// Its PC.
        pc: u32,
        /// Recovery cycle.
        cycle: u64,
        /// Younger speculative branches squashed.
        squashed: u32,
        /// Extra penalty cycles charged.
        penalty: u64,
    },
    /// Pipeline gating stalled fetch this cycle.
    Gate {
        /// The stalled cycle.
        cycle: u64,
        /// Low-confidence unresolved branches in flight.
        low_confidence: u32,
    },
}

impl TraceEvent {
    /// Short kind tag (for summaries).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Fetch { .. } => "fetch",
            TraceEvent::Predict { .. } => "predict",
            TraceEvent::Resolve { .. } => "resolve",
            TraceEvent::Commit { .. } => "commit",
            TraceEvent::Squash { .. } => "squash",
            TraceEvent::Recovery { .. } => "recovery",
            TraceEvent::Gate { .. } => "gate",
        }
    }
}

/// Bounded ring-buffer event recorder.
///
/// A disabled tracer ([`Tracer::disabled`]) is a no-op whose
/// [`enabled`](Tracer::enabled) guard lets recorders skip event
/// construction entirely. When the buffer fills, the oldest events are
/// overwritten and counted in [`dropped`](Tracer::dropped).
#[derive(Debug, Default)]
pub struct Tracer {
    inner: Option<Ring>,
}

#[derive(Debug)]
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    start: usize,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer retaining every event (the buffer grows without bound; use
    /// for full-trace export at scales where memory allows).
    pub fn unbounded() -> Tracer {
        Tracer::bounded(usize::MAX)
    }

    /// A tracer retaining the last `capacity` events.
    ///
    /// The ring storage is preallocated up front (capped at 64 Ki events
    /// for unbounded/huge capacities, beyond which the buffer grows
    /// amortized), so steady-state recording into a bounded ring performs
    /// no allocation per event.
    pub fn bounded(capacity: usize) -> Tracer {
        let cap = capacity.max(1);
        Tracer {
            inner: Some(Ring {
                buf: Vec::with_capacity(cap.min(1 << 16)),
                cap,
                start: 0,
                dropped: 0,
            }),
        }
    }

    /// Whether events are being recorded. Call sites should guard event
    /// construction: `if tracer.enabled() { tracer.record(...) }`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(ring) = &mut self.inner {
            if ring.buf.len() < ring.cap {
                ring.buf.push(event);
            } else {
                ring.buf[ring.start] = event;
                ring.start = (ring.start + 1) % ring.cap;
                ring.dropped += 1;
            }
        }
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        let (ring_len, start) = match &self.inner {
            Some(r) => (r.buf.len(), r.start),
            None => (0, 0),
        };
        (0..ring_len).map(move |i| {
            let r = self.inner.as_ref().expect("non-empty ring");
            &r.buf[(start + i) % ring_len.max(1)]
        })
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |r| r.buf.len())
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |r| r.dropped)
    }

    /// Writes all retained events as JSONL.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn export_jsonl<W: Write>(&self, w: W) -> io::Result<u64> {
        let mut tw = TraceWriter::new(w);
        for ev in self.events() {
            tw.write(ev)?;
        }
        Ok(tw.written())
    }
}

/// Streaming JSONL writer for [`TraceEvent`]s.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    w: W,
    written: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Wraps a writer.
    pub fn new(w: W) -> TraceWriter<W> {
        TraceWriter { w, written: 0 }
    }

    /// Writes one event as a JSON line.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn write(&mut self, event: &TraceEvent) -> io::Result<()> {
        serde_json::to_writer(&mut self.w, event)?;
        self.w.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    /// Events written so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes and returns the inner writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from flushing.
    pub fn finish(mut self) -> io::Result<W> {
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Reads a JSONL event stream written by [`TraceWriter`] (blank lines are
/// skipped).
///
/// A malformed **final** line is tolerated and dropped: a crash (or a
/// full disk) mid-append leaves a torn last record, and — like the exec
/// journal's resume path — everything up to it is still valid history.
/// Malformed lines anywhere *before* the end still indicate a corrupt
/// file and are an error.
///
/// # Errors
///
/// Returns an error on I/O failure or malformed JSON before the final
/// line.
pub fn read_trace_jsonl<R: BufRead>(r: R) -> io::Result<Vec<TraceEvent>> {
    let lines: Vec<String> = r.lines().collect::<io::Result<_>>()?;
    let last = lines.iter().rposition(|l| !l.trim().is_empty());
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match serde_json::from_str(line) {
            Ok(ev) => out.push(ev),
            Err(_) if Some(i) == last => break,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn predict(seq: u64) -> TraceEvent {
        TraceEvent::Predict {
            seq,
            pc: 0x40 + seq as u32,
            cycle: seq * 2,
            predicted_taken: true,
            actual_taken: seq.is_multiple_of(2),
            mispredicted: !seq.is_multiple_of(2),
            ghr: 0xABC,
            estimates: vec![Confidence::High, Confidence::Low],
        }
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::disabled();
        assert!(!t.enabled());
        t.record(predict(1));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn ring_keeps_newest() {
        let mut t = Tracer::bounded(3);
        for seq in 0..5 {
            t.record(predict(seq));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let seqs: Vec<u64> = t
            .events()
            .map(|e| match e {
                TraceEvent::Predict { seq, .. } => *seq,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = Tracer::bounded(16);
        t.record(TraceEvent::Fetch {
            cycle: 0,
            pc: 0,
            count: 4,
        });
        t.record(predict(1));
        t.record(TraceEvent::Resolve {
            seq: 1,
            pc: 0x41,
            cycle: 9,
            mispredicted: true,
        });
        t.record(TraceEvent::Recovery {
            seq: 1,
            pc: 0x41,
            cycle: 9,
            squashed: 2,
            penalty: 3,
        });
        t.record(TraceEvent::Gate {
            cycle: 10,
            low_confidence: 2,
        });
        let mut buf = Vec::new();
        assert_eq!(t.export_jsonl(&mut buf).unwrap(), 5);
        let back = read_trace_jsonl(buf.as_slice()).unwrap();
        let original: Vec<TraceEvent> = t.events().cloned().collect();
        assert_eq!(back, original);
    }

    #[test]
    fn commit_and_squash_round_trip() {
        let ev = TraceEvent::Commit {
            seq: 9,
            pc: 0x80,
            predicted_taken: false,
            actual_taken: false,
            mispredicted: false,
            fetch_cycle: 100,
            resolve_cycle: Some(104),
            ghr: 7,
            estimates: vec![Confidence::Low],
        };
        let s = serde_json::to_string(&ev).unwrap();
        let back: TraceEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, ev);
        let sq = TraceEvent::Squash {
            seq: 10,
            pc: 0x84,
            predicted_taken: true,
            actual_taken: true,
            mispredicted: false,
            fetch_cycle: 101,
            resolve_cycle: None,
            ghr: 7,
            estimates: vec![],
        };
        let s = serde_json::to_string(&sq).unwrap();
        let back: TraceEvent = serde_json::from_str(&s).unwrap();
        assert_eq!(back, sq);
    }

    #[test]
    fn malformed_trace_is_an_error() {
        // A torn line anywhere before the end means real corruption, not
        // a truncated append — still an error.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"{broken\n");
        let mut t = Tracer::bounded(4);
        t.record(predict(1));
        t.export_jsonl(&mut buf).unwrap();
        assert!(read_trace_jsonl(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        // Simulate a crash mid-append: valid events followed by a torn
        // tail. The reader recovers everything before the tear, exactly
        // like the exec journal's resume path.
        let mut t = Tracer::bounded(4);
        t.record(predict(1));
        t.record(predict(2));
        let mut buf = Vec::new();
        t.export_jsonl(&mut buf).unwrap();
        let full = read_trace_jsonl(buf.as_slice()).unwrap();
        assert_eq!(full.len(), 2);

        // Cut the file mid-way through the last record.
        let cut = buf.len() - 10;
        let torn = &buf[..cut];
        let recovered = read_trace_jsonl(torn).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0], full[0]);

        // A torn-only file recovers to empty rather than erroring.
        assert_eq!(read_trace_jsonl(&b"{broken"[..]).unwrap().len(), 0);
    }
}
