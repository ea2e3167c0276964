//! Structured event tracing: owned trace events, a tracer that keeps
//! them, and JSONL export/import.

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

/// Event recorder.
///
/// A disabled tracer ([`Tracer::disabled`]) is a no-op whose
/// [`enabled`](Tracer::enabled) guard lets recorders skip event
/// construction entirely; an enabled one ([`Tracer::unbounded`]) keeps
/// every event.
#[derive(Debug, Default)]
pub struct Tracer {
    events: Option<Vec<TraceEvent>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer { events: None }
    }

    /// A tracer retaining every event (the buffer grows without bound; use
    /// for full-trace export at scales where memory allows). The first
    /// 64 Ki events' storage is reserved up front.
    pub fn unbounded() -> Tracer {
        Tracer {
            events: Some(Vec::with_capacity(1 << 16)),
        }
    }

    /// Whether events are being recorded. Call sites should guard event
    /// construction: `if tracer.enabled() { tracer.record(...) }`.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.events.is_some()
    }

    /// Records one event (no-op when disabled).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if let Some(events) = &mut self.events {
            events.push(event);
        }
    }

    /// Recorded events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().flatten()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.as_ref().map_or(0, Vec::len)
    }

    /// True when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes all recorded events as JSONL, one event per line, and
    /// returns how many it wrote.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the writer.
    pub fn export_jsonl<W: Write>(&self, mut w: W) -> io::Result<u64> {
        for ev in self.events() {
            serde_json::to_writer(&mut w, ev)?;
            w.write_all(b"\n")?;
        }
        Ok(self.len() as u64)
    }
}

/// Reads a JSONL event stream written by [`Tracer::export_jsonl`] (blank
/// lines are skipped).
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
    }

    #[test]
    fn jsonl_round_trip() {
        let mut t = Tracer::unbounded();
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
        let mut t = Tracer::unbounded();
        t.record(predict(1));
        t.export_jsonl(&mut buf).unwrap();
        assert!(read_trace_jsonl(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_final_line_is_tolerated() {
        // Simulate a crash mid-append: valid events followed by a torn
        // tail. The reader recovers everything before the tear, exactly
        // like the exec journal's resume path.
        let mut t = Tracer::unbounded();
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
