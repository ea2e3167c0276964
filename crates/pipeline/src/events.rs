//! Observer hooks for pipeline-level measurements, and the mapping
//! between them and recorded [`TraceEvent`]s in both directions: a
//! [`Tracer`] is an ordinary observer, and [`replay`] feeds a recorded
//! stream back through any observer.

use cestim_core::Confidence;
use cestim_obs::{TraceEvent, Tracer};

/// A fetch burst: the instructions fetched in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchEvent {
    /// Cycle of the burst.
    pub cycle: u64,
    /// PC of the first instruction fetched.
    pub pc: u32,
    /// Instructions fetched this cycle (always positive).
    pub count: u32,
}

/// A branch entering the pipeline (prediction/decode time).
///
/// Because the simulator executes at decode, the *actual* outcome is already
/// known here — exactly the "speculative trace" capability the paper uses to
/// study all (committed *and* uncommitted) branches. `seq` numbers branches
/// in fetch order across the whole run, which is the distance measure of the
/// paper's "precise" misprediction-distance plots (Figs 6–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictEvent<'a> {
    /// Fetch-order sequence number among all fetched branches.
    pub seq: u64,
    /// Branch PC.
    pub pc: u32,
    /// Predicted direction.
    pub predicted_taken: bool,
    /// Architecturally correct direction.
    pub actual_taken: bool,
    /// `predicted_taken != actual_taken`.
    pub mispredicted: bool,
    /// Cycle of fetch/decode.
    pub cycle: u64,
    /// Speculative global history value used for the prediction.
    pub ghr: u32,
    /// Confidence estimates, one per attached estimator, in attach order.
    pub estimates: &'a [Confidence],
}

/// A branch resolving in the pipeline.
///
/// Resolution order differs from fetch order (dataflow-timed, out-of-order
/// resolution), and wrong-path branches may resolve too — this stream is
/// what the paper's "perceived" misprediction distance (Figs 8–9) and the
/// distance estimator observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolveEvent {
    /// Fetch-order sequence number of the resolving branch.
    pub seq: u64,
    /// Branch PC.
    pub pc: u32,
    /// Whether the resolution detected a misprediction.
    pub mispredicted: bool,
    /// Cycle of resolution.
    pub cycle: u64,
}

/// Final disposition of a fetched branch: committed or squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeEvent<'a> {
    /// Fetch-order sequence number.
    pub seq: u64,
    /// Branch PC.
    pub pc: u32,
    /// Predicted direction.
    pub predicted_taken: bool,
    /// Architecturally correct direction (relative to the path it was
    /// fetched on).
    pub actual_taken: bool,
    /// `predicted_taken != actual_taken`.
    pub mispredicted: bool,
    /// `true` when the branch committed; `false` when it was squashed as
    /// wrong-path work.
    pub committed: bool,
    /// Cycle of fetch/decode.
    pub fetch_cycle: u64,
    /// Cycle of resolution, `None` when squashed before resolving.
    pub resolve_cycle: Option<u64>,
    /// Speculative global history value at prediction.
    pub ghr: u32,
    /// Confidence estimates, one per attached estimator.
    pub estimates: &'a [Confidence],
}

/// A misprediction recovery: the checkpoint rewind after a mispredicted
/// branch resolves, with everything younger squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Fetch-order sequence number of the mispredicted branch.
    pub seq: u64,
    /// Its PC.
    pub pc: u32,
    /// Cycle the recovery happened (the resolution cycle).
    pub cycle: u64,
    /// Younger speculative branches squashed by the rewind.
    pub squashed: u32,
    /// Extra penalty cycles charged (0 when an eager fork covered the
    /// misprediction).
    pub penalty: u64,
}

/// Fetch stalled for one cycle by confidence-driven pipeline gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateEvent {
    /// The stalled cycle.
    pub cycle: u64,
    /// Low-confidence unresolved branches in flight (at or above the
    /// configured gate threshold).
    pub low_confidence: u32,
}

/// Passive observer of pipeline events.
///
/// All methods default to no-ops; implement only what an analysis needs.
/// `cestim-trace` provides streaming analyses (distance histograms,
/// clustering, boosting) built on this trait; a [`Tracer`] records the
/// full event stream.
pub trait SimObserver {
    /// Fetch brought in at least one instruction this cycle. Called after
    /// the burst's branches were predicted.
    fn on_fetch(&mut self, ev: &FetchEvent) {
        let _ = ev;
    }

    /// A branch was fetched, predicted and confidence-estimated.
    fn on_branch_predicted(&mut self, ev: &PredictEvent<'_>) {
        let _ = ev;
    }

    /// A branch resolved (possibly on a wrong path).
    fn on_branch_resolved(&mut self, ev: &ResolveEvent) {
        let _ = ev;
    }

    /// A branch reached its final disposition (commit or squash).
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        let _ = ev;
    }

    /// A misprediction recovery rewound the machine.
    fn on_recovery(&mut self, ev: &RecoveryEvent) {
        let _ = ev;
    }

    /// Pipeline gating stalled fetch this cycle.
    fn on_fetch_gated(&mut self, ev: &GateEvent) {
        let _ = ev;
    }
}

/// An observer that ignores everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl SimObserver for NullObserver {}

/// Fans one event stream out to several observers.
pub struct MultiObserver<'a> {
    observers: Vec<&'a mut dyn SimObserver>,
}

impl<'a> MultiObserver<'a> {
    /// Creates a fan-out over the given observers.
    pub fn new(observers: Vec<&'a mut dyn SimObserver>) -> MultiObserver<'a> {
        MultiObserver { observers }
    }
}

impl SimObserver for MultiObserver<'_> {
    fn on_fetch(&mut self, ev: &FetchEvent) {
        for o in &mut self.observers {
            o.on_fetch(ev);
        }
    }
    fn on_branch_predicted(&mut self, ev: &PredictEvent<'_>) {
        for o in &mut self.observers {
            o.on_branch_predicted(ev);
        }
    }
    fn on_branch_resolved(&mut self, ev: &ResolveEvent) {
        for o in &mut self.observers {
            o.on_branch_resolved(ev);
        }
    }
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        for o in &mut self.observers {
            o.on_branch_outcome(ev);
        }
    }
    fn on_recovery(&mut self, ev: &RecoveryEvent) {
        for o in &mut self.observers {
            o.on_recovery(ev);
        }
    }
    fn on_fetch_gated(&mut self, ev: &GateEvent) {
        for o in &mut self.observers {
            o.on_fetch_gated(ev);
        }
    }
}

/// Records every event, in hook order, as an owned [`TraceEvent`]. A
/// disabled tracer builds nothing.
impl SimObserver for Tracer {
    fn on_fetch(&mut self, ev: &FetchEvent) {
        record(self, || TraceEvent::Fetch {
            cycle: ev.cycle,
            pc: ev.pc,
            count: ev.count,
        });
    }
    fn on_branch_predicted(&mut self, ev: &PredictEvent<'_>) {
        record(self, || TraceEvent::Predict {
            seq: ev.seq,
            pc: ev.pc,
            cycle: ev.cycle,
            predicted_taken: ev.predicted_taken,
            actual_taken: ev.actual_taken,
            mispredicted: ev.mispredicted,
            ghr: ev.ghr,
            estimates: ev.estimates.to_vec(),
        });
    }
    fn on_branch_resolved(&mut self, ev: &ResolveEvent) {
        record(self, || TraceEvent::Resolve {
            seq: ev.seq,
            pc: ev.pc,
            cycle: ev.cycle,
            mispredicted: ev.mispredicted,
        });
    }
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        record(self, || {
            if ev.committed {
                TraceEvent::Commit {
                    seq: ev.seq,
                    pc: ev.pc,
                    predicted_taken: ev.predicted_taken,
                    actual_taken: ev.actual_taken,
                    mispredicted: ev.mispredicted,
                    fetch_cycle: ev.fetch_cycle,
                    resolve_cycle: ev.resolve_cycle,
                    ghr: ev.ghr,
                    estimates: ev.estimates.to_vec(),
                }
            } else {
                TraceEvent::Squash {
                    seq: ev.seq,
                    pc: ev.pc,
                    predicted_taken: ev.predicted_taken,
                    actual_taken: ev.actual_taken,
                    mispredicted: ev.mispredicted,
                    fetch_cycle: ev.fetch_cycle,
                    resolve_cycle: ev.resolve_cycle,
                    ghr: ev.ghr,
                    estimates: ev.estimates.to_vec(),
                }
            }
        });
    }
    fn on_recovery(&mut self, ev: &RecoveryEvent) {
        record(self, || TraceEvent::Recovery {
            seq: ev.seq,
            pc: ev.pc,
            cycle: ev.cycle,
            squashed: ev.squashed,
            penalty: ev.penalty,
        });
    }
    fn on_fetch_gated(&mut self, ev: &GateEvent) {
        record(self, || TraceEvent::Gate {
            cycle: ev.cycle,
            low_confidence: ev.low_confidence,
        });
    }
}

#[inline]
fn record(tracer: &mut Tracer, event: impl FnOnce() -> TraceEvent) {
    if tracer.enabled() {
        tracer.record(event());
    }
}

/// Replays one recorded event into an observer: the inverse of the
/// [`Tracer`] mapping above. `Commit` and `Squash` both map onto
/// [`SimObserver::on_branch_outcome`] (with `committed` true and false
/// respectively); every other kind hits its own hook.
pub fn replay_event<O: SimObserver + ?Sized>(ev: &TraceEvent, obs: &mut O) {
    match ev {
        &TraceEvent::Fetch { cycle, pc, count } => obs.on_fetch(&FetchEvent { cycle, pc, count }),
        TraceEvent::Predict {
            seq,
            pc,
            cycle,
            predicted_taken,
            actual_taken,
            mispredicted,
            ghr,
            estimates,
        } => obs.on_branch_predicted(&PredictEvent {
            seq: *seq,
            pc: *pc,
            predicted_taken: *predicted_taken,
            actual_taken: *actual_taken,
            mispredicted: *mispredicted,
            cycle: *cycle,
            ghr: *ghr,
            estimates,
        }),
        &TraceEvent::Resolve {
            seq,
            pc,
            cycle,
            mispredicted,
        } => obs.on_branch_resolved(&ResolveEvent {
            seq,
            pc,
            mispredicted,
            cycle,
        }),
        TraceEvent::Commit {
            seq,
            pc,
            predicted_taken,
            actual_taken,
            mispredicted,
            fetch_cycle,
            resolve_cycle,
            ghr,
            estimates,
        }
        | TraceEvent::Squash {
            seq,
            pc,
            predicted_taken,
            actual_taken,
            mispredicted,
            fetch_cycle,
            resolve_cycle,
            ghr,
            estimates,
        } => obs.on_branch_outcome(&OutcomeEvent {
            seq: *seq,
            pc: *pc,
            predicted_taken: *predicted_taken,
            actual_taken: *actual_taken,
            mispredicted: *mispredicted,
            committed: matches!(ev, TraceEvent::Commit { .. }),
            fetch_cycle: *fetch_cycle,
            resolve_cycle: *resolve_cycle,
            ghr: *ghr,
            estimates,
        }),
        &TraceEvent::Recovery {
            seq,
            pc,
            cycle,
            squashed,
            penalty,
        } => obs.on_recovery(&RecoveryEvent {
            seq,
            pc,
            cycle,
            squashed,
            penalty,
        }),
        &TraceEvent::Gate {
            cycle,
            low_confidence,
        } => obs.on_fetch_gated(&GateEvent {
            cycle,
            low_confidence,
        }),
    }
}

/// Replays recorded events in order (from a [`Tracer`] or
/// [`read_trace_jsonl`](cestim_obs::read_trace_jsonl)); returns the number
/// replayed. A trace replayed into an analysis reproduces the live
/// analysis bit for bit, and one replayed into a tracer reproduces itself.
pub fn replay<'e, O: SimObserver + ?Sized>(
    events: impl IntoIterator<Item = &'e TraceEvent>,
    obs: &mut O,
) -> u64 {
    let mut n = 0;
    for ev in events {
        replay_event(ev, obs);
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Default)]
    struct Counter {
        fetched: u32,
        predicted: u32,
        resolved: u32,
        outcomes: u32,
        recoveries: u32,
        gated: u32,
    }

    impl SimObserver for Counter {
        fn on_fetch(&mut self, _: &FetchEvent) {
            self.fetched += 1;
        }
        fn on_branch_predicted(&mut self, _: &PredictEvent<'_>) {
            self.predicted += 1;
        }
        fn on_branch_resolved(&mut self, _: &ResolveEvent) {
            self.resolved += 1;
        }
        fn on_branch_outcome(&mut self, _: &OutcomeEvent<'_>) {
            self.outcomes += 1;
        }
        fn on_recovery(&mut self, _: &RecoveryEvent) {
            self.recoveries += 1;
        }
        fn on_fetch_gated(&mut self, _: &GateEvent) {
            self.gated += 1;
        }
    }

    /// One event of every hook, with a committed and a squashed outcome.
    fn sample_events(obs: &mut dyn SimObserver) {
        let estimates = [Confidence::High, Confidence::Low];
        obs.on_branch_predicted(&PredictEvent {
            seq: 0,
            pc: 4,
            predicted_taken: true,
            actual_taken: false,
            mispredicted: true,
            cycle: 10,
            ghr: 0,
            estimates: &estimates,
        });
        obs.on_fetch(&FetchEvent {
            cycle: 10,
            pc: 3,
            count: 2,
        });
        obs.on_branch_resolved(&ResolveEvent {
            seq: 0,
            pc: 4,
            mispredicted: true,
            cycle: 13,
        });
        obs.on_branch_outcome(&OutcomeEvent {
            seq: 1,
            pc: 8,
            predicted_taken: false,
            actual_taken: false,
            mispredicted: false,
            committed: false,
            fetch_cycle: 11,
            resolve_cycle: None,
            ghr: 1,
            estimates: &estimates,
        });
        obs.on_recovery(&RecoveryEvent {
            seq: 0,
            pc: 4,
            cycle: 13,
            squashed: 1,
            penalty: 3,
        });
        obs.on_branch_outcome(&OutcomeEvent {
            seq: 0,
            pc: 4,
            predicted_taken: true,
            actual_taken: false,
            mispredicted: true,
            committed: true,
            fetch_cycle: 10,
            resolve_cycle: Some(13),
            ghr: 0,
            estimates: &estimates,
        });
        obs.on_fetch_gated(&GateEvent {
            cycle: 14,
            low_confidence: 1,
        });
    }

    fn assert_one_of_each(c: &Counter) {
        assert_eq!(c.fetched, 1);
        assert_eq!(c.predicted, 1);
        assert_eq!(c.resolved, 1);
        assert_eq!(c.outcomes, 2);
        assert_eq!(c.recoveries, 1);
        assert_eq!(c.gated, 1);
    }

    #[test]
    fn null_observer_accepts_everything() {
        sample_events(&mut NullObserver);
    }

    #[test]
    fn multi_observer_fans_out() {
        let mut a = Counter::default();
        let mut b = Counter::default();
        {
            let mut m = MultiObserver::new(vec![&mut a, &mut b]);
            sample_events(&mut m);
        }
        assert_one_of_each(&a);
        assert_one_of_each(&b);
    }

    #[test]
    fn tracer_records_every_hook_in_order() {
        let mut t = Tracer::unbounded();
        sample_events(&mut t);
        let kinds: Vec<&str> = t.events().map(TraceEvent::kind).collect();
        assert_eq!(
            kinds,
            ["predict", "fetch", "resolve", "squash", "recovery", "commit", "gate"]
        );
        let mut off = Tracer::disabled();
        sample_events(&mut off);
        assert!(off.is_empty());
    }

    #[test]
    fn replay_inverts_the_tracer() {
        let mut t = Tracer::unbounded();
        sample_events(&mut t);
        let mut again = Tracer::unbounded();
        assert_eq!(replay(t.events(), &mut again), 7);
        assert!(t.events().eq(again.events()));
        let mut c = Counter::default();
        replay(t.events(), &mut c);
        assert_one_of_each(&c);
    }
}
