//! Timing-based confidence estimation from modeled resolution latency.
//!
//! "The Non-Predictability of Mispredicted Branches using Timing
//! Information" (Constantinou et al.) observes that a branch whose operands
//! are ready early resolves quickly and is usually well-predicted, while a
//! branch stalled behind long-latency producers both resolves late *and*
//! mispredicts more often — so the time-to-resolution the pipeline already
//! computes is a free confidence signal. The pipeline feeds that signal
//! through [`ConfidenceEstimator::note_resolve_latency`] immediately before
//! each [`estimate`](ConfidenceEstimator::estimate) call.

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;

/// Estimator keyed on modeled resolution latency: high confidence iff the
/// branch will resolve within `threshold` cycles of fetch.
///
/// Outside a pipeline (no latency feed), every branch looks instant
/// (latency 0) and the estimator degenerates to always-high — the same
/// "trust everything" baseline a conventional pipeline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingEstimator {
    threshold: u64,
    latest: u64,
}

impl TimingEstimator {
    /// Creates an estimator that calls a branch low-confidence when its
    /// modeled resolution latency exceeds `threshold` cycles.
    pub fn new(threshold: u64) -> TimingEstimator {
        TimingEstimator {
            threshold,
            latest: 0,
        }
    }
}

impl ConfidenceEstimator for TimingEstimator {
    fn estimate(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction) -> Confidence {
        Confidence::from_high(self.latest <= self.threshold)
    }

    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {}

    fn note_resolve_latency(&mut self, latency: u64) {
        self.latest = latency;
    }

    fn name(&self) -> String {
        format!("timing(<={})", self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::PredictorInfo;

    fn pred() -> Prediction {
        Prediction {
            taken: true,
            info: PredictorInfo::Bimodal {
                counter: 3,
                index: 0,
            },
        }
    }

    #[test]
    fn splits_on_the_latency_threshold() {
        let mut e = TimingEstimator::new(4);
        e.note_resolve_latency(3);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
        e.note_resolve_latency(4);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
        e.note_resolve_latency(5);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn latency_feed_is_per_branch_not_sticky_state() {
        let mut e = TimingEstimator::new(2);
        e.note_resolve_latency(10);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low);
        // The next branch's feed fully replaces the previous one.
        e.note_resolve_latency(1);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn degenerates_to_always_high_without_a_feed() {
        let mut e = TimingEstimator::new(4);
        for _ in 0..16 {
            assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
        }
    }

    #[test]
    fn name_includes_threshold() {
        assert_eq!(TimingEstimator::new(7).name(), "timing(<=7)");
    }
}
