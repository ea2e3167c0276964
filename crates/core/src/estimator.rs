//! The confidence-estimator interface.

use cestim_bpred::Prediction;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A confidence estimate for one branch prediction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Confidence {
    /// The prediction is trusted ("high confidence").
    High,
    /// The prediction is suspect ("low confidence").
    Low,
}

impl Confidence {
    /// `true` for [`Confidence::High`].
    #[inline]
    pub fn is_high(self) -> bool {
        matches!(self, Confidence::High)
    }

    /// `true` for [`Confidence::Low`].
    #[inline]
    pub fn is_low(self) -> bool {
        matches!(self, Confidence::Low)
    }

    /// Builds a confidence from a boolean "high?" flag.
    #[inline]
    pub fn from_high(high: bool) -> Confidence {
        if high {
            Confidence::High
        } else {
            Confidence::Low
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Confidence::High => "HC",
            Confidence::Low => "LC",
        })
    }
}

/// A confidence estimator attached to a branch predictor.
///
/// Call order per dynamic branch, mirroring hardware:
///
/// 1. [`estimate`](ConfidenceEstimator::estimate) at prediction (decode)
///    time, once per *fetched* branch — including wrong-path branches,
/// 2. [`on_branch_resolved`](ConfidenceEstimator::on_branch_resolved) when
///    any branch resolves in the pipeline (wrong-path branches may resolve
///    before the older misprediction that spawned them is detected — the
///    [`DistanceEstimator`](crate::DistanceEstimator) relies on exactly this
///    signal, as the paper's "perceived" misprediction distance discusses),
/// 3. [`update`](ConfidenceEstimator::update) at commit, in program order,
///    for committed branches only (table state, like the predictor's own
///    tables, is trained non-speculatively).
///
/// `ghr` arguments carry the caller-owned speculative global history value
/// *at prediction time* (see `cestim-bpred`'s crate docs); `update` receives
/// the same value that `estimate` saw for that branch, so table-indexed
/// estimators can retrain exactly the entry they consulted.
pub trait ConfidenceEstimator {
    /// Estimates confidence in `pred` for the branch at `pc`.
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence;

    /// Trains the estimator with the resolved outcome of a committed branch.
    /// `correct` is whether the *prediction* (not the estimate) was right.
    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool);

    /// Notifies the estimator that a branch resolved somewhere in the
    /// pipeline, and whether it was detected as mispredicted. Default: no-op.
    fn on_branch_resolved(&mut self, mispredicted: bool) {
        let _ = mispredicted;
    }

    /// Feeds the modeled resolution latency (cycles from fetch until the
    /// branch will resolve, as computed by the pipeline's scoreboard) for the
    /// branch about to be estimated. Called immediately before
    /// [`estimate`](ConfidenceEstimator::estimate) for each fetched branch;
    /// timing-based estimators (Constantinou et al.) key on this signal.
    /// Default: no-op.
    fn note_resolve_latency(&mut self, latency: u64) {
        let _ = latency;
    }

    /// Human-readable name including configuration (e.g. `"jrs(4096,t=15)"`).
    fn name(&self) -> String;
}

impl<E: ConfidenceEstimator + ?Sized> ConfidenceEstimator for Box<E> {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        (**self).estimate(pc, ghr, pred)
    }
    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        (**self).update(pc, ghr, pred, correct)
    }
    fn on_branch_resolved(&mut self, mispredicted: bool) {
        (**self).on_branch_resolved(mispredicted)
    }
    fn note_resolve_latency(&mut self, latency: u64) {
        (**self).note_resolve_latency(latency)
    }
    fn name(&self) -> String {
        (**self).name()
    }
}

/// Degenerate estimator that marks every branch high-confidence.
///
/// Useful as a baseline: its PVP equals the branch prediction accuracy and
/// its SENS is 1, while SPEC and PVN are 0 — the "always speculate" default
/// of a conventional pipeline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysHigh;

impl ConfidenceEstimator for AlwaysHigh {
    fn estimate(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction) -> Confidence {
        Confidence::High
    }
    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {}
    fn name(&self) -> String {
        "always-high".to_string()
    }
}

/// Degenerate estimator that marks every branch low-confidence.
///
/// Its PVN equals the branch misprediction rate (the paper notes this is
/// what a JRS threshold of 16 degenerates to) and its SPEC is 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysLow;

impl ConfidenceEstimator for AlwaysLow {
    fn estimate(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction) -> Confidence {
        Confidence::Low
    }
    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {}
    fn name(&self) -> String {
        "always-low".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Quadrant;
    use cestim_bpred::PredictorInfo;

    fn dummy_pred() -> Prediction {
        Prediction {
            taken: true,
            info: PredictorInfo::Bimodal {
                counter: 3,
                index: 0,
            },
        }
    }

    #[test]
    fn confidence_helpers() {
        assert!(Confidence::High.is_high());
        assert!(Confidence::Low.is_low());
        assert_eq!(Confidence::from_high(true), Confidence::High);
        assert_eq!(Confidence::from_high(false), Confidence::Low);
        assert_eq!(Confidence::High.to_string(), "HC");
        assert_eq!(Confidence::Low.to_string(), "LC");
    }

    #[test]
    fn always_high_has_unit_sens_and_accuracy_pvp() {
        let mut e = AlwaysHigh;
        let mut q = Quadrant::new();
        for i in 0..100 {
            let c = e.estimate(0, 0, &dummy_pred());
            q.record(i % 10 != 0, c);
        }
        assert_eq!(q.sens(), 1.0);
        assert!((q.pvp() - 0.9).abs() < 1e-12);
        assert!(q.spec() == 0.0);
    }

    #[test]
    fn always_low_pvn_equals_misprediction_rate() {
        let mut e = AlwaysLow;
        let mut q = Quadrant::new();
        for i in 0..100 {
            let c = e.estimate(0, 0, &dummy_pred());
            q.record(i % 10 != 0, c);
        }
        assert_eq!(q.spec(), 1.0);
        assert!((q.pvn() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn boxed_estimators_delegate() {
        let mut e: Box<dyn ConfidenceEstimator> = Box::new(AlwaysHigh);
        assert_eq!(e.estimate(0, 0, &dummy_pred()), Confidence::High);
        assert_eq!(e.name(), "always-high");
        e.on_branch_resolved(true); // default no-op must not panic
    }
}
