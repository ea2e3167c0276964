//! The misprediction-distance estimator (the paper's §4).

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;

/// The paper's near-free estimator: a *single* global counter of branches
/// fetched since the last **resolved** misprediction.
///
/// §4.1 shows branch mispredictions cluster: a branch shortly after a
/// misprediction is much more likely to be mispredicted itself. This
/// estimator is "a JRS confidence estimator with a single MDC register":
///
/// * every fetched branch increments the counter
///   ([`estimate`](ConfidenceEstimator::estimate) is the fetch-time event),
/// * whenever the pipeline detects a misprediction at *resolution* — even
///   for a branch that later turns out to be on a wrong path — the counter
///   resets ([`on_branch_resolved`](ConfidenceEstimator::on_branch_resolved)).
///
/// A branch is high confidence when more than `threshold` branches have been
/// fetched since the last resolved misprediction. Sweeping the threshold
/// (Table 4 uses 1..=7) trades SENS against SPEC/PVN.
///
/// Hardware cost: one counter and one comparator — far cheaper than the JRS
/// table, with competitive PVN.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DistanceEstimator {
    threshold: u64,
    since_mispredict: u64,
}

impl DistanceEstimator {
    /// Creates the estimator; branches are high confidence when strictly
    /// more than `threshold` branches have been fetched since the last
    /// resolved misprediction.
    pub fn new(threshold: u64) -> DistanceEstimator {
        DistanceEstimator {
            threshold,
            since_mispredict: 0,
        }
    }
}

impl ConfidenceEstimator for DistanceEstimator {
    fn estimate(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction) -> Confidence {
        // The estimate is made *before* this branch counts toward the
        // distance, then the fetched branch extends the run.
        let c = Confidence::from_high(self.since_mispredict > self.threshold);
        self.since_mispredict += 1;
        c
    }

    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {
        // Commit-time updates carry no information for this estimator; it
        // listens to resolution events instead.
    }

    fn on_branch_resolved(&mut self, mispredicted: bool) {
        if mispredicted {
            self.since_mispredict = 0;
        }
    }

    fn name(&self) -> String {
        format!("distance(>{})", self.threshold)
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
    fn cold_start_is_low_confidence() {
        let mut e = DistanceEstimator::new(3);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn confidence_rises_after_threshold_branches() {
        let mut e = DistanceEstimator::new(3);
        // Distances 0,1,2,3 are low (need strictly more than 3).
        for i in 0..4 {
            assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low, "branch {i}");
        }
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn resolved_misprediction_resets_the_run() {
        let mut e = DistanceEstimator::new(2);
        for _ in 0..5 {
            e.estimate(0, 0, &pred());
        }
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
        e.on_branch_resolved(true);
        // The run restarts at distance 0: 0, 1 and 2 are low again.
        for i in 0..3 {
            assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low, "branch {i}");
        }
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn correct_resolutions_do_not_reset() {
        let mut e = DistanceEstimator::new(1);
        e.estimate(0, 0, &pred());
        e.estimate(0, 0, &pred());
        e.on_branch_resolved(false);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn threshold_zero_is_high_after_one_branch() {
        let mut e = DistanceEstimator::new(0);
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::Low, "distance 0");
        assert_eq!(e.estimate(0, 0, &pred()), Confidence::High, "distance 1");
    }

    #[test]
    fn name_reports_threshold() {
        assert_eq!(DistanceEstimator::new(4).name(), "distance(>4)");
    }
}
