//! Static (profile-based) confidence estimation.

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Collects per-branch predictor accuracy during a profiling run.
///
/// The paper's static technique cannot use a plain program profile: the
/// per-branch *prediction accuracy* depends on the branch predictor's state,
/// so profiling requires simulating the same predictor (or Profile-Me-style
/// hardware). The experiment harness runs a first pass with the target
/// predictor feeding a `ProfileCollector`, then builds the
/// [`StaticProfile`] estimator from it for the measured pass — a self-
/// profiled, best-case evaluation exactly as in the paper.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ProfileCollector {
    // pc -> (correct predictions, total predictions)
    counts: HashMap<u32, (u64, u64)>,
}

impl ProfileCollector {
    /// Creates an empty collector.
    pub fn new() -> ProfileCollector {
        ProfileCollector::default()
    }

    /// Records one committed branch prediction outcome.
    pub fn record(&mut self, pc: u32, correct: bool) {
        let e = self.counts.entry(pc).or_insert((0, 0));
        e.0 += correct as u64;
        e.1 += 1;
    }

    /// Number of distinct branch sites profiled.
    pub fn sites(&self) -> usize {
        self.counts.len()
    }

    /// Total branches recorded.
    pub fn total(&self) -> u64 {
        self.counts.values().map(|&(_, t)| t).sum()
    }

    /// Iterates `(pc, correct, total)` over all profiled sites in
    /// unspecified order.
    pub fn sites_iter(&self) -> impl Iterator<Item = (u32, u64, u64)> + '_ {
        self.counts.iter().map(|(&pc, &(c, t))| (pc, c, t))
    }

    /// Profiled prediction accuracy of the branch at `pc`, if seen.
    pub fn accuracy(&self, pc: u32) -> Option<f64> {
        self.counts.get(&pc).map(|&(c, t)| c as f64 / t as f64)
    }

    /// Builds the static estimator: branches with profiled accuracy
    /// `>= threshold` are high confidence, everything else (including
    /// branches never profiled) is low confidence.
    pub fn into_estimator(self, threshold: f64) -> StaticProfile {
        self.make_estimator(threshold)
    }

    /// Like [`into_estimator`](ProfileCollector::into_estimator) but borrows
    /// the collector, so one profiling pass can seed estimators at several
    /// thresholds.
    pub fn make_estimator(&self, threshold: f64) -> StaticProfile {
        let confident = self
            .counts
            .iter()
            .filter(|&(_, &(c, t))| c as f64 >= threshold * t as f64)
            .map(|(&pc, _)| pc)
            .collect();
        StaticProfile {
            confident,
            threshold,
        }
    }
}

/// The static confidence estimator: a per-branch "confident" bit derived
/// from profiling (the paper's §3 "Static Estimator", threshold 90 %).
///
/// In hardware this is a compiler-set hint bit in the instruction encoding;
/// here it is a set of confident PCs. The estimator is completely static
/// during the measured run: no tables, no updates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StaticProfile {
    confident: std::collections::HashSet<u32>,
    threshold: f64,
}

impl StaticProfile {
    /// Creates an estimator from an explicit set of confident branch PCs.
    pub fn from_confident_pcs(pcs: impl IntoIterator<Item = u32>, threshold: f64) -> StaticProfile {
        StaticProfile {
            confident: pcs.into_iter().collect(),
            threshold,
        }
    }

    /// Number of branch sites marked confident.
    pub fn confident_sites(&self) -> usize {
        self.confident.len()
    }
}

impl ConfidenceEstimator for StaticProfile {
    fn estimate(&mut self, pc: u32, _ghr: u32, _pred: &Prediction) -> Confidence {
        Confidence::from_high(self.confident.contains(&pc))
    }

    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {
        // Static by definition.
    }

    fn name(&self) -> String {
        format!("static(>{:.0}%)", self.threshold * 100.0)
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
    fn collector_tracks_per_site_accuracy() {
        let mut c = ProfileCollector::new();
        for i in 0..100 {
            c.record(0x10, i % 10 != 0); // 90 %
            c.record(0x20, i % 2 == 0); // 50 %
        }
        assert_eq!(c.sites(), 2);
        assert_eq!(c.total(), 200);
        assert!((c.accuracy(0x10).unwrap() - 0.9).abs() < 1e-12);
        assert!((c.accuracy(0x20).unwrap() - 0.5).abs() < 1e-12);
        assert!(c.accuracy(0x30).is_none());
    }

    #[test]
    fn threshold_splits_sites() {
        let mut c = ProfileCollector::new();
        for i in 0..100 {
            c.record(0x10, i % 10 != 0); // 90 % -> confident at 0.9
            c.record(0x20, i % 4 != 0); // 75 % -> not confident
        }
        let mut e = c.into_estimator(0.9);
        assert_eq!(e.confident_sites(), 1);
        assert_eq!(e.estimate(0x10, 0, &pred()), Confidence::High);
        assert_eq!(e.estimate(0x20, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn unprofiled_branches_are_low_confidence() {
        let mut e = ProfileCollector::new().into_estimator(0.9);
        assert_eq!(e.estimate(0x99, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn threshold_boundary_is_inclusive() {
        let mut c = ProfileCollector::new();
        for i in 0..10 {
            c.record(0x10, i != 0); // exactly 90 %
        }
        let mut e = c.into_estimator(0.9);
        assert_eq!(
            e.estimate(0x10, 0, &pred()),
            Confidence::High,
            "paper: >= 90% accuracy is high confidence"
        );
    }

    #[test]
    fn explicit_constructor_and_name() {
        let e = StaticProfile::from_confident_pcs([1, 2, 3], 0.9);
        assert_eq!(e.confident_sites(), 3);
        assert_eq!(e.name(), "static(>90%)");
    }

    #[test]
    fn exact_threshold_avoids_float_rounding() {
        // 9 correct of 10 at threshold 0.9 must count as confident even
        // with floating-point comparison subtleties (we compare c >= t*n).
        let mut c = ProfileCollector::new();
        for i in 0..1000 {
            c.record(7, i % 10 != 0);
        }
        let e = c.into_estimator(0.9);
        assert_eq!(e.confident_sites(), 1);
    }
}
