//! Composite confidence estimation by voting over component estimators.
//!
//! The paper's estimators each key on one signal (miss-distance counters,
//! counter strength, history patterns, ...). A *voting* estimator combines
//! several of those signals: each component estimates independently and the
//! composite reports high confidence iff at least `quorum` components do.
//! `quorum = 1` is an OR over high votes (maximizes SENS), `quorum = n` is
//! an AND (maximizes SPEC/PVN), and a majority quorum trades between them —
//! the composite design point the extension tables explore.

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;

/// The quorum rule: high confidence iff at least `quorum` votes are high.
///
/// [`Voting`] applies it to its components' estimates; the pipeline applies
/// the same rule to estimates it already holds, so a vote over attached
/// estimators costs no second run of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quorum(u32);

impl Quorum {
    /// Counts the high `votes` against the quorum.
    #[inline]
    pub fn tally(self, votes: impl IntoIterator<Item = Confidence>) -> Confidence {
        let high: u32 = votes.into_iter().map(|c| c.is_high() as u32).sum();
        Confidence::from_high(high >= self.0)
    }
}

/// Votes over component estimators: high confidence iff at least `quorum`
/// of them estimate high.
///
/// Every component sees the full estimator call sequence (`estimate`,
/// `update`, `on_branch_resolved`, `note_resolve_latency`), so each trains
/// exactly as it would standalone; only the reported confidence is combined.
#[derive(Debug, Clone, PartialEq)]
pub struct Voting<E> {
    components: Vec<E>,
    quorum: Quorum,
}

impl<E: ConfidenceEstimator> Voting<E> {
    /// Combines `components`, requiring at least `quorum` high votes.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty or `quorum` is 0 or exceeds the
    /// component count.
    pub fn new(components: Vec<E>, quorum: u32) -> Voting<E> {
        assert!(
            !components.is_empty(),
            "voting needs at least one component"
        );
        assert!(
            quorum >= 1 && quorum as usize <= components.len(),
            "voting quorum {quorum} out of range 1..={}",
            components.len()
        );
        Voting {
            components,
            quorum: Quorum(quorum),
        }
    }

    /// The required number of high votes.
    pub fn quorum(&self) -> u32 {
        self.quorum.0
    }

    /// The component estimators.
    pub fn components(&self) -> &[E] {
        &self.components
    }

    /// Splits the vote into its components and its rule.
    pub fn into_parts(self) -> (Vec<E>, Quorum) {
        (self.components, self.quorum)
    }
}

impl<E: ConfidenceEstimator> ConfidenceEstimator for Voting<E> {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        self.quorum.tally(
            self.components
                .iter_mut()
                .map(|c| c.estimate(pc, ghr, pred)),
        )
    }

    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        for c in &mut self.components {
            c.update(pc, ghr, pred, correct);
        }
    }

    fn on_branch_resolved(&mut self, mispredicted: bool) {
        for c in &mut self.components {
            c.on_branch_resolved(mispredicted);
        }
    }

    fn note_resolve_latency(&mut self, latency: u64) {
        for c in &mut self.components {
            c.note_resolve_latency(latency);
        }
    }

    fn name(&self) -> String {
        let names: Vec<String> = self.components.iter().map(|c| c.name()).collect();
        format!("vote{}({})", self.quorum(), names.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlwaysHigh, AlwaysLow, AnyEstimator};
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

    fn disagreeing() -> Vec<AnyEstimator> {
        vec![
            AnyEstimator::from(AlwaysHigh),
            AnyEstimator::from(AlwaysLow),
        ]
    }

    #[test]
    fn quorum_one_is_or_over_high_votes() {
        let mut v = Voting::new(disagreeing(), 1);
        assert_eq!(v.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn full_quorum_is_and_over_high_votes() {
        let mut v = Voting::new(disagreeing(), 2);
        assert_eq!(v.estimate(0, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn majority_quorum() {
        let mut v = Voting::new(
            vec![
                AnyEstimator::from(AlwaysHigh),
                AnyEstimator::from(AlwaysHigh),
                AnyEstimator::from(AlwaysLow),
            ],
            2,
        );
        assert_eq!(v.estimate(0, 0, &pred()), Confidence::High);
    }

    #[test]
    fn name_lists_quorum_and_components() {
        let v = Voting::new(disagreeing(), 2);
        assert_eq!(v.name(), "vote2(always-high,always-low)");
    }

    #[test]
    #[should_panic(expected = "at least one component")]
    fn empty_components_rejected() {
        let _ = Voting::<AnyEstimator>::new(vec![], 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_quorum_rejected() {
        let _ = Voting::new(disagreeing(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_quorum_rejected() {
        let _ = Voting::new(disagreeing(), 3);
    }

    #[test]
    fn forwards_latency_and_resolution_to_all_components() {
        use crate::TimingEstimator;
        let mut v = Voting::new(
            vec![
                AnyEstimator::from(TimingEstimator::new(2)),
                AnyEstimator::from(TimingEstimator::new(8)),
            ],
            2,
        );
        v.note_resolve_latency(5);
        // 5 > 2 (low) but 5 <= 8 (high): quorum 2 not met.
        assert_eq!(v.estimate(0, 0, &pred()), Confidence::Low);
        v.note_resolve_latency(1);
        assert_eq!(v.estimate(0, 0, &pred()), Confidence::High);
        v.on_branch_resolved(true); // must not panic
    }
}
