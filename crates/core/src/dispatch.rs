//! Enum-based static dispatch over the confidence estimators of the study.
//!
//! [`AnyEstimator`] enumerates the study's concrete estimators, so a
//! caller that holds estimators of mixed types dispatches through a jump
//! table with inlinable arms rather than a `Box<dyn>` virtual call. The
//! pipeline takes estimators as `AnyEstimator` values but does not call
//! through this match per branch: its roster files each leaf variant in a
//! group of its concrete type.
//!
//! As with `cestim_bpred::AnyPredictor`, every concrete estimator converts
//! into its variant with `From`, so call sites pass values:
//! `sim.add_estimator(Jrs::paper_enhanced())`.
//!
//! A boosted estimator wraps `Boosted<AnyEstimator>` (boxed to keep the
//! enum small): the boost logic itself is static, and the inner estimator
//! goes through one more enum dispatch rather than a virtual call.

use crate::boost::Boosted;
use crate::estimator::{AlwaysHigh, AlwaysLow, Confidence, ConfidenceEstimator};
use crate::voting::Voting;
use crate::{
    Cir, DistanceEstimator, Jrs, JrsCombining, PatternHistory, SaturatingConfidence, StaticProfile,
    TimingEstimator,
};
use cestim_bpred::Prediction;

/// A statically dispatched confidence estimator: one variant per concrete
/// estimator in the study.
///
/// Equality compares the full estimator state (tables, runs, counters), not
/// the name: two equal estimators give equal estimates under equal calls.
#[derive(PartialEq)]
pub enum AnyEstimator {
    /// JRS miss-distance counters.
    Jrs(Jrs),
    /// Saturating-counters estimator.
    Saturating(SaturatingConfidence),
    /// Pattern-history estimator.
    Pattern(PatternHistory),
    /// Static profile-based estimator.
    Static(StaticProfile),
    /// Misprediction-distance estimator.
    Distance(DistanceEstimator),
    /// Correct/incorrect registers.
    Cir(Cir),
    /// JRS specialized for the McFarling combining predictor.
    JrsCombining(JrsCombining),
    /// Boosting wrapper (k consecutive LC) around another estimator.
    Boosted(Box<Boosted<AnyEstimator>>),
    /// Voting composite over component estimators.
    Voting(Box<Voting<AnyEstimator>>),
    /// Timing estimator keyed on modeled resolution latency.
    Timing(TimingEstimator),
    /// Everything high confidence (baseline).
    AlwaysHigh(AlwaysHigh),
    /// Everything low confidence (baseline).
    AlwaysLow(AlwaysLow),
}

impl std::fmt::Debug for AnyEstimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyEstimator").field(&self.name()).finish()
    }
}

macro_rules! dispatch {
    ($self:ident, $e:ident => $body:expr) => {
        match $self {
            AnyEstimator::Jrs($e) => $body,
            AnyEstimator::Saturating($e) => $body,
            AnyEstimator::Pattern($e) => $body,
            AnyEstimator::Static($e) => $body,
            AnyEstimator::Distance($e) => $body,
            AnyEstimator::Cir($e) => $body,
            AnyEstimator::JrsCombining($e) => $body,
            AnyEstimator::Boosted($e) => $body,
            AnyEstimator::Voting($e) => $body,
            AnyEstimator::Timing($e) => $body,
            AnyEstimator::AlwaysHigh($e) => $body,
            AnyEstimator::AlwaysLow($e) => $body,
        }
    };
}

impl ConfidenceEstimator for AnyEstimator {
    #[inline]
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        dispatch!(self, e => e.estimate(pc, ghr, pred))
    }

    #[inline]
    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        dispatch!(self, e => e.update(pc, ghr, pred, correct))
    }

    #[inline]
    fn on_branch_resolved(&mut self, mispredicted: bool) {
        dispatch!(self, e => e.on_branch_resolved(mispredicted))
    }

    #[inline]
    fn note_resolve_latency(&mut self, latency: u64) {
        dispatch!(self, e => e.note_resolve_latency(latency))
    }

    fn name(&self) -> String {
        dispatch!(self, e => e.name())
    }
}

macro_rules! impl_from_estimator {
    ($($variant:ident($ty:ty)),*) => {
        $(
            impl From<$ty> for AnyEstimator {
                fn from(e: $ty) -> AnyEstimator {
                    AnyEstimator::$variant(e)
                }
            }
        )*
    };
}

impl_from_estimator!(
    Jrs(Jrs),
    Saturating(SaturatingConfidence),
    Pattern(PatternHistory),
    Static(StaticProfile),
    Distance(DistanceEstimator),
    Cir(Cir),
    JrsCombining(JrsCombining),
    Timing(TimingEstimator),
    AlwaysHigh(AlwaysHigh),
    AlwaysLow(AlwaysLow)
);

impl From<Boosted<AnyEstimator>> for AnyEstimator {
    fn from(e: Boosted<AnyEstimator>) -> AnyEstimator {
        AnyEstimator::Boosted(Box::new(e))
    }
}

impl From<Voting<AnyEstimator>> for AnyEstimator {
    fn from(e: Voting<AnyEstimator>) -> AnyEstimator {
        AnyEstimator::Voting(Box::new(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::PredictorInfo;

    fn pred(taken: bool, counter: u8) -> Prediction {
        Prediction {
            taken,
            info: PredictorInfo::Gshare {
                counter,
                index: 7,
                history: 0b1010,
            },
        }
    }

    fn agree(mut a: AnyEstimator, mut b: Box<dyn ConfidenceEstimator>) {
        assert_eq!(a.name(), b.name());
        for i in 0..2_000u32 {
            let pc = (i * 13) % 97;
            let p = pred(i % 3 == 0, (i % 4) as u8);
            a.note_resolve_latency((i % 9) as u64);
            b.note_resolve_latency((i % 9) as u64);
            assert_eq!(
                a.estimate(pc, i, &p),
                b.estimate(pc, i, &p),
                "diverged at step {i} ({})",
                a.name()
            );
            let correct = (i * 5 + pc) % 7 != 0;
            a.update(pc, i, &p, correct);
            b.update(pc, i, &p, correct);
            a.on_branch_resolved(!correct);
            b.on_branch_resolved(!correct);
        }
    }

    #[test]
    fn enum_matches_trait_object_for_every_variant() {
        agree(
            Jrs::paper_enhanced().into(),
            Box::new(Jrs::paper_enhanced()),
        );
        agree(
            SaturatingConfidence::new(crate::SaturatingVariant::Selected).into(),
            Box::new(SaturatingConfidence::new(
                crate::SaturatingVariant::Selected,
            )),
        );
        agree(
            PatternHistory::new(12).into(),
            Box::new(PatternHistory::new(12)),
        );
        agree(
            DistanceEstimator::new(3).into(),
            Box::new(DistanceEstimator::new(3)),
        );
        agree(
            Cir::new(10, 16, 14, true).into(),
            Box::new(Cir::new(10, 16, 14, true)),
        );
        agree(
            JrsCombining::new(10, 12).into(),
            Box::new(JrsCombining::new(10, 12)),
        );
        agree(AlwaysHigh.into(), Box::new(AlwaysHigh));
        agree(AlwaysLow.into(), Box::new(AlwaysLow));
        agree(
            Boosted::new(AnyEstimator::from(DistanceEstimator::new(2)), 2).into(),
            Box::new(Boosted::new(DistanceEstimator::new(2), 2)),
        );
        agree(
            TimingEstimator::new(4).into(),
            Box::new(TimingEstimator::new(4)),
        );
        agree(
            Voting::new(
                vec![
                    AnyEstimator::from(DistanceEstimator::new(2)),
                    AnyEstimator::from(TimingEstimator::new(4)),
                    AnyEstimator::from(Jrs::paper_enhanced()),
                ],
                2,
            )
            .into(),
            Box::new(Voting::new(
                vec![
                    Box::new(DistanceEstimator::new(2)) as Box<dyn ConfidenceEstimator>,
                    Box::new(TimingEstimator::new(4)),
                    Box::new(Jrs::paper_enhanced()),
                ],
                2,
            )),
        );
    }

    #[test]
    fn voting_name_matches_dyn_equivalent() {
        let e: AnyEstimator = Voting::new(
            vec![
                AnyEstimator::from(AlwaysHigh),
                AnyEstimator::from(AlwaysLow),
            ],
            1,
        )
        .into();
        assert_eq!(e.name(), "vote1(always-high,always-low)");
        assert!(matches!(e, AnyEstimator::Voting(_)));
    }

    #[test]
    fn boosted_name_matches_dyn_equivalent() {
        let e: AnyEstimator = Boosted::new(AnyEstimator::from(AlwaysLow), 3).into();
        assert_eq!(e.name(), "boost3(always-low)");
        assert!(matches!(e, AnyEstimator::Boosted(_)));
    }
}
