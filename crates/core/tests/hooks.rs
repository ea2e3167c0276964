//! Hook-declaration soundness: an estimator driven with only the hooks it
//! declares ([`ConfidenceEstimator::hooks`]) gives the same estimates as
//! one driven with all four. The pipeline skips undeclared hooks, so a
//! declaration that leaves out a hook the estimator needs fails here.
//!
//! The streams are random interleavings of fetches (latency feed plus
//! estimate), resolutions and commits, as a speculative pipeline makes
//! them: estimates run ahead of the commits that train on older branches.
//! Tables are small and thresholds low so the learning estimators leave
//! their initial state within a stream.

use cestim_bpred::{Prediction, PredictorInfo};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, Confidence, ConfidenceEstimator,
    DistanceEstimator, Hooks, Jrs, JrsCombining, PatternHistory, SaturatingConfidence,
    SaturatingVariant, StaticProfile, TimingEstimator, Voting,
};
use proptest::prelude::*;

/// One estimator call site of the pipeline.
#[derive(Debug, Clone)]
enum Op {
    /// `note_resolve_latency` then `estimate`, at fetch.
    Fetch {
        pc: u32,
        ghr: u32,
        pred: Prediction,
        latency: u64,
    },
    /// `on_branch_resolved`.
    Resolve { mispredicted: bool },
    /// `update`, at commit.
    Commit {
        pc: u32,
        ghr: u32,
        pred: Prediction,
        correct: bool,
    },
}

/// One estimator of every `EstimatorSpec` family (the tuned static
/// estimator is a [`StaticProfile`] too), plus nested composites.
fn families() -> Vec<AnyEstimator> {
    let vote = |components: Vec<AnyEstimator>, quorum| Voting::new(components, quorum);
    vec![
        Jrs::new(6, 4, 3, true).into(),
        Jrs::new(6, 4, 3, false).into(),
        SaturatingConfidence::new(SaturatingVariant::Selected).into(),
        SaturatingConfidence::new(SaturatingVariant::BothStrong).into(),
        SaturatingConfidence::new(SaturatingVariant::EitherStrong).into(),
        PatternHistory::new(6).into(),
        StaticProfile::from_confident_pcs((0..32).step_by(3), 0.9).into(),
        DistanceEstimator::new(3).into(),
        Cir::new(6, 8, 5, true).into(),
        JrsCombining::new(6, 3).into(),
        TimingEstimator::new(4).into(),
        AlwaysHigh.into(),
        AlwaysLow.into(),
        Boosted::new(AnyEstimator::from(DistanceEstimator::new(2)), 2).into(),
        vote(
            vec![
                SaturatingConfidence::selected().into(),
                DistanceEstimator::new(3).into(),
                TimingEstimator::new(4).into(),
            ],
            2,
        )
        .into(),
        Boosted::new(
            AnyEstimator::from(vote(
                vec![
                    Jrs::new(6, 4, 3, true).into(),
                    Cir::new(6, 8, 5, true).into(),
                    DistanceEstimator::new(1).into(),
                    TimingEstimator::new(3).into(),
                ],
                2,
            )),
            2,
        )
        .into(),
        vote(
            vec![
                Boosted::new(AnyEstimator::from(JrsCombining::new(6, 3)), 2).into(),
                Boosted::new(AnyEstimator::from(TimingEstimator::new(2)), 3).into(),
            ],
            1,
        )
        .into(),
    ]
}

/// Runs `ops` through `e`, calling only the hooks in `hooks`; returns every
/// estimate.
fn drive(e: &mut AnyEstimator, ops: &[Op], hooks: Hooks) -> Vec<Confidence> {
    let mut estimates = Vec::new();
    for op in ops {
        match *op {
            Op::Fetch {
                pc,
                ghr,
                ref pred,
                latency,
            } => {
                if hooks.latency {
                    e.note_resolve_latency(latency);
                }
                estimates.push(e.estimate(pc, ghr, pred));
            }
            Op::Resolve { mispredicted } => {
                if hooks.resolve {
                    e.on_branch_resolved(mispredicted);
                }
            }
            Op::Commit {
                pc,
                ghr,
                ref pred,
                correct,
            } => {
                if hooks.update {
                    e.update(pc, ghr, pred, correct);
                }
            }
        }
    }
    estimates
}

fn prediction() -> impl Strategy<Value = Prediction> {
    let gshare =
        (any::<bool>(), 0u8..4, 0u32..64, 0u32..64).prop_map(|(taken, counter, index, history)| {
            Prediction {
                taken,
                info: PredictorInfo::Gshare {
                    counter,
                    index,
                    history,
                },
            }
        });
    let mcfarling = (
        any::<bool>(),
        0u8..4,
        0u8..4,
        0u8..4,
        0u32..64,
        any::<bool>(),
    )
        .prop_map(
            |(taken, gshare, bimodal, meta, history, chose_gshare)| Prediction {
                taken,
                info: PredictorInfo::McFarling {
                    gshare,
                    bimodal,
                    meta,
                    gshare_index: history,
                    bimodal_index: history / 2,
                    history,
                    chose_gshare,
                },
            },
        );
    prop_oneof![gshare, mcfarling]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u32..32, 0u32..64, prediction(), 0u64..10).prop_map(|(pc, ghr, pred, latency)| {
            Op::Fetch { pc, ghr, pred, latency }
        }),
        1 => any::<bool>().prop_map(|mispredicted| Op::Resolve { mispredicted }),
        // Mostly correct, as committed predictions are, so counters climb.
        2 => (0u32..32, 0u32..64, prediction(), 0u8..10).prop_map(
            |(pc, ghr, pred, roll)| Op::Commit { pc, ghr, pred, correct: roll < 8 }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn declared_hooks_suffice(ops in prop::collection::vec(op(), 1..400)) {
        for (mut declared, mut all) in families().into_iter().zip(families()) {
            let hooks = declared.hooks();
            prop_assert_eq!(
                drive(&mut declared, &ops, hooks),
                drive(&mut all, &ops, Hooks::ALL),
                "{} declares {:?}",
                all.name(),
                hooks
            );
        }
    }
}

#[test]
fn declarations_match_the_estimators() {
    let hooks = |e: AnyEstimator| e.hooks();
    assert_eq!(hooks(Jrs::paper_enhanced().into()), Hooks::UPDATE);
    assert_eq!(hooks(JrsCombining::paper_config().into()), Hooks::UPDATE);
    assert_eq!(hooks(Cir::paper_like().into()), Hooks::UPDATE);
    assert_eq!(hooks(DistanceEstimator::new(3).into()), Hooks::RESOLVE);
    assert_eq!(hooks(TimingEstimator::new(4).into()), Hooks::LATENCY);
    assert_eq!(hooks(SaturatingConfidence::selected().into()), Hooks::NONE);
    assert_eq!(hooks(AlwaysHigh.into()), Hooks::NONE);
    let vote = Voting::new(
        vec![
            AnyEstimator::from(DistanceEstimator::new(3)),
            AnyEstimator::from(TimingEstimator::new(4)),
        ],
        1,
    );
    assert_eq!(
        hooks(Boosted::new(AnyEstimator::from(vote), 2).into()),
        Hooks::RESOLVE.union(Hooks::LATENCY)
    );
}
