//! Estimator composition independence: attaching confidence estimators
//! observes the pipeline without steering it, and no estimator observes
//! another. Swept over every predictor × estimator of the study on a
//! fuzz-generated program, so the comparison exercises mispredictions,
//! recovery and squashed wrong paths, not just straight-line code.
//!
//! * With gating and eager execution off, `PipelineStats` are the same
//!   with no estimator, any single one, or all eleven attached.
//! * Each estimator's committed and all-path quadrants alone equal its
//!   quadrants at its index in the full roster. `voting` is the stress
//!   case: its components are fresh copies of roster members, so state
//!   leaking between estimators would show up there first.
//! * With gating on, estimator 0 steers fetch; appending estimators after
//!   it still changes neither the stats nor estimator 0's quadrants.

use cestim_bpred::{AnyPredictor, Bimodal, Gshare, McFarling, Perceptron, SAg, Tage};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, DistanceEstimator, Jrs, JrsCombining,
    PatternHistory, SaturatingConfidence, TimingEstimator, Voting,
};
use cestim_isa::Program;
use cestim_pipeline::{EstimatorQuadrants, PipelineConfig, PipelineStats, Simulator};
use cestim_qa::{assemble, generate, GenConfig, XorShift64Star};

fn predictor(kind: &str) -> AnyPredictor {
    match kind {
        "bimodal" => Bimodal::new(12).into(),
        "gshare" => Gshare::new(12).into(),
        "mcfarling" => McFarling::new(12).into(),
        "sag" => SAg::new(10, 9).into(),
        "tage" => Tage::default_config().into(),
        "perceptron" => Perceptron::default_config().into(),
        other => panic!("unknown predictor {other}"),
    }
}

fn estimator(kind: &str) -> AnyEstimator {
    match kind {
        "jrs" => Jrs::paper_enhanced().into(),
        "saturating" => SaturatingConfidence::selected().into(),
        "pattern" => PatternHistory::new(12).into(),
        "distance" => DistanceEstimator::new(3).into(),
        "cir" => Cir::new(10, 16, 14, true).into(),
        "jrs-combining" => JrsCombining::new(10, 12).into(),
        "boosted" => Boosted::new(AnyEstimator::from(DistanceEstimator::new(2)), 2).into(),
        "voting" => Voting::new(
            vec![
                AnyEstimator::from(SaturatingConfidence::selected()),
                AnyEstimator::from(DistanceEstimator::new(3)),
                AnyEstimator::from(TimingEstimator::new(4)),
            ],
            2,
        )
        .into(),
        "timing" => TimingEstimator::new(4).into(),
        "always-high" => AlwaysHigh.into(),
        "always-low" => AlwaysLow.into(),
        other => panic!("unknown estimator {other}"),
    }
}

const PREDICTORS: [&str; 6] = [
    "bimodal",
    "gshare",
    "mcfarling",
    "sag",
    "tage",
    "perceptron",
];
const ESTIMATORS: [&str; 11] = [
    "jrs",
    "saturating",
    "pattern",
    "distance",
    "cir",
    "jrs-combining",
    "boosted",
    "voting",
    "timing",
    "always-high",
    "always-low",
];

/// A branchy fuzz program: ~1.3k committed and ~1.2k squashed branches,
/// enough for the learning estimators (JRS, CIR, ...) to leave their
/// initial state, so a training leak between them changes a quadrant.
fn program() -> Program {
    let mut rng = XorShift64Star::new(0xD15B_A7C4_0000_0001);
    let cfg = GenConfig {
        max_ops: 40,
        max_trips: 200,
        ..GenConfig::default()
    };
    assemble(&generate(&mut rng, &cfg))
}

fn run(
    program: &Program,
    cfg: &PipelineConfig,
    pk: &str,
    roster: &[&str],
) -> (PipelineStats, Vec<EstimatorQuadrants>) {
    let mut sim = Simulator::new(program, cfg.clone(), predictor(pk));
    for ek in roster {
        sim.add_estimator(estimator(ek));
    }
    let stats = sim.run_to_completion();
    (stats, sim.estimator_quadrants().to_vec())
}

#[test]
fn estimators_observe_without_steering_or_interfering() {
    let program = program();
    let cfg = PipelineConfig::paper();
    assert!(cfg.gate_threshold.is_none() && cfg.eager_max_forks.is_none());

    for pk in PREDICTORS {
        let (bare, _) = run(&program, &cfg, pk, &[]);
        assert!(
            bare.recoveries > 0,
            "{pk}: no recoveries, so wrong-path estimates are never exercised"
        );
        let (stats, full) = run(&program, &cfg, pk, &ESTIMATORS);
        assert_eq!(stats, bare, "{pk}: the full roster changed the stats");
        for (i, ek) in ESTIMATORS.into_iter().enumerate() {
            let (stats, alone) = run(&program, &cfg, pk, &[ek]);
            assert_eq!(stats, bare, "{pk} x {ek}: one estimator changed the stats");
            assert_eq!(
                alone[0], full[i],
                "{pk} x {ek}: quadrants alone differ from index {i} of the roster"
            );
            assert_eq!(alone[0].all.total(), stats.fetched_branches);
            assert_eq!(alone[0].committed.total(), stats.committed_branches);
        }
    }
}

#[test]
fn appended_estimators_leave_the_gating_estimator_alone() {
    let program = program();
    let cfg = PipelineConfig::paper().with_gating(2);

    for pk in PREDICTORS {
        let mut gated = 0;
        for (i, gate) in ESTIMATORS.into_iter().enumerate() {
            let (solo_stats, solo) = run(&program, &cfg, pk, &[gate]);
            gated += solo_stats.gated_cycles;
            let mut roster = vec![gate];
            roster.extend(
                ESTIMATORS
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, e)| *e),
            );
            let (stats, quadrants) = run(&program, &cfg, pk, &roster);
            assert_eq!(
                stats, solo_stats,
                "{pk}: estimators appended after gating {gate} changed the stats"
            );
            assert_eq!(
                quadrants[0], solo[0],
                "{pk}: estimators appended after gating {gate} changed its quadrants"
            );
        }
        assert!(
            gated > 0,
            "{pk}: fetch was never gated, so the pass is vacuous"
        );
    }
}
