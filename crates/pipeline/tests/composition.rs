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
//!   case: its components equal earlier roster members, so in the full
//!   roster it reads their columns instead of running its own copies.
//! * With gating on, estimator 0 steers fetch; appending estimators after
//!   it still changes neither the stats nor estimator 0's quadrants.
//! * A vote or boost reads a component from an attached estimator when the
//!   two are in the same state, and runs a private copy otherwise. Either
//!   way, flat or nested, before or after its components, gating or not,
//!   its quadrants and the stats equal those of the composite alone. A
//!   component must not read an attached estimator that was trained
//!   before it was attached. Per fetched branch, each composite's estimate
//!   follows from its components' by the quorum and k-run rules, checked
//!   against a reimplementation here.

use cestim_bpred::{
    AnyPredictor, Bimodal, Gshare, McFarling, Perceptron, Prediction, PredictorInfo, SAg, Tage,
};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, Confidence, ConfidenceEstimator,
    DistanceEstimator, Jrs, JrsCombining, PatternHistory, SaturatingConfidence, TimingEstimator,
    Voting,
};
use cestim_isa::Program;
use cestim_pipeline::{
    EstimatorQuadrants, PipelineConfig, PipelineStats, PredictEvent, SimObserver, Simulator,
};
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
    run_with(program, cfg, pk, roster.iter().map(|ek| estimator(ek)))
}

fn run_with(
    program: &Program,
    cfg: &PipelineConfig,
    pk: &str,
    roster: impl IntoIterator<Item = AnyEstimator>,
) -> (PipelineStats, Vec<EstimatorQuadrants>) {
    let mut sim = Simulator::new(program, cfg.clone(), predictor(pk));
    for e in roster {
        sim.add_estimator(e);
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

/// Leaf estimators the composites below are built from.
fn leaf(kind: &str) -> AnyEstimator {
    match kind {
        "distance2" => DistanceEstimator::new(2).into(),
        "timing2" => TimingEstimator::new(2).into(),
        kind => estimator(kind),
    }
}

fn leaves(kinds: &[&str]) -> Vec<AnyEstimator> {
    kinds.iter().map(|k| leaf(k)).collect()
}

/// `first`, then the leaves `kinds`.
fn then_leaves(first: AnyEstimator, kinds: &[&str]) -> Vec<AnyEstimator> {
    std::iter::once(first).chain(leaves(kinds)).collect()
}

fn vote(kinds: &[&str], quorum: u32) -> AnyEstimator {
    Voting::new(leaves(kinds), quorum).into()
}

fn boost(inner: AnyEstimator, k: u32) -> AnyEstimator {
    Boosted::new(inner, k).into()
}

/// A composite estimator (built fresh on each call) and the leaves it is
/// built from.
type Composite = (fn() -> AnyEstimator, &'static [&'static str]);

const COMPOSITES: [Composite; 6] = [
    (
        || vote(&["saturating", "distance", "timing"], 2),
        &["saturating", "distance", "timing"],
    ),
    (
        || vote(&["jrs", "cir", "distance2"], 1),
        &["jrs", "cir", "distance2"],
    ),
    (|| boost(leaf("distance"), 2), &["distance"]),
    (|| boost(leaf("jrs"), 3), &["jrs"]),
    (
        || boost(vote(&["jrs", "distance", "timing2"], 2), 2),
        &["jrs", "distance", "timing2"],
    ),
    (
        || {
            let components = vec![
                boost(leaf("distance2"), 2),
                leaf("jrs"),
                boost(leaf("timing"), 2),
            ];
            Voting::new(components, 2).into()
        },
        &["distance2", "jrs", "timing"],
    ),
];

const COMPOSITE_PREDICTORS: [&str; 3] = ["gshare", "mcfarling", "tage"];

#[test]
fn composites_match_alone_whether_shared_or_private() {
    let program = program();
    let cfg = PipelineConfig::paper();
    for pk in COMPOSITE_PREDICTORS {
        let (bare, _) = run(&program, &cfg, pk, &[]);
        for (composite, parts) in COMPOSITES {
            let name = composite().name();
            let (stats, alone) = run_with(&program, &cfg, pk, [composite()]);
            assert_eq!(
                stats, bare,
                "{pk} x {name}: the composite changed the stats"
            );
            let mut shared = leaves(parts);
            shared.push(composite());
            let rosters = [
                // Components attached first: the composite reads their columns.
                ("shared", shared, parts.len()),
                // No component attached: the composite runs private copies.
                (
                    "private",
                    vec![leaf("pattern"), composite(), leaf("always-low")],
                    1,
                ),
                // Composite first, components after: private copies again.
                ("first", then_leaves(composite(), parts), 0),
            ];
            for (how, roster, at) in rosters {
                let (stats, quadrants) = run_with(&program, &cfg, pk, roster);
                assert_eq!(
                    stats, bare,
                    "{pk} x {name} ({how}): the roster changed the stats"
                );
                assert_eq!(
                    quadrants[at], alone[0],
                    "{pk} x {name} ({how}): quadrants differ from the composite alone"
                );
            }
        }
    }
}

#[test]
fn a_gating_composite_at_index_0_steers_as_it_does_alone() {
    let program = program();
    let cfg = PipelineConfig::paper().with_gating(2);
    for pk in COMPOSITE_PREDICTORS {
        let mut gated = 0;
        for (composite, parts) in COMPOSITES {
            let name = composite().name();
            let (solo_stats, solo) = run_with(&program, &cfg, pk, [composite()]);
            gated += solo_stats.gated_cycles;
            let roster = then_leaves(composite(), parts);
            let (stats, quadrants) = run_with(&program, &cfg, pk, roster);
            assert_eq!(
                stats, solo_stats,
                "{pk}: components after gating {name} changed the stats"
            );
            assert_eq!(
                quadrants[0], solo[0],
                "{pk}: components after gating {name} changed its quadrants"
            );
        }
        assert!(
            gated > 0,
            "{pk}: no composite ever gated fetch, so the pass is vacuous"
        );
    }
}

/// A JRS table trained to high confidence everywhere, unlike a fresh one.
fn trained_jrs() -> AnyEstimator {
    let mut jrs = Jrs::paper_enhanced();
    for taken in [false, true] {
        let pred = Prediction {
            taken,
            info: PredictorInfo::Bimodal {
                counter: 3,
                index: 0,
            },
        };
        for _ in 0..16 {
            for pc in 0..4096 {
                jrs.update(pc, 0, &pred, true);
            }
        }
    }
    jrs.into()
}

#[test]
fn a_component_never_reads_a_leaf_trained_before_attach() {
    let program = program();
    let cfg = PipelineConfig::paper();
    let with_jrs: [fn() -> AnyEstimator; 2] = [
        || vote(&["jrs", "saturating", "distance"], 2),
        || boost(leaf("jrs"), 2),
    ];
    for pk in COMPOSITE_PREDICTORS {
        let (_, fresh) = run(&program, &cfg, pk, &["jrs"]);
        let (_, trained) = run_with(&program, &cfg, pk, [trained_jrs()]);
        assert_ne!(
            trained[0], fresh[0],
            "{pk}: training made no difference, so the pass is vacuous"
        );
        for composite in with_jrs {
            let name = composite().name();
            let (_, alone) = run_with(&program, &cfg, pk, [composite()]);
            let (_, quadrants) = run_with(&program, &cfg, pk, [trained_jrs(), composite()]);
            assert_eq!(
                quadrants[0], trained[0],
                "{pk}: {name} changed the trained leaf"
            );
            assert_eq!(
                quadrants[1], alone[0],
                "{pk}: {name} read the leaf trained before attach"
            );
        }
    }
}

/// Every fetched branch's estimate row, in fetch order.
#[derive(Default)]
struct Rows(Vec<Vec<Confidence>>);

impl SimObserver for Rows {
    fn on_branch_predicted(&mut self, ev: &PredictEvent<'_>) {
        self.0.push(ev.estimates.to_vec());
    }
}

#[test]
fn composite_estimates_follow_the_rules_from_their_components() {
    let program = program();
    for pk in COMPOSITE_PREDICTORS {
        let mut sim = Simulator::new(&program, PipelineConfig::paper(), predictor(pk));
        for e in leaves(&["distance2", "jrs", "timing"]) {
            sim.add_estimator(e);
        }
        sim.add_estimator(boost(leaf("distance2"), 2));
        sim.add_estimator(vote(&["distance2", "jrs", "timing"], 2));
        sim.add_estimator(boost(vote(&["distance2", "jrs", "timing"], 2), 3));
        let mut rows = Rows::default();
        sim.run(&mut rows);
        let (mut run3, mut run5) = (0, 0);
        let (mut boosted_low, mut vote_low) = (0, 0);
        for row in &rows.0 {
            let low = |c: Confidence| c == Confidence::Low;
            run3 = if low(row[0]) { run3 + 1 } else { 0 };
            assert_eq!(low(row[3]), run3 >= 2, "{pk}: boost2 of column 0");
            let high = row[..3].iter().filter(|c| !low(**c)).count();
            assert_eq!(low(row[4]), high < 2, "{pk}: vote2 of columns 0..3");
            run5 = if low(row[4]) { run5 + 1 } else { 0 };
            assert_eq!(low(row[5]), run5 >= 3, "{pk}: boost3 of the vote");
            boosted_low += low(row[3]) as u32;
            vote_low += low(row[5]) as u32;
        }
        assert!(
            boosted_low > 0 && vote_low > 0,
            "{pk}: a boost never fired, so the pass is vacuous"
        );
    }
}
