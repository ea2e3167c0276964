//! Qualitative findings of the paper, asserted against fresh simulations.
//!
//! The absolute numbers in `EXPERIMENTS.md` come from full-scale runs of
//! the `repro` binary; these tests pin the *shapes* at small scale so
//! regressions that would invalidate the reproduction fail CI.

use cestim::{run, EstimatorSpec, PredictorKind, Quadrant, RunConfig, WorkloadKind};
use cestim_sim::SatVariantSpec;
use cestim_trace::{DistanceAnalysis, DistanceSeries};

const WORKLOADS: &[WorkloadKind] = &[WorkloadKind::Gcc, WorkloadKind::Go, WorkloadKind::Xlisp];

fn aggregate_over(
    workloads: &[WorkloadKind],
    predictor: PredictorKind,
    specs: &[EstimatorSpec],
) -> Vec<Quadrant> {
    let mut totals = vec![Quadrant::default(); specs.len()];
    for &w in workloads {
        let out = run(&RunConfig::paper(w, 1, predictor), specs);
        for (t, e) in totals.iter_mut().zip(&out.estimators) {
            *t += e.quadrants.committed;
        }
    }
    totals
}

fn aggregate(predictor: PredictorKind, specs: &[EstimatorSpec]) -> Vec<Quadrant> {
    aggregate_over(WORKLOADS, predictor, specs)
}

fn aggregate_all(predictor: PredictorKind, specs: &[EstimatorSpec]) -> Vec<Quadrant> {
    aggregate_over(&WorkloadKind::all(), predictor, specs)
}

/// §3.2: the saturating-counters method is sensitive but unspecific on
/// gshare; JRS is the opposite. (Paper: SPEC 96% vs 42%.)
#[test]
fn satctr_is_sensitive_but_unspecific_on_gshare() {
    let q = aggregate(
        PredictorKind::Gshare,
        &[
            EstimatorSpec::jrs_paper(),
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::Selected,
            },
        ],
    );
    let (jrs, sat) = (&q[0], &q[1]);
    assert!(sat.sens() > jrs.sens(), "satctr should be more sensitive");
    assert!(
        jrs.spec() > sat.spec() + 0.2,
        "JRS should be far more specific: {} vs {}",
        jrs.spec(),
        sat.spec()
    );
    assert!(jrs.pvp() > sat.pvp(), "JRS PVP should win");
}

/// §3.2/§3.4: the pattern-history estimator collapses on global history but
/// becomes competitive with per-branch (SAg) history.
#[test]
fn pattern_history_needs_local_history() {
    let on_gshare = aggregate(
        PredictorKind::Gshare,
        &[EstimatorSpec::Pattern { width: 12 }],
    );
    let on_sag = aggregate(PredictorKind::SAg, &[EstimatorSpec::Pattern { width: 13 }]);
    assert!(
        on_gshare[0].sens() < 0.35,
        "no dominant global patterns: sens {}",
        on_gshare[0].sens()
    );
    assert!(
        on_sag[0].sens() > on_gshare[0].sens() + 0.25,
        "local history must rescue the technique: {} vs {}",
        on_sag[0].sens(),
        on_gshare[0].sens()
    );
}

/// §3.2.1: folding the prediction into the JRS index improves the estimator
/// (PVP at matched threshold).
#[test]
fn enhanced_jrs_beats_base() {
    let q = aggregate_all(
        PredictorKind::Gshare,
        &[
            EstimatorSpec::Jrs {
                index_bits: 12,
                threshold: 15,
                enhanced: false,
            },
            EstimatorSpec::Jrs {
                index_bits: 12,
                threshold: 15,
                enhanced: true,
            },
        ],
    );
    let (base, enh) = (&q[0], &q[1]);
    // The enhancement buys sensitivity and PVN at matched threshold without
    // giving up PVP (Figure 3's dominance, asserted with float slack).
    assert!(
        enh.sens() > base.sens(),
        "enhanced should gain sensitivity: {} vs {}",
        enh.sens(),
        base.sens()
    );
    assert!(
        enh.pvn() >= base.pvn() - 0.005,
        "enhanced pvn {} vs base {}",
        enh.pvn(),
        base.pvn()
    );
    assert!(
        enh.pvp() >= base.pvp() - 0.002,
        "enhanced pvp {} vs base {}",
        enh.pvp(),
        base.pvp()
    );
}

/// §4/table 4: raising the distance threshold monotonically trades SENS for
/// SPEC.
#[test]
fn distance_threshold_trades_sens_for_spec() {
    let specs: Vec<EstimatorSpec> = (1..=7)
        .map(|t| EstimatorSpec::Distance { threshold: t })
        .collect();
    let q = aggregate(PredictorKind::Gshare, &specs);
    for w in q.windows(2) {
        assert!(
            w[1].sens() <= w[0].sens() + 1e-9,
            "sens must fall: {} -> {}",
            w[0].sens(),
            w[1].sens()
        );
        assert!(
            w[1].spec() >= w[0].spec() - 1e-9,
            "spec must rise: {} -> {}",
            w[0].spec(),
            w[1].spec()
        );
    }
    // And the estimator must be better than chance: PVN above the
    // misprediction rate at a mid threshold.
    let mid = &q[2];
    assert!(
        mid.pvn() > mid.misprediction_rate(),
        "distance estimator beats the base rate: {} vs {}",
        mid.pvn(),
        mid.misprediction_rate()
    );
}

/// §4.1 (Figures 6–9): mispredictions cluster — branches right after a
/// misprediction are more likely to be mispredicted, and the effect decays
/// with distance; the perceived (resolution-time) view is skewed toward
/// larger distances.
#[test]
fn mispredictions_cluster_and_perception_skews() {
    let mut merged = DistanceAnalysis::new(64);
    for &w in WORKLOADS {
        let mut a = DistanceAnalysis::new(64);
        cestim::run_with_observer(&RunConfig::paper(w, 1, PredictorKind::Gshare), &[], &mut a);
        merged.merge_from(&a);
    }
    let precise = merged.histogram(DistanceSeries::PreciseAll);
    let avg = precise.average_rate();
    assert!(
        precise.rate(1) > avg * 1.3,
        "clustering at distance 1: {} vs avg {}",
        precise.rate(1),
        avg
    );
    let near: f64 = (1..=2).map(|d| precise.rate(d)).sum::<f64>() / 2.0;
    let far: f64 = (24..=28).map(|d| precise.rate(d)).sum::<f64>() / 5.0;
    assert!(near > far, "decay with distance: near {near} vs far {far}");

    // Perceived (all branches): the distance-1 spike is blunted because
    // the front-end learns about mispredictions late.
    let perceived = merged.histogram(DistanceSeries::PerceivedAll);
    assert!(
        perceived.rate(1) < precise.rate(1),
        "perception delays the cluster: {} vs {}",
        perceived.rate(1),
        precise.rate(1)
    );
}

/// §4.2: the probability that at least one of `k` consecutive
/// low-confidence branches is mispredicted rises with `k`, roughly along
/// the Bernoulli model, and the per-branch boosted transform trades
/// coverage for selectivity.
#[test]
fn boosting_raises_window_pvn_and_cuts_coverage() {
    use cestim_trace::BoostAnalysis;
    let satctr = EstimatorSpec::SatCtr {
        variant: SatVariantSpec::Selected,
    };
    let specs = [
        satctr.clone(),
        EstimatorSpec::Boosted {
            inner: Box::new(satctr),
            k: 2,
        },
    ];
    let mut windows = BoostAnalysis::new(0, 3);
    let mut base = Quadrant::default();
    let mut boosted = Quadrant::default();
    for &w in WORKLOADS {
        let out = cestim::run_with_observer(
            &RunConfig::paper(w, 1, PredictorKind::Gshare),
            &specs,
            &mut windows,
        );
        base += out.estimators[0].quadrants.committed;
        boosted += out.estimators[1].quadrants.committed;
    }
    // The paper's boosting claim: two consecutive LC events carry more
    // evidence than one. (Measured below the Bernoulli model because LC
    // runs are correlated — recorded as a deviation in EXPERIMENTS.md.)
    let p1 = windows.boosted_pvn(1);
    let p2 = windows.boosted_pvn(2);
    assert!(p2 > p1, "k=2 window {p2} should beat k=1 {p1}");
    let model2 = cestim::core::KRun::bernoulli_pvn(p1, 2);
    assert!(
        p2 <= model2 + 0.05,
        "independence bound: measured {p2} vs model {model2}"
    );
    // Per-branch transform: fewer branches flagged LC.
    assert!(
        boosted.coverage() < base.coverage(),
        "boosting must shrink coverage"
    );
}

/// §2.2 (improving predictors): none of the estimators reaches PVN > 50 %
/// across programs, so inverting low-confidence predictions would not pay —
/// one of the paper's conclusions.
#[test]
fn no_estimator_earns_prediction_inversion() {
    let specs = vec![
        EstimatorSpec::jrs_paper(),
        EstimatorSpec::SatCtr {
            variant: SatVariantSpec::Selected,
        },
        EstimatorSpec::Distance { threshold: 4 },
    ];
    let q = aggregate(PredictorKind::Gshare, &specs);
    for (spec, quad) in specs.iter().zip(&q) {
        assert!(
            quad.pvn() < 0.5,
            "{}: pvn {} would justify inversion",
            spec.label(),
            quad.pvn()
        );
    }
}
