//! Confidence from the branch predictor's own saturating counters.

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::{CounterStrength, Prediction, PredictorInfo};

/// How to combine component-counter strength for combining predictors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaturatingVariant {
    /// Use the counter that actually produced the prediction (the selected
    /// component for McFarling, the only counter otherwise).
    Selected,
    /// High confidence only when *both* McFarling components are strong
    /// **and agree on direction** (§3.3.1 "Both Strong"). Falls back to
    /// `Selected` for single-component predictors.
    BothStrong,
    /// Low confidence only when *both* McFarling components are weak
    /// (§3.3.1 "Either Strong"). Falls back to `Selected` for
    /// single-component predictors.
    EitherStrong,
}

/// The zero-cost "saturating counters" estimator (after Smith, 1981).
///
/// Reuses the hysteresis state the branch predictor already maintains: a
/// branch whose 2-bit counter is saturated (strongly taken / strongly
/// not-taken) is high confidence; the transitional states are low
/// confidence. Requires **no additional tables** — the cheapest estimator in
/// the paper's comparison.
///
/// For the McFarling combining predictor both component counters are
/// available, giving the two variants of the paper's Table 3:
/// [`SaturatingVariant::BothStrong`] (higher SPEC and PVN — fewer branches
/// marked HC) and [`SaturatingVariant::EitherStrong`] (higher SENS — more
/// branches marked HC).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturatingConfidence {
    variant: SaturatingVariant,
}

impl SaturatingConfidence {
    /// Creates the estimator with the given combining variant.
    pub fn new(variant: SaturatingVariant) -> SaturatingConfidence {
        SaturatingConfidence { variant }
    }

    /// `Selected` — the natural configuration for gshare/bimodal/SAg.
    pub fn selected() -> SaturatingConfidence {
        SaturatingConfidence::new(SaturatingVariant::Selected)
    }

    /// `BothStrong` — the paper's default for McFarling (Table 2).
    pub fn both_strong() -> SaturatingConfidence {
        SaturatingConfidence::new(SaturatingVariant::BothStrong)
    }

    /// `EitherStrong` — the SENS-biased McFarling variant (Table 3).
    pub fn either_strong() -> SaturatingConfidence {
        SaturatingConfidence::new(SaturatingVariant::EitherStrong)
    }

    /// The configured variant.
    pub fn variant(&self) -> SaturatingVariant {
        self.variant
    }
}

fn two_bit_strong(v: u8) -> bool {
    CounterStrength::of_two_bit(v).is_strong()
}

impl ConfidenceEstimator for SaturatingConfidence {
    fn estimate(&mut self, _pc: u32, _ghr: u32, pred: &Prediction) -> Confidence {
        let high = match (pred.info, self.variant) {
            (
                PredictorInfo::McFarling {
                    gshare, bimodal, ..
                },
                SaturatingVariant::BothStrong,
            ) => {
                // Strong in the same direction: both strongly taken (3) or
                // both strongly not-taken (0).
                (gshare == 3 && bimodal == 3) || (gshare == 0 && bimodal == 0)
            }
            (
                PredictorInfo::McFarling {
                    gshare, bimodal, ..
                },
                SaturatingVariant::EitherStrong,
            ) => two_bit_strong(gshare) || two_bit_strong(bimodal),
            (info, _) => info.direction_counter_strength().is_strong(),
        };
        Confidence::from_high(high)
    }

    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {
        // Stateless: the predictor's own commit-time update moves the
        // counters this estimator reads.
    }

    fn name(&self) -> String {
        match self.variant {
            SaturatingVariant::Selected => "satctr".to_string(),
            SaturatingVariant::BothStrong => "satctr(both-strong)".to_string(),
            SaturatingVariant::EitherStrong => "satctr(either-strong)".to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gshare_pred(counter: u8) -> Prediction {
        Prediction {
            taken: counter > 1,
            info: PredictorInfo::Gshare {
                counter,
                index: 0,
                history: 0,
            },
        }
    }

    fn mcf_pred(gshare: u8, bimodal: u8, chose_gshare: bool) -> Prediction {
        Prediction {
            taken: true,
            info: PredictorInfo::McFarling {
                gshare,
                bimodal,
                meta: 2,
                gshare_index: 0,
                bimodal_index: 0,
                history: 0,
                chose_gshare,
            },
        }
    }

    #[test]
    fn single_counter_strength_maps_to_confidence() {
        let mut e = SaturatingConfidence::selected();
        assert_eq!(e.estimate(0, 0, &gshare_pred(0)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &gshare_pred(1)), Confidence::Low);
        assert_eq!(e.estimate(0, 0, &gshare_pred(2)), Confidence::Low);
        assert_eq!(e.estimate(0, 0, &gshare_pred(3)), Confidence::High);
    }

    #[test]
    fn both_strong_requires_agreement_in_direction() {
        let mut e = SaturatingConfidence::both_strong();
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 3, true)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &mcf_pred(0, 0, true)), Confidence::High);
        // Both strong but opposite directions: low.
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 0, true)), Confidence::Low);
        // One weak: low.
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 2, true)), Confidence::Low);
        assert_eq!(e.estimate(0, 0, &mcf_pred(1, 1, true)), Confidence::Low);
    }

    #[test]
    fn either_strong_is_low_only_when_both_weak() {
        let mut e = SaturatingConfidence::either_strong();
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 1, true)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &mcf_pred(1, 0, true)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 0, true)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &mcf_pred(1, 2, true)), Confidence::Low);
        assert_eq!(e.estimate(0, 0, &mcf_pred(2, 2, true)), Confidence::Low);
    }

    #[test]
    fn either_marks_superset_of_both_strong() {
        // Either-Strong's HC set must contain Both-Strong's HC set.
        let mut both = SaturatingConfidence::both_strong();
        let mut either = SaturatingConfidence::either_strong();
        for g in 0..4u8 {
            for b in 0..4u8 {
                let p = mcf_pred(g, b, true);
                if both.estimate(0, 0, &p).is_high() {
                    assert!(either.estimate(0, 0, &p).is_high(), "g={g} b={b}");
                }
            }
        }
    }

    #[test]
    fn mcfarling_variants_fall_back_for_single_counters() {
        let mut e = SaturatingConfidence::both_strong();
        assert_eq!(e.estimate(0, 0, &gshare_pred(3)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &gshare_pred(2)), Confidence::Low);
    }

    #[test]
    fn selected_uses_the_chosen_component() {
        let mut e = SaturatingConfidence::selected();
        // gshare strong, bimodal weak: confidence follows the chooser.
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 1, true)), Confidence::High);
        assert_eq!(e.estimate(0, 0, &mcf_pred(3, 1, false)), Confidence::Low);
    }

    #[test]
    fn names_identify_variants() {
        assert_eq!(SaturatingConfidence::selected().name(), "satctr");
        assert_eq!(
            SaturatingConfidence::both_strong().name(),
            "satctr(both-strong)"
        );
        assert_eq!(
            SaturatingConfidence::either_strong().name(),
            "satctr(either-strong)"
        );
    }
}
