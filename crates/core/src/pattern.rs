//! The fixed-pattern history estimator (after Lick et al.).

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;

/// Lick et al.'s pattern-history estimator, used to gate dual-path
/// execution.
///
/// The observation: with a per-branch (PAs/SAg-style) history, a small set
/// of history patterns account for most *correct* predictions. The estimator
/// marks a branch high confidence iff its history register matches one of a
/// fixed set of patterns:
///
/// * always taken (`111…1`) and almost-always taken (exactly one 0),
/// * always not-taken (`000…0`) and almost-always not-taken (exactly one 1),
/// * alternating taken/not-taken (`0101…` / `1010…`).
///
/// All other patterns are low confidence. The estimator needs **no storage
/// at all** — just combinational logic on the history register.
///
/// The paper's finding (§3.2, §3.4): the technique works well only when the
/// history is *local* (SAg), where the pattern reflects one branch's
/// behaviour; with a global history (gshare, McFarling) no dominant patterns
/// emerge, SENS collapses, and — because almost everything is marked LC —
/// SPEC looks deceptively high.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternHistory {
    width: u32,
    mask: u32,
}

impl PatternHistory {
    /// Creates the estimator for `width`-bit history patterns. Configure it
    /// to the history width of the underlying predictor (12 for the paper's
    /// gshare/McFarling, 13 for its SAg).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not in `2..=32`.
    pub fn new(width: u32) -> PatternHistory {
        assert!(
            (2..=32).contains(&width),
            "pattern width {width} out of range"
        );
        let mask = if width == 32 {
            u32::MAX
        } else {
            (1u32 << width) - 1
        };
        PatternHistory { width, mask }
    }

    /// History width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// `true` when `history` is one of the confident patterns.
    pub fn is_confident_pattern(&self, history: u32) -> bool {
        let h = history & self.mask;
        let ones = h.count_ones();
        if ones <= 1 || ones >= self.width - 1 {
            // always / almost-always (not-)taken
            return true;
        }
        // Alternating patterns: 0101… and 1010… of the configured width.
        let alt = 0x5555_5555u32 & self.mask;
        h == alt || h == (!alt & self.mask)
    }
}

impl ConfidenceEstimator for PatternHistory {
    fn estimate(&mut self, _pc: u32, _ghr: u32, pred: &Prediction) -> Confidence {
        Confidence::from_high(self.is_confident_pattern(pred.info.history()))
    }

    fn update(&mut self, _pc: u32, _ghr: u32, _pred: &Prediction, _correct: bool) {
        // Stateless: the predictor's history update is the only state.
    }

    fn name(&self) -> String {
        format!("pattern({}b)", self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::PredictorInfo;

    fn sag_pred(history: u32, width: u32) -> Prediction {
        Prediction {
            taken: true,
            info: PredictorInfo::Sag {
                counter: 2,
                local_history: history,
                history_width: width,
                bht_index: 0,
            },
        }
    }

    #[test]
    fn saturated_patterns_are_confident() {
        let p = PatternHistory::new(8);
        assert!(p.is_confident_pattern(0b1111_1111));
        assert!(p.is_confident_pattern(0b0000_0000));
    }

    #[test]
    fn one_off_patterns_are_confident() {
        let p = PatternHistory::new(8);
        assert!(p.is_confident_pattern(0b1111_0111), "once not-taken");
        assert!(p.is_confident_pattern(0b0100_0000), "once taken");
    }

    #[test]
    fn alternating_patterns_are_confident() {
        let p = PatternHistory::new(8);
        assert!(p.is_confident_pattern(0b0101_0101));
        assert!(p.is_confident_pattern(0b1010_1010));
    }

    #[test]
    fn irregular_patterns_are_not_confident() {
        let p = PatternHistory::new(8);
        assert!(!p.is_confident_pattern(0b1100_1010));
        assert!(!p.is_confident_pattern(0b0011_0011));
        assert!(!p.is_confident_pattern(0b1110_0111));
    }

    #[test]
    fn width_masks_the_history() {
        let p = PatternHistory::new(4);
        // Upper bits beyond the width must be ignored.
        assert!(p.is_confident_pattern(0xFFF0 | 0b1111));
        assert!(p.is_confident_pattern(0xABC0 | 0b0101));
    }

    #[test]
    fn estimator_reads_local_history_for_sag() {
        let mut e = PatternHistory::new(13);
        let hi = sag_pred(0b1_1111_1111_1111, 13);
        let lo = sag_pred(0b1_0010_1100_0110, 13);
        assert_eq!(e.estimate(0, 0, &hi), Confidence::High);
        assert_eq!(e.estimate(0, 0, &lo), Confidence::Low);
    }

    #[test]
    fn global_history_predictors_use_global_pattern() {
        let mut e = PatternHistory::new(12);
        let pred = Prediction {
            taken: true,
            info: PredictorInfo::Gshare {
                counter: 3,
                index: 0,
                history: 0b1010_1010_1010,
            },
        };
        assert_eq!(e.estimate(0, 0, &pred), Confidence::High);
    }

    #[test]
    fn name_reports_width() {
        assert_eq!(PatternHistory::new(13).name(), "pattern(13b)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn width_must_be_at_least_two() {
        let _ = PatternHistory::new(1);
    }
}
