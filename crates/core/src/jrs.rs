//! The JRS "miss distance counter" estimator (Jacobsen, Rotenberg, Smith).

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::{Prediction, SaturatingCounter};

/// The one-level resetting-counter estimator of Jacobsen, Rotenberg & Smith,
/// with the paper's enhancement (§3.2.1).
///
/// A table of *miss distance counters* (MDCs) is indexed gshare-style by
/// `pc XOR global_history`. At prediction time, the indexed MDC is compared
/// against a threshold: at or above it, the branch is high confidence. When
/// a committed branch resolves, its MDC is incremented on a correct
/// prediction and **reset to zero** on a misprediction. Because
/// mispredictions cluster (§4.1), the reset-and-count discipline keeps
/// branches near a misprediction low-confidence until the cluster has
/// passed.
///
/// The **enhanced** variant folds the predicted direction into the index
/// (`(pc ^ ghr) << 1 | taken`), segregating taken/not-taken behaviour of the
/// same history — the paper shows this noticeably improves the PVP/PVN
/// trade-off. The hardware cost is reading both candidate MDCs and selecting
/// once the prediction is available.
///
/// The paper's configuration is 4096 × 4-bit MDCs with threshold 15
/// ([`Jrs::paper_base`] / [`Jrs::paper_enhanced`]); a threshold of 16 is
/// unreachable and degenerates to "always low confidence".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Jrs {
    table: Vec<SaturatingCounter>,
    mask: u32,
    counter_bits: u32,
    threshold: u8,
    enhanced: bool,
}

impl Jrs {
    /// Creates a JRS estimator with `2^index_bits` MDCs of `counter_bits`
    /// bits each, marking high confidence when the MDC value is `>=
    /// threshold`.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=24` or `counter_bits` not in
    /// `1..=8`. (`threshold` may exceed the counter maximum; that is the
    /// degenerate always-low configuration the paper plots.)
    pub fn new(index_bits: u32, counter_bits: u32, threshold: u8, enhanced: bool) -> Jrs {
        assert!(
            (1..=24).contains(&index_bits),
            "JRS index width {index_bits} out of range"
        );
        Jrs {
            table: vec![SaturatingCounter::new(counter_bits, 0); 1 << index_bits],
            mask: (1u32 << index_bits) - 1,
            counter_bits,
            threshold,
            enhanced,
        }
    }

    /// The paper's base configuration: 4096 × 4-bit MDCs, threshold 15,
    /// original (prediction-free) indexing.
    pub fn paper_base() -> Jrs {
        Jrs::new(12, 4, 15, false)
    }

    /// The paper's enhanced configuration (§3.2.1): prediction bit folded
    /// into the index. Used for all results after Figure 3.
    pub fn paper_enhanced() -> Jrs {
        Jrs::new(12, 4, 15, true)
    }

    /// Same table, different threshold (for threshold sweeps).
    pub fn with_threshold(&self, threshold: u8) -> Jrs {
        let mut j = self.clone();
        j.threshold = threshold;
        for c in &mut j.table {
            c.reset();
        }
        j
    }

    /// The confidence threshold.
    pub fn threshold(&self) -> u8 {
        self.threshold
    }

    /// Number of MDC entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `false`; the table is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn index(&self, pc: u32, ghr: u32, taken: bool) -> u32 {
        // Enhanced (§3.2.1): index with the history *as updated by the
        // current prediction* — the freshest speculative information. The
        // hardware reads both candidate MDCs and selects once the
        // prediction is available.
        let idx = if self.enhanced {
            pc ^ ((ghr << 1) | taken as u32)
        } else {
            pc ^ ghr
        };
        idx & self.mask
    }
}

impl ConfidenceEstimator for Jrs {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        let mdc = self.table[self.index(pc, ghr, pred.taken) as usize];
        Confidence::from_high(mdc.value() >= self.threshold)
    }

    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        let idx = self.index(pc, ghr, pred.taken) as usize;
        let c = &mut self.table[idx];
        if correct {
            c.increment();
        } else {
            c.reset();
        }
    }

    fn name(&self) -> String {
        format!(
            "jrs({}x{}b,t>={}{})",
            self.table.len(),
            self.counter_bits,
            self.threshold,
            if self.enhanced { ",enh" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::PredictorInfo;

    fn pred(taken: bool) -> Prediction {
        Prediction {
            taken,
            info: PredictorInfo::Bimodal {
                counter: 2,
                index: 0,
            },
        }
    }

    #[test]
    fn cold_table_is_low_confidence() {
        let mut j = Jrs::paper_enhanced();
        assert_eq!(j.estimate(0x10, 0, &pred(true)), Confidence::Low);
    }

    #[test]
    fn confidence_requires_threshold_correct_predictions() {
        let mut j = Jrs::new(8, 4, 15, false);
        let (pc, ghr) = (0x10, 0b1010);
        for i in 0..15 {
            assert_eq!(
                j.estimate(pc, ghr, &pred(true)),
                Confidence::Low,
                "after {i}"
            );
            j.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, ghr, &pred(true)), Confidence::High);
    }

    #[test]
    fn misprediction_resets_to_low() {
        let mut j = Jrs::new(8, 4, 15, false);
        let (pc, ghr) = (0x10, 0);
        for _ in 0..16 {
            j.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, ghr, &pred(true)), Confidence::High);
        j.update(pc, ghr, &pred(true), false);
        assert_eq!(j.estimate(pc, ghr, &pred(true)), Confidence::Low);
    }

    #[test]
    fn threshold_16_is_always_low() {
        // A 4-bit MDC saturates at 15, so threshold 16 cannot be reached —
        // the degenerate point on the paper's Figure 4 curves.
        let mut j = Jrs::new(8, 4, 16, false);
        let (pc, ghr) = (0x44, 0);
        for _ in 0..100 {
            j.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, ghr, &pred(true)), Confidence::Low);
    }

    #[test]
    fn enhanced_index_separates_directions() {
        let mut j = Jrs::new(8, 4, 2, true);
        let (pc, ghr) = (0x20, 0b11);
        // Train only the taken-direction entry.
        for _ in 0..3 {
            j.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, ghr, &pred(true)), Confidence::High);
        assert_eq!(
            j.estimate(pc, ghr, &pred(false)),
            Confidence::Low,
            "not-taken prediction uses a separate MDC"
        );
    }

    #[test]
    fn base_index_ignores_direction() {
        let mut j = Jrs::new(8, 4, 2, false);
        let (pc, ghr) = (0x20, 0b11);
        for _ in 0..3 {
            j.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, ghr, &pred(false)), Confidence::High);
    }

    #[test]
    fn history_disambiguates_like_gshare() {
        let mut j = Jrs::new(8, 4, 2, false);
        let pc = 0x8;
        for _ in 0..3 {
            j.update(pc, 0b0001, &pred(true), true);
        }
        assert_eq!(j.estimate(pc, 0b0001, &pred(true)), Confidence::High);
        assert_eq!(j.estimate(pc, 0b0010, &pred(true)), Confidence::Low);
    }

    #[test]
    fn with_threshold_resets_state() {
        let mut j = Jrs::new(8, 4, 15, false);
        for _ in 0..16 {
            j.update(1, 0, &pred(true), true);
        }
        let mut j2 = j.with_threshold(1);
        assert_eq!(j2.threshold(), 1);
        assert_eq!(
            j2.estimate(1, 0, &pred(true)),
            Confidence::Low,
            "cloned sweeps start cold"
        );
    }

    #[test]
    fn names_reflect_configuration() {
        assert_eq!(Jrs::paper_base().name(), "jrs(4096x4b,t>=15)");
        assert_eq!(Jrs::paper_enhanced().name(), "jrs(4096x4b,t>=15,enh)");
    }
}
