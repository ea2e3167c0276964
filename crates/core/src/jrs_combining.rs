//! A JRS variant specialized for the McFarling combining predictor.
//!
//! The paper's §5 names this as future work: "a confidence estimator
//! similar to the JRS mechanism designed to better exploit the structure of
//! the McFarling two-level branch predictor", motivated by the §3.5
//! observation that an estimator performs best when its indexing structure
//! mimics the predictor's.

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::{Prediction, PredictorInfo, SaturatingCounter};

/// JRS-style miss distance counters indexed with the McFarling predictor's
/// *internal state*, not just `pc ^ history`.
///
/// The index folds in, beyond the enhanced-JRS prediction bit:
///
/// * whether the two component predictors **agree** on direction — the
///   single strongest confidence signal the combining structure exposes
///   (Table 3's Both-/Either-Strong variants are built on it), and
/// * which component the **meta predictor selected** — so a branch's MDC
///   history is not polluted when the chooser switches components.
///
/// For non-McFarling predictors the extra bits are zero and the estimator
/// degrades gracefully to the enhanced JRS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JrsCombining {
    table: Vec<SaturatingCounter>,
    mask: u32,
    threshold: u8,
}

impl JrsCombining {
    /// Creates the estimator with `2^index_bits` 4-bit MDCs and the given
    /// high-confidence threshold.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=24`.
    pub fn new(index_bits: u32, threshold: u8) -> JrsCombining {
        assert!(
            (1..=24).contains(&index_bits),
            "index width {index_bits} out of range"
        );
        JrsCombining {
            table: vec![SaturatingCounter::new(4, 0); 1 << index_bits],
            mask: (1u32 << index_bits) - 1,
            threshold,
        }
    }

    /// The paper-comparable configuration: 4096 entries, threshold 15.
    pub fn paper_config() -> JrsCombining {
        JrsCombining::new(12, 15)
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
    fn index(&self, pc: u32, ghr: u32, pred: &Prediction) -> usize {
        let (agree, chose_gshare) = match pred.info {
            PredictorInfo::McFarling {
                gshare,
                bimodal,
                chose_gshare,
                ..
            } => (((gshare > 1) == (bimodal > 1)) as u32, chose_gshare as u32),
            _ => (0, 0),
        };
        let salted = (ghr << 3) | (pred.taken as u32) << 2 | agree << 1 | chose_gshare;
        ((pc ^ salted) & self.mask) as usize
    }
}

impl ConfidenceEstimator for JrsCombining {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        let mdc = self.table[self.index(pc, ghr, pred)];
        Confidence::from_high(mdc.value() >= self.threshold)
    }

    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        let i = self.index(pc, ghr, pred);
        let c = &mut self.table[i];
        if correct {
            c.increment();
        } else {
            c.reset();
        }
    }

    fn name(&self) -> String {
        format!("jrs-mcf({}x4b,t>={})", self.table.len(), self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mcf_pred(taken: bool, gshare: u8, bimodal: u8, chose_gshare: bool) -> Prediction {
        Prediction {
            taken,
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
    fn reset_and_count_discipline() {
        let mut j = JrsCombining::new(8, 3);
        let p = mcf_pred(true, 3, 3, true);
        for _ in 0..3 {
            assert_eq!(j.estimate(0x10, 0, &p), Confidence::Low);
            j.update(0x10, 0, &p, true);
        }
        assert_eq!(j.estimate(0x10, 0, &p), Confidence::High);
        j.update(0x10, 0, &p, false);
        assert_eq!(j.estimate(0x10, 0, &p), Confidence::Low);
    }

    #[test]
    fn agreement_bit_separates_mdc_entries() {
        let mut j = JrsCombining::new(8, 2);
        let agreeing = mcf_pred(true, 3, 3, true);
        let disagreeing = mcf_pred(true, 3, 0, true);
        for _ in 0..3 {
            j.update(0x10, 0, &agreeing, true);
        }
        assert_eq!(j.estimate(0x10, 0, &agreeing), Confidence::High);
        assert_eq!(
            j.estimate(0x10, 0, &disagreeing),
            Confidence::Low,
            "component disagreement maps to a different, cold MDC"
        );
    }

    #[test]
    fn chooser_bit_separates_mdc_entries() {
        let mut j = JrsCombining::new(8, 2);
        let via_gshare = mcf_pred(true, 3, 2, true);
        let via_bimodal = mcf_pred(true, 3, 2, false);
        for _ in 0..3 {
            j.update(0x10, 0, &via_gshare, true);
        }
        assert_eq!(j.estimate(0x10, 0, &via_gshare), Confidence::High);
        assert_eq!(j.estimate(0x10, 0, &via_bimodal), Confidence::Low);
    }

    #[test]
    fn degrades_gracefully_on_other_predictors() {
        use cestim_bpred::PredictorInfo;
        let mut j = JrsCombining::new(8, 2);
        let p = Prediction {
            taken: true,
            info: PredictorInfo::Gshare {
                counter: 3,
                index: 0,
                history: 0,
            },
        };
        for _ in 0..2 {
            j.update(0x4, 0b1, &p, true);
        }
        assert_eq!(j.estimate(0x4, 0b1, &p), Confidence::High);
    }

    #[test]
    fn name_and_config() {
        let j = JrsCombining::paper_config();
        assert_eq!(j.len(), 4096);
        assert_eq!(j.name(), "jrs-mcf(4096x4b,t>=15)");
    }
}
