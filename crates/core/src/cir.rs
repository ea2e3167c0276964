//! Correct/incorrect registers (the other JRS design).

use crate::{Confidence, ConfidenceEstimator};
use cestim_bpred::Prediction;

/// Jacobsen, Rotenberg & Smith's *correct/incorrect register* (CIR)
/// estimator: a table of shift registers recording the last `width`
/// prediction outcomes (1 = correct) of each gshare-style index, with the
/// confidence decision a ones-count threshold.
///
/// Klauser et al. evaluate the *resetting counter* variant ([`Jrs`]) and
/// note (§4) that CIR tables were primarily studied as an accuracy-
/// improvement device; this implementation completes the design space so
/// the two one-level mechanisms can be compared on the speculation-control
/// metrics. A CIR with threshold = width behaves like a saturating "all of
/// the last n were correct" test; lower thresholds trade SPEC for SENS
/// more gently than the reset-to-zero discipline, because a single
/// misprediction only removes one of `width` ones instead of clearing the
/// count.
///
/// [`Jrs`]: crate::Jrs
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cir {
    table: Vec<u16>,
    ones: Vec<u8>,
    mask: u32,
    width: u32,
    width_mask: u16,
    threshold: u32,
    enhanced: bool,
}

impl Cir {
    /// Creates a CIR estimator with `2^index_bits` registers of `width`
    /// outcome bits (1 ≤ width ≤ 16); a prediction is high confidence when
    /// at least `threshold` of the recorded outcomes were correct.
    ///
    /// `enhanced` folds the predicted direction into the index, like the
    /// enhanced [`Jrs`](crate::Jrs).
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `1..=24` or `width` not in `1..=16`.
    pub fn new(index_bits: u32, width: u32, threshold: u32, enhanced: bool) -> Cir {
        assert!(
            (1..=24).contains(&index_bits),
            "CIR index width {index_bits} out of range"
        );
        assert!((1..=16).contains(&width), "CIR width {width} out of range");
        Cir {
            table: vec![0; 1 << index_bits],
            ones: vec![0; 1 << index_bits],
            mask: (1u32 << index_bits) - 1,
            width,
            width_mask: if width == 16 {
                u16::MAX
            } else {
                (1u16 << width) - 1
            },
            threshold,
            enhanced,
        }
    }

    /// Number of registers.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `false`; the table is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn index(&self, pc: u32, ghr: u32, taken: bool) -> usize {
        let idx = if self.enhanced {
            pc ^ ((ghr << 1) | taken as u32)
        } else {
            pc ^ ghr
        };
        (idx & self.mask) as usize
    }
}

impl ConfidenceEstimator for Cir {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        let i = self.index(pc, ghr, pred.taken);
        Confidence::from_high(u32::from(self.ones[i]) >= self.threshold)
    }

    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        let i = self.index(pc, ghr, pred.taken);
        let reg = &mut self.table[i];
        *reg = ((*reg << 1) | correct as u16) & self.width_mask;
        self.ones[i] = reg.count_ones() as u8;
    }

    fn name(&self) -> String {
        format!(
            "cir({}x{}b,>={}{})",
            self.table.len(),
            self.width,
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
    fn cold_registers_are_low_confidence() {
        let mut c = Cir::new(12, 16, 16, true);
        assert_eq!(c.estimate(0x10, 0, &pred(true)), Confidence::Low);
    }

    #[test]
    fn confidence_needs_threshold_ones() {
        let mut c = Cir::new(8, 8, 6, false);
        let (pc, ghr) = (0x20, 0b101);
        for i in 0..6 {
            assert_eq!(
                c.estimate(pc, ghr, &pred(true)),
                Confidence::Low,
                "after {i}"
            );
            c.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(c.estimate(pc, ghr, &pred(true)), Confidence::High);
    }

    #[test]
    fn one_misprediction_removes_only_one_vote() {
        // Unlike the JRS reset-to-zero, a single incorrect outcome costs
        // exactly one vote: with threshold 7-of-8 the entry stays high
        // confidence, with threshold 8-of-8 it recovers only once the zero
        // ages out of the window.
        let mut lenient = Cir::new(8, 8, 7, false);
        let mut strict = Cir::new(8, 8, 8, false);
        let (pc, ghr) = (0x20, 0);
        for _ in 0..8 {
            lenient.update(pc, ghr, &pred(true), true);
            strict.update(pc, ghr, &pred(true), true);
        }
        lenient.update(pc, ghr, &pred(true), false);
        strict.update(pc, ghr, &pred(true), false);
        assert_eq!(lenient.estimate(pc, ghr, &pred(true)), Confidence::High);
        assert_eq!(strict.estimate(pc, ghr, &pred(true)), Confidence::Low);
        // Seven more correct outcomes: the zero is still in the window.
        for _ in 0..7 {
            strict.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(strict.estimate(pc, ghr, &pred(true)), Confidence::Low);
        strict.update(pc, ghr, &pred(true), true);
        assert_eq!(strict.estimate(pc, ghr, &pred(true)), Confidence::High);
    }

    #[test]
    fn window_forgets_old_outcomes() {
        let mut c = Cir::new(8, 4, 4, false);
        let (pc, ghr) = (0x8, 0);
        c.update(pc, ghr, &pred(true), false);
        for _ in 0..4 {
            c.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(
            c.estimate(pc, ghr, &pred(true)),
            Confidence::High,
            "the incorrect outcome aged out of the 4-bit window"
        );
    }

    #[test]
    fn enhanced_separates_directions() {
        let mut c = Cir::new(8, 4, 2, true);
        let (pc, ghr) = (0x30, 0b11);
        for _ in 0..4 {
            c.update(pc, ghr, &pred(true), true);
        }
        assert_eq!(c.estimate(pc, ghr, &pred(true)), Confidence::High);
        assert_eq!(c.estimate(pc, ghr, &pred(false)), Confidence::Low);
    }

    #[test]
    fn name_reports_configuration() {
        assert_eq!(Cir::new(12, 16, 16, true).name(), "cir(4096x16b,>=16,enh)");
        assert_eq!(Cir::new(8, 8, 6, false).name(), "cir(256x8b,>=6)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_width_rejected() {
        let _ = Cir::new(8, 17, 1, false);
    }
}
