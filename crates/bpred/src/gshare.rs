//! The gshare global-history predictor (McFarling, 1993).

use crate::{BranchPredictor, Prediction, PredictorInfo, SaturatingCounter};

/// gshare: a PHT of 2-bit counters indexed by `pc XOR global_history`.
///
/// The paper's first configuration uses a 4096-entry gshare
/// (`Gshare::new(12)`) with *speculatively updated* global history — the
/// history value passed to [`predict`](BranchPredictor::predict) by the
/// pipeline already contains the predicted outcomes of in-flight branches.
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<SaturatingCounter>,
    index_bits: u32,
    mask: u32,
}

impl Gshare {
    /// Creates a gshare with `2^index_bits` counters and an
    /// `index_bits`-wide history contribution.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Gshare {
        assert!(
            (1..=24).contains(&index_bits),
            "gshare index width {index_bits} out of range"
        );
        Gshare {
            table: vec![SaturatingCounter::two_bit(); 1 << index_bits],
            index_bits,
            mask: (1u32 << index_bits) - 1,
        }
    }

    /// Computes the PHT index for a PC and history value.
    #[inline]
    pub fn index(&self, pc: u32, ghr: u32) -> u32 {
        (pc ^ ghr) & self.mask
    }

    /// Number of PHT entries.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `false`; the table is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    pub(crate) fn train(&mut self, index: u32, taken: bool) {
        self.table[(index & self.mask) as usize].train(taken);
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u32, ghr: u32) -> Prediction {
        let index = self.index(pc, ghr);
        let c = self.table[index as usize];
        Prediction {
            taken: c.predict_taken(),
            info: PredictorInfo::Gshare {
                counter: c.value(),
                index,
                history: ghr & self.mask,
            },
        }
    }

    fn update(&mut self, _pc: u32, taken: bool, pred: &Prediction) {
        match pred.info {
            PredictorInfo::Gshare { index, .. } => self.train(index, taken),
            ref other => panic!("gshare update with foreign info {other:?}"),
        }
    }

    fn name(&self) -> &'static str {
        "gshare"
    }

    fn global_history_width(&self) -> u32 {
        self.index_bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_disambiguates_same_pc() {
        let mut p = Gshare::new(12);
        let pc = 0x10;
        // Under history A the branch is taken; under history B not-taken.
        let (ha, hb) = (0b0101, 0b1010);
        for _ in 0..4 {
            let pa = p.predict(pc, ha);
            p.update(pc, true, &pa);
            let pb = p.predict(pc, hb);
            p.update(pc, false, &pb);
        }
        assert!(p.predict(pc, ha).taken);
        assert!(!p.predict(pc, hb).taken);
    }

    #[test]
    fn update_trains_the_predict_time_index() {
        let mut p = Gshare::new(12);
        let pred = p.predict(0x77, 0x3);
        let index = match pred.info {
            PredictorInfo::Gshare { index, .. } => index,
            _ => unreachable!(),
        };
        assert_eq!(index, (0x77 ^ 0x3) & 0xFFF);
        p.update(0x77, true, &pred);
        match p.predict(0x77, 0x3).info {
            PredictorInfo::Gshare { counter, .. } => assert_eq!(counter, 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn info_reports_masked_history() {
        let mut p = Gshare::new(4);
        let pred = p.predict(0, 0xABCD);
        match pred.info {
            PredictorInfo::Gshare { history, .. } => assert_eq!(history, 0xD),
            _ => unreachable!(),
        }
    }

    #[test]
    fn paper_configuration_has_4096_entries() {
        let p = Gshare::new(12);
        assert_eq!(p.len(), 4096);
        assert_eq!(p.global_history_width(), 12);
    }

    #[test]
    fn learns_alternating_pattern_through_history() {
        // A branch alternating T/N/T/N is mispredicted by bimodal but
        // perfectly predictable with 1 bit of history.
        let mut p = Gshare::new(10);
        let pc = 0x200;
        let mut ghr = 0u32;
        let mut correct = 0;
        let mut taken = true;
        for i in 0..200 {
            let pred = p.predict(pc, ghr);
            if i >= 100 && pred.taken == taken {
                correct += 1;
            }
            p.update(pc, taken, &pred);
            ghr = (ghr << 1) | taken as u32;
            taken = !taken;
        }
        assert_eq!(correct, 100, "alternating pattern learned perfectly");
    }
}
