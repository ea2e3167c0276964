//! SAg two-level predictor with per-branch (local) history.

use crate::{BranchPredictor, HistoryRegister, Prediction, PredictorInfo, SaturatingCounter};

/// SAg (Yeh & Patt taxonomy): a *tagless* branch history table (BHT) of
/// per-branch local history registers indexed by PC, feeding one shared,
/// global pattern history table (PHT) of 2-bit counters indexed by the local
/// history pattern.
///
/// The paper's configuration (§3.4) is 2048 history entries × 13-bit
/// histories × 8192-entry PHT — `SAg::new(11, 13)`. Histories are updated
/// **non-speculatively** (at commit): the paper argues speculative local
/// history is too expensive to repair, so high-performance implementations
/// would not use it. Consequently [`predict`](BranchPredictor::predict)
/// ignores the caller's global history entirely.
#[derive(Debug, Clone)]
pub struct SAg {
    bht: Vec<HistoryRegister>,
    pht: Vec<SaturatingCounter>,
    bht_mask: u32,
    pht_mask: u32,
    history_width: u32,
}

impl SAg {
    /// Creates a SAg with `2^bht_bits` history registers of `history_width`
    /// bits and a `2^history_width`-entry PHT.
    ///
    /// # Panics
    ///
    /// Panics if `bht_bits` is 0 or greater than 20, or `history_width` is 0
    /// or greater than 20.
    pub fn new(bht_bits: u32, history_width: u32) -> SAg {
        assert!(
            (1..=20).contains(&bht_bits),
            "BHT width {bht_bits} out of range"
        );
        assert!(
            (1..=20).contains(&history_width),
            "history width {history_width} out of range"
        );
        SAg {
            bht: vec![HistoryRegister::new(history_width); 1 << bht_bits],
            pht: vec![SaturatingCounter::two_bit(); 1 << history_width],
            bht_mask: (1u32 << bht_bits) - 1,
            pht_mask: (1u32 << history_width) - 1,
            history_width,
        }
    }

    /// The paper's configuration: 2048 × 13-bit histories, 8192-entry PHT.
    pub fn paper_config() -> SAg {
        SAg::new(11, 13)
    }

    #[inline]
    fn bht_index(&self, pc: u32) -> u32 {
        pc & self.bht_mask
    }

    /// Local history currently recorded for `pc` (tagless: aliases share).
    pub fn local_history(&self, pc: u32) -> u32 {
        self.bht[self.bht_index(pc) as usize].value()
    }
}

impl BranchPredictor for SAg {
    fn predict(&mut self, pc: u32, _ghr: u32) -> Prediction {
        let bht_index = self.bht_index(pc);
        let local = self.bht[bht_index as usize].value();
        let c = self.pht[(local & self.pht_mask) as usize];
        Prediction {
            taken: c.predict_taken(),
            info: PredictorInfo::Sag {
                counter: c.value(),
                local_history: local,
                history_width: self.history_width,
                bht_index,
            },
        }
    }

    fn update(&mut self, _pc: u32, taken: bool, pred: &Prediction) {
        match pred.info {
            PredictorInfo::Sag {
                local_history,
                bht_index,
                ..
            } => {
                // Train the PHT entry selected at predict time, then shift
                // the outcome into the branch's history — commit order makes
                // this the non-speculative update the paper describes.
                self.pht[(local_history & self.pht_mask) as usize].train(taken);
                self.bht[(bht_index & self.bht_mask) as usize].push(taken);
            }
            ref other => panic!("SAg update with foreign info {other:?}"),
        }
    }

    fn name(&self) -> &'static str {
        "sag"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        let mut p = SAg::paper_config();
        let pred = p.predict(5, 0);
        assert!(matches!(
            pred.info,
            PredictorInfo::Sag {
                history_width: 13,
                ..
            }
        ));
        p.update(5, true, &pred);
        // 2048 tagless BHT entries: PCs 2048 apart share one history.
        assert_eq!(p.local_history(5 + 2048), 1);
        assert_eq!(p.local_history(5 + 1024), 0);
    }

    #[test]
    fn learns_a_local_period_pattern() {
        // Period-3 pattern T T N is invisible to bimodal but trivially
        // captured by local history.
        let mut p = SAg::new(8, 8);
        let pc = 0x30;
        let mut correct = 0;
        for i in 0..300 {
            let taken = i % 3 != 2;
            let pred = p.predict(pc, 0);
            if i >= 100 && pred.taken == taken {
                correct += 1;
            }
            p.update(pc, taken, &pred);
        }
        assert_eq!(correct, 200, "period-3 pattern learned perfectly");
    }

    #[test]
    fn local_history_tracks_committed_outcomes() {
        let mut p = SAg::new(8, 6);
        let pc = 5;
        for taken in [true, false, true, true, false, false] {
            let pred = p.predict(pc, 0);
            p.update(pc, taken, &pred);
        }
        assert_eq!(p.local_history(pc), 0b101100);
    }

    #[test]
    fn tagless_bht_aliases_distant_pcs() {
        let mut p = SAg::new(4, 6); // 16 BHT entries
        let pred = p.predict(3, 0);
        p.update(3, true, &pred);
        assert_eq!(p.local_history(3 + 16), 0b1, "pc 19 aliases with pc 3");
    }

    #[test]
    fn global_history_is_ignored() {
        let mut p = SAg::new(8, 8);
        let a = p.predict(7, 0);
        let b = p.predict(7, 0xFFFF_FFFF);
        assert_eq!(a, b);
    }

    #[test]
    fn branches_with_same_pattern_share_pht() {
        // Two branches, both always-taken: the second benefits from the
        // first's PHT training once its history fills with ones.
        let mut p = SAg::new(8, 4);
        for _ in 0..20 {
            let pred = p.predict(1, 0);
            p.update(1, true, &pred);
        }
        // Prime only the *history* of branch 2 (outcomes taken), checking
        // the shared PHT entry is already trained.
        let mut pred2;
        for _ in 0..4 {
            pred2 = p.predict(2, 0);
            p.update(2, true, &pred2);
        }
        let pred = p.predict(2, 0);
        assert!(pred.taken);
        match pred.info {
            PredictorInfo::Sag { counter, .. } => assert_eq!(counter, 3),
            _ => unreachable!(),
        }
    }
}
