//! Window-based boosting measurement (the paper's §4.2).

use cestim_pipeline::{OutcomeEvent, SimObserver};
use std::collections::VecDeque;

/// Measures the boosted predictive value of `k` consecutive low-confidence
/// estimates: `P[at least one of the k branches is mispredicted]`.
///
/// §4.2 is explicit that boosting "describes the state of the pipeline
/// rather than the state of a particular branch": seeing `k` consecutive LC
/// estimates is evidence that *something* in the window will not commit.
/// Under the Bernoulli approximation the value is `1 − (1 − PVN)^k`
/// (`cestim_core::KRun::bernoulli_pvn`); this observer measures it directly
/// over the committed branch stream (sliding windows within LC runs) so the
/// approximation can be validated.
#[derive(Debug, Clone)]
pub struct BoostAnalysis {
    estimator_index: usize,
    max_k: u32,
    /// Outcomes (mispredicted?) of the current LC run, newest at the back.
    run: VecDeque<bool>,
    /// `(windows, windows with ≥1 misprediction)` per k, index 0 = k=1.
    counts: Vec<(u64, u64)>,
}

impl BoostAnalysis {
    /// Creates the analysis for the estimator at `estimator_index`,
    /// measuring window sizes `1..=max_k`.
    ///
    /// # Panics
    ///
    /// Panics if `max_k == 0`.
    pub fn new(estimator_index: usize, max_k: u32) -> BoostAnalysis {
        assert!(max_k >= 1, "need at least one window size");
        BoostAnalysis {
            estimator_index,
            max_k,
            run: VecDeque::new(),
            counts: vec![(0, 0); max_k as usize],
        }
    }

    /// Number of `k`-windows observed.
    pub fn windows(&self, k: u32) -> u64 {
        self.counts[(k - 1) as usize].0
    }

    /// Measured `P[≥1 misprediction | k consecutive LC]`; `NaN` before any
    /// window of that size was seen.
    pub fn boosted_pvn(&self, k: u32) -> f64 {
        let (w, h) = self.counts[(k - 1) as usize];
        h as f64 / w as f64
    }

    /// Raw `(windows, windows with ≥1 misprediction)` counts per window
    /// size, index 0 = `k=1` — the mergeable summary of one run.
    pub fn counts(&self) -> &[(u64, u64)] {
        &self.counts
    }

    /// Accumulates per-workload counts from another analysis, so runs
    /// executed independently (e.g. on an executor pool) can be folded
    /// into one measurement.
    ///
    /// # Panics
    ///
    /// Panics if `other` measured a different set of window sizes.
    pub fn absorb_counts(&mut self, other: &[(u64, u64)]) {
        assert_eq!(
            self.counts.len(),
            other.len(),
            "window-size mismatch when merging boost counts"
        );
        for (mine, theirs) in self.counts.iter_mut().zip(other) {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
    }
}

impl SimObserver for BoostAnalysis {
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        if !ev.committed {
            return;
        }
        let Some(est) = ev.estimates.get(self.estimator_index) else {
            return;
        };
        if est.is_high() {
            self.run.clear();
            return;
        }
        self.run.push_back(ev.mispredicted);
        if self.run.len() > self.max_k as usize {
            self.run.pop_front();
        }
        // Sliding windows ending at this branch, for every k the run covers.
        for k in 1..=self.run.len() {
            let any = self.run.iter().rev().take(k).any(|&m| m);
            let c = &mut self.counts[k - 1];
            c.0 += 1;
            c.1 += any as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_core::{Confidence, KRun};

    fn ev(mispredicted: bool, est: Confidence, committed: bool) -> OutcomeEvent<'static> {
        let estimates: &'static [Confidence] = match est {
            Confidence::High => &[Confidence::High],
            Confidence::Low => &[Confidence::Low],
        };
        OutcomeEvent {
            seq: 0,
            pc: 0,
            predicted_taken: true,
            actual_taken: !mispredicted,
            mispredicted,
            committed,
            fetch_cycle: 0,
            resolve_cycle: None,
            ghr: 0,
            estimates,
        }
    }

    #[test]
    fn windows_count_consecutive_lc_only() {
        use Confidence::{High, Low};
        let mut a = BoostAnalysis::new(0, 2);
        a.on_branch_outcome(&ev(false, Low, true)); // run len 1
        a.on_branch_outcome(&ev(true, Low, true)); // run len 2
        a.on_branch_outcome(&ev(false, High, true)); // reset
        a.on_branch_outcome(&ev(false, Low, true)); // run len 1
        assert_eq!(a.windows(1), 3);
        assert_eq!(a.windows(2), 1);
        // The only 2-window contains one misprediction.
        assert_eq!(a.boosted_pvn(2), 1.0);
        // 1-windows: one of three mispredicted.
        assert!((a.boosted_pvn(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn squashed_branches_are_ignored() {
        let mut a = BoostAnalysis::new(0, 2);
        a.on_branch_outcome(&ev(true, Confidence::Low, false));
        assert_eq!(a.windows(1), 0);
    }

    #[test]
    fn boosted_pvn_is_monotone_in_k_for_bernoulli_streams() {
        // Synthetic independent stream: LC always, misprediction 30%.
        let mut a = BoostAnalysis::new(0, 3);
        let mut x = 7u32;
        for _ in 0..200_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            a.on_branch_outcome(&ev(x % 10 < 3, Confidence::Low, true));
        }
        let p1 = a.boosted_pvn(1);
        let p2 = a.boosted_pvn(2);
        let p3 = a.boosted_pvn(3);
        assert!(p1 < p2 && p2 < p3);
        assert!((p2 - KRun::bernoulli_pvn(p1, 2)).abs() < 0.02, "{p2}");
        assert!((p3 - KRun::bernoulli_pvn(p1, 3)).abs() < 0.02, "{p3}");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_k_rejected() {
        let _ = BoostAnalysis::new(0, 0);
    }
}
