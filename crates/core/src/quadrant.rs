//! The 2×2 confidence/outcome table and its metrics.

use crate::Confidence;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign};

/// The 2×2 outcome table of a confidence estimator (the paper's §2).
///
/// Rows are the confidence estimate (HC / LC), columns the eventual branch
/// prediction outcome (Correct / Incorrect):
///
/// ```text
///        |   C     |   I
///   -----+---------+--------
///    HC  |  c_hc   |  i_hc
///    LC  |  c_lc   |  i_lc
/// ```
///
/// All four diagnostic-test metrics are ratios of these counts. Metrics
/// whose denominator is zero return `NaN` (documented per method); use
/// [`Quadrant::total`] to guard.
///
/// # Example
///
/// The paper's worked example (§2.1): 100 branches, 20 mispredicted; the
/// estimator marks HC for 61 correct and 2 incorrect predictions.
///
/// ```
/// use cestim_core::Quadrant;
///
/// let q = Quadrant { c_hc: 61, i_hc: 2, c_lc: 19, i_lc: 18 };
/// assert!((q.sens() - 0.7625).abs() < 1e-9);
/// assert!((q.pvp() - 61.0 / 63.0).abs() < 1e-9);
/// assert!((q.spec() - 0.90).abs() < 1e-9);
/// assert!((q.pvn() - 18.0 / 37.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Quadrant {
    /// Correct predictions estimated high-confidence.
    pub c_hc: u64,
    /// Incorrect predictions estimated high-confidence (missed mispredicts).
    pub i_hc: u64,
    /// Correct predictions estimated low-confidence (false alarms).
    pub c_lc: u64,
    /// Incorrect predictions estimated low-confidence (caught mispredicts).
    pub i_lc: u64,
}

impl Quadrant {
    /// Creates an empty table.
    pub fn new() -> Quadrant {
        Quadrant::default()
    }

    /// Records one branch: whether the *prediction* was correct and what the
    /// estimator said about it.
    #[inline]
    pub fn record(&mut self, prediction_correct: bool, estimate: Confidence) {
        match (prediction_correct, estimate) {
            (true, Confidence::High) => self.c_hc += 1,
            (false, Confidence::High) => self.i_hc += 1,
            (true, Confidence::Low) => self.c_lc += 1,
            (false, Confidence::Low) => self.i_lc += 1,
        }
    }

    /// Total branches recorded.
    #[inline]
    pub fn total(&self) -> u64 {
        self.c_hc + self.i_hc + self.c_lc + self.i_lc
    }

    /// Sensitivity `P[HC | C]` — fraction of correct predictions identified
    /// as high confidence. `NaN` when no predictions were correct.
    pub fn sens(&self) -> f64 {
        ratio(self.c_hc, self.c_hc + self.c_lc)
    }

    /// Specificity `P[LC | I]` — fraction of incorrect predictions
    /// identified as low confidence. `NaN` when no predictions were
    /// incorrect.
    pub fn spec(&self) -> f64 {
        ratio(self.i_lc, self.i_hc + self.i_lc)
    }

    /// Predictive value of a positive test `P[C | HC]` — probability a
    /// high-confidence estimate is correct. `NaN` when nothing was HC.
    pub fn pvp(&self) -> f64 {
        ratio(self.c_hc, self.c_hc + self.i_hc)
    }

    /// Predictive value of a negative test `P[I | LC]` — probability a
    /// low-confidence estimate is correct. `NaN` when nothing was LC.
    pub fn pvn(&self) -> f64 {
        ratio(self.i_lc, self.c_lc + self.i_lc)
    }

    /// Branch prediction accuracy `P[C]` (independent of the estimator).
    /// `NaN` when the table is empty.
    pub fn accuracy(&self) -> f64 {
        ratio(self.c_hc + self.c_lc, self.total())
    }

    /// Branch misprediction rate `P[I]`. `NaN` when the table is empty.
    pub fn misprediction_rate(&self) -> f64 {
        ratio(self.i_hc + self.i_lc, self.total())
    }

    /// Jacobsen et al.'s "coverage": the fraction of branches estimated low
    /// confidence. `NaN` when the table is empty.
    pub fn coverage(&self) -> f64 {
        ratio(self.c_lc + self.i_lc, self.total())
    }

    /// The four cells normalized to fractions of the total, in
    /// `(c_hc, i_hc, c_lc, i_lc)` order. `NaN`s when the table is empty.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total() as f64;
        [
            self.c_hc as f64 / t,
            self.i_hc as f64 / t,
            self.c_lc as f64 / t,
            self.i_lc as f64 / t,
        ]
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den as f64
}

impl Add for Quadrant {
    type Output = Quadrant;
    fn add(self, rhs: Quadrant) -> Quadrant {
        Quadrant {
            c_hc: self.c_hc + rhs.c_hc,
            i_hc: self.i_hc + rhs.i_hc,
            c_lc: self.c_lc + rhs.c_lc,
            i_lc: self.i_lc + rhs.i_lc,
        }
    }
}

impl AddAssign for Quadrant {
    fn add_assign(&mut self, rhs: Quadrant) {
        *self = *self + rhs;
    }
}

impl fmt::Display for Quadrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "            C          I")?;
        writeln!(f, "  HC {:10} {:10}", self.c_hc, self.i_hc)?;
        write!(f, "  LC {:10} {:10}", self.c_lc, self.i_lc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The worked example from §2.1 of the paper.
    const PAPER: Quadrant = Quadrant {
        c_hc: 61,
        i_hc: 2,
        c_lc: 19,
        i_lc: 18,
    };

    #[test]
    fn paper_worked_example() {
        assert!((PAPER.sens() - 61.0 / 80.0).abs() < 1e-12);
        assert!((PAPER.pvp() - 61.0 / 63.0).abs() < 1e-12);
        assert!((PAPER.spec() - 18.0 / 20.0).abs() < 1e-12);
        assert!((PAPER.pvn() - 18.0 / 37.0).abs() < 1e-12);
        assert!((PAPER.accuracy() - 0.80).abs() < 1e-12);
        assert_eq!(PAPER.total(), 100);
    }

    #[test]
    fn jacobsen_metrics() {
        assert!((PAPER.coverage() - 0.37).abs() < 1e-12);
    }

    #[test]
    fn record_routes_to_the_right_cell() {
        let mut q = Quadrant::new();
        q.record(true, Confidence::High);
        q.record(false, Confidence::High);
        q.record(true, Confidence::Low);
        q.record(false, Confidence::Low);
        q.record(false, Confidence::Low);
        assert_eq!(
            q,
            Quadrant {
                c_hc: 1,
                i_hc: 1,
                c_lc: 1,
                i_lc: 2
            }
        );
    }

    #[test]
    fn empty_table_metrics_are_nan() {
        let q = Quadrant::new();
        assert!(q.sens().is_nan());
        assert!(q.spec().is_nan());
        assert!(q.pvp().is_nan());
        assert!(q.pvn().is_nan());
        assert!(q.accuracy().is_nan());
    }

    #[test]
    fn addition_is_cellwise() {
        let mut q = PAPER;
        q += PAPER;
        assert_eq!(q.total(), 200);
        assert!(
            (q.sens() - PAPER.sens()).abs() < 1e-12,
            "metrics scale-invariant"
        );
    }

    #[test]
    fn display_shows_all_cells() {
        let s = PAPER.to_string();
        assert!(s.contains("61"));
        assert!(s.contains("18"));
    }

    proptest! {
        /// SENS depends only on correct predictions, SPEC only on incorrect
        /// ones — the independence-from-accuracy property the paper states.
        #[test]
        fn sens_spec_independent_of_the_other_column(
            c_hc in 1u64..1000, c_lc in 1u64..1000,
            i_hc in 1u64..1000, i_lc in 1u64..1000,
            i_hc2 in 1u64..1000, i_lc2 in 1u64..1000,
        ) {
            let a = Quadrant { c_hc, i_hc, c_lc, i_lc };
            let b = Quadrant { c_hc, i_hc: i_hc2, c_lc, i_lc: i_lc2 };
            prop_assert!((a.sens() - b.sens()).abs() < 1e-12);
        }

        /// PVP/PVN are consistent with the closed-form diagnostic equations
        /// given SENS, SPEC and accuracy.
        #[test]
        fn pvp_pvn_match_closed_form(
            c_hc in 1u64..1000, c_lc in 1u64..1000,
            i_hc in 1u64..1000, i_lc in 1u64..1000,
        ) {
            let q = Quadrant { c_hc, i_hc, c_lc, i_lc };
            let (sens, spec, p) = (q.sens(), q.spec(), q.accuracy());
            let pvp = sens * p / (sens * p + (1.0 - spec) * (1.0 - p));
            let pvn = spec * (1.0 - p) / (spec * (1.0 - p) + (1.0 - sens) * p);
            prop_assert!((q.pvp() - pvp).abs() < 1e-9);
            prop_assert!((q.pvn() - pvn).abs() < 1e-9);
        }

        #[test]
        fn fractions_sum_to_one(
            c_hc in 0u64..1000, c_lc in 0u64..1000,
            i_hc in 0u64..1000, i_lc in 1u64..1000,
        ) {
            let q = Quadrant { c_hc, i_hc, c_lc, i_lc };
            let s: f64 = q.fractions().iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
