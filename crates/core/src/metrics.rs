//! Aggregation of confidence metrics across benchmarks.

use crate::Quadrant;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The four diagnostic metrics (plus accuracy) of one estimator
/// configuration, as reported in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricSummary {
    /// Sensitivity `P[HC | C]`.
    pub sens: f64,
    /// Specificity `P[LC | I]`.
    pub spec: f64,
    /// Predictive value of a positive test `P[C | HC]`.
    pub pvp: f64,
    /// Predictive value of a negative test `P[I | LC]`.
    pub pvn: f64,
    /// Branch prediction accuracy `P[C]`.
    pub accuracy: f64,
}

impl MetricSummary {
    /// Metrics of a single quadrant table.
    pub fn from_quadrant(q: &Quadrant) -> MetricSummary {
        MetricSummary {
            sens: q.sens(),
            spec: q.spec(),
            pvp: q.pvp(),
            pvn: q.pvn(),
            accuracy: q.accuracy(),
        }
    }

    /// Metrics from normalized quadrant fractions in
    /// `[c_hc, i_hc, c_lc, i_lc]` order.
    pub fn from_fractions(f: [f64; 4]) -> MetricSummary {
        let [c_hc, i_hc, c_lc, i_lc] = f;
        MetricSummary {
            sens: c_hc / (c_hc + c_lc),
            spec: i_lc / (i_hc + i_lc),
            pvp: c_hc / (c_hc + i_hc),
            pvn: i_lc / (c_lc + i_lc),
            accuracy: c_hc + c_lc,
        }
    }
}

impl fmt::Display for MetricSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sens {:5.1}%  spec {:5.1}%  pvp {:5.1}%  pvn {:5.1}%",
            self.sens * 100.0,
            self.spec * 100.0,
            self.pvp * 100.0,
            self.pvn * 100.0
        )
    }
}

/// Aggregates per-benchmark quadrants the way the paper does (§3.2): each
/// benchmark's table is normalized to fractions, the fractions are averaged
/// cell-wise across benchmarks, and the metrics are computed from the
/// averaged cells — *not* by averaging the per-benchmark metric values.
///
/// # Panics
///
/// Panics when `quadrants` is empty or any quadrant is empty.
pub fn mean_quadrant(quadrants: &[Quadrant]) -> MetricSummary {
    assert!(!quadrants.is_empty(), "no quadrants to aggregate");
    let mut acc = [0.0f64; 4];
    for q in quadrants {
        assert!(q.total() > 0, "cannot aggregate an empty quadrant");
        let f = q.fractions();
        for (a, v) in acc.iter_mut().zip(f) {
            *a += v;
        }
    }
    let n = quadrants.len() as f64;
    for a in &mut acc {
        *a /= n;
    }
    MetricSummary::from_fractions(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_quadrant_weights_benchmarks_equally() {
        // A huge benchmark must not dominate: fractions are averaged.
        let small = Quadrant {
            c_hc: 8,
            i_hc: 1,
            c_lc: 0,
            i_lc: 1,
        }; // acc 0.8
        let large = Quadrant {
            c_hc: 4000,
            i_hc: 3000,
            c_lc: 2000,
            i_lc: 1000,
        }; // acc 0.6
        let m = mean_quadrant(&[small, large]);
        assert!((m.accuracy - 0.7).abs() < 1e-12);
    }

    #[test]
    fn mean_of_identical_quadrants_is_identity() {
        let q = Quadrant {
            c_hc: 61,
            i_hc: 2,
            c_lc: 19,
            i_lc: 18,
        };
        let m = mean_quadrant(&[q, q, q]);
        let direct = MetricSummary::from_quadrant(&q);
        assert!((m.sens - direct.sens).abs() < 1e-12);
        assert!((m.pvn - direct.pvn).abs() < 1e-12);
    }

    #[test]
    fn mean_differs_from_metric_averaging() {
        // The paper's prescription: mean the cells, then take ratios.
        let a = Quadrant {
            c_hc: 90,
            i_hc: 0,
            c_lc: 0,
            i_lc: 10,
        };
        let b = Quadrant {
            c_hc: 10,
            i_hc: 40,
            c_lc: 10,
            i_lc: 40,
        };
        let m = mean_quadrant(&[a, b]);
        let naive = (a.pvp() + b.pvp()) / 2.0;
        assert!((m.pvp - naive).abs() > 0.05, "cell averaging must differ");
    }

    #[test]
    #[should_panic(expected = "no quadrants")]
    fn empty_aggregate_panics() {
        let _ = mean_quadrant(&[]);
    }

    #[test]
    #[should_panic(expected = "empty quadrant")]
    fn empty_member_panics() {
        let _ = mean_quadrant(&[Quadrant::default()]);
    }

    #[test]
    fn summary_display_is_percentages() {
        let q = Quadrant {
            c_hc: 61,
            i_hc: 2,
            c_lc: 19,
            i_lc: 18,
        };
        let s = MetricSummary::from_quadrant(&q).to_string();
        assert!(s.contains("76.2%"), "{s}");
        assert!(s.contains("90.0%"), "{s}");
    }
}
