//! Boosting confidence estimates with consecutive events (the paper's §4.2).

use crate::{Confidence, ConfidenceEstimator, Hooks};
use cestim_bpred::Prediction;

/// The k-run rule of boosting: low confidence only from the `k`-th
/// consecutive low-confidence input on.
///
/// [`Boosted`] applies it to its inner estimator's estimates; the pipeline
/// applies the same rule to an estimate it already holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KRun {
    k: u32,
    lc_run: u32,
}

impl KRun {
    /// The Bernoulli-model boosted PVN: `1 − (1 − pvn)^k`, the probability
    /// that at least one of `k` independent low-confidence branches with
    /// predictive value `pvn` is mispredicted.
    pub fn bernoulli_pvn(pvn: f64, k: u32) -> f64 {
        1.0 - (1.0 - pvn).powi(k as i32)
    }

    /// Feeds the next inner estimate; returns the boosted one.
    #[inline]
    pub fn observe(&mut self, inner: Confidence) -> Confidence {
        match inner {
            Confidence::Low => {
                self.lc_run += 1;
                Confidence::from_high(self.lc_run < self.k)
            }
            Confidence::High => {
                self.lc_run = 0;
                Confidence::High
            }
        }
    }
}

/// Boosts an estimator's PVN by requiring `k` *consecutive* low-confidence
/// estimates before signalling low confidence.
///
/// §4.2: because confidence mis-estimations are only slightly clustered, LC
/// events can be loosely approximated as Bernoulli trials over the few
/// branches resident in a pipeline. The probability that at least one of
/// `k` consecutive LC branches is mispredicted is `1 − (1 − PVN)^k` — an
/// estimator with PVN 30 % boosted with `k = 2` approaches 50 %.
///
/// The boosted signal describes the *pipeline*, not a single branch: it says
/// "one of the last `k` LC branches is likely wrong", which is exactly what
/// an SMT processor needs to justify a thread switch, and what an eager-
/// execution machine can use by forking at *both* LC branches. The
/// [`KRun::bernoulli_pvn`] helper computes the model value
/// the measured boost is compared against in the `repro boost` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Boosted<E> {
    inner: E,
    run: KRun,
}

impl<E: ConfidenceEstimator> Boosted<E> {
    /// Wraps `inner`, requiring `k >= 1` consecutive LC estimates.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(inner: E, k: u32) -> Boosted<E> {
        assert!(k >= 1, "boost factor must be at least 1");
        Boosted {
            inner,
            run: KRun { k, lc_run: 0 },
        }
    }

    /// The boost factor `k`.
    pub fn k(&self) -> u32 {
        self.run.k
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// Consumes the wrapper and returns the inner estimator.
    pub fn into_inner(self) -> E {
        self.inner
    }

    /// Splits the wrapper into the inner estimator and its rule (with the
    /// current run).
    pub fn into_parts(self) -> (E, KRun) {
        (self.inner, self.run)
    }
}

impl<E: ConfidenceEstimator> ConfidenceEstimator for Boosted<E> {
    fn estimate(&mut self, pc: u32, ghr: u32, pred: &Prediction) -> Confidence {
        self.run.observe(self.inner.estimate(pc, ghr, pred))
    }

    fn update(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        self.inner.update(pc, ghr, pred, correct);
    }

    fn on_branch_resolved(&mut self, mispredicted: bool) {
        self.inner.on_branch_resolved(mispredicted);
    }

    fn note_resolve_latency(&mut self, latency: u64) {
        self.inner.note_resolve_latency(latency);
    }

    fn name(&self) -> String {
        format!("boost{}({})", self.run.k, self.inner.name())
    }

    fn hooks(&self) -> Hooks {
        self.inner.hooks()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AlwaysLow;
    use cestim_bpred::PredictorInfo;

    fn pred() -> Prediction {
        Prediction {
            taken: true,
            info: PredictorInfo::Bimodal {
                counter: 0,
                index: 0,
            },
        }
    }

    /// Inner estimator scripted from a sequence of confidences.
    struct Scripted(Vec<Confidence>, usize);
    impl ConfidenceEstimator for Scripted {
        fn estimate(&mut self, _: u32, _: u32, _: &Prediction) -> Confidence {
            let c = self.0[self.1 % self.0.len()];
            self.1 += 1;
            c
        }
        fn update(&mut self, _: u32, _: u32, _: &Prediction, _: bool) {}
        fn name(&self) -> String {
            "scripted".into()
        }
    }

    #[test]
    fn k1_is_transparent() {
        let mut b = Boosted::new(AlwaysLow, 1);
        assert_eq!(b.estimate(0, 0, &pred()), Confidence::Low);
        assert_eq!(b.estimate(0, 0, &pred()), Confidence::Low);
    }

    #[test]
    fn k2_requires_two_consecutive_lc() {
        use Confidence::{High, Low};
        let inner = Scripted(vec![Low, High, Low, Low, Low], 0);
        let mut b = Boosted::new(inner, 2);
        assert_eq!(b.estimate(0, 0, &pred()), High, "single LC suppressed");
        assert_eq!(b.estimate(0, 0, &pred()), High, "inner HC passes through");
        assert_eq!(b.estimate(0, 0, &pred()), High, "run restarts");
        assert_eq!(
            b.estimate(0, 0, &pred()),
            Low,
            "second consecutive LC fires"
        );
        assert_eq!(b.estimate(0, 0, &pred()), Low, "run continues firing");
    }

    #[test]
    fn hc_resets_the_run() {
        use Confidence::{High, Low};
        let inner = Scripted(vec![Low, High, Low, High], 0);
        let mut b = Boosted::new(inner, 2);
        for _ in 0..8 {
            assert_eq!(b.estimate(0, 0, &pred()), High);
        }
    }

    #[test]
    fn bernoulli_model_values() {
        // The paper's example: PVN 30 % boosted with k=2 → ≈ 51 %.
        let v = KRun::bernoulli_pvn(0.30, 2);
        assert!((v - 0.51).abs() < 1e-12);
        assert_eq!(KRun::bernoulli_pvn(0.5, 1), 0.5);
        assert!((KRun::bernoulli_pvn(0.2, 3) - 0.488).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_boost_rejected() {
        let _ = Boosted::new(AlwaysLow, 0);
    }

    #[test]
    fn name_and_accessors() {
        let b = Boosted::new(AlwaysLow, 3);
        assert_eq!(b.name(), "boost3(always-low)");
        assert_eq!(b.k(), 3);
        let _inner: AlwaysLow = b.into_inner();
    }
}
