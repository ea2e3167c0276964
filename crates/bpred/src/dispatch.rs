//! Enum-based static dispatch over the predictors of the study.
//!
//! The simulator's hot path calls [`BranchPredictor::predict`] once per
//! fetched branch and [`BranchPredictor::update`] once per committed
//! branch. Routing those calls through `Box<dyn BranchPredictor>` costs an
//! indirect call (and defeats inlining) on every event. [`AnyPredictor`]
//! closes that hole: it enumerates the concrete predictors of the study so
//! the match arms inline.
//!
//! Every concrete predictor converts into its variant with `From`, so call
//! sites pass values: `Simulator::new(&prog, cfg, Gshare::new(12))`.

use crate::traits::{BranchPredictor, Prediction};
use crate::{Bimodal, Gshare, McFarling, Perceptron, SAg, Tage};

/// A statically dispatched branch predictor: one variant per concrete
/// predictor in the study.
pub enum AnyPredictor {
    /// Bimodal PC-indexed table.
    Bimodal(Bimodal),
    /// gshare (global history XOR PC).
    Gshare(Gshare),
    /// McFarling combining predictor.
    McFarling(McFarling),
    /// SAg two-level predictor with per-branch local histories.
    SAg(SAg),
    /// TAGE tagged-geometric predictor.
    Tage(Tage),
    /// Hashed-perceptron predictor.
    Perceptron(Perceptron),
}

impl std::fmt::Debug for AnyPredictor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AnyPredictor").field(&self.name()).finish()
    }
}

impl BranchPredictor for AnyPredictor {
    #[inline]
    fn predict(&mut self, pc: u32, ghr: u32) -> Prediction {
        match self {
            AnyPredictor::Bimodal(p) => p.predict(pc, ghr),
            AnyPredictor::Gshare(p) => p.predict(pc, ghr),
            AnyPredictor::McFarling(p) => p.predict(pc, ghr),
            AnyPredictor::SAg(p) => p.predict(pc, ghr),
            AnyPredictor::Tage(p) => p.predict(pc, ghr),
            AnyPredictor::Perceptron(p) => p.predict(pc, ghr),
        }
    }

    #[inline]
    fn update(&mut self, pc: u32, taken: bool, pred: &Prediction) {
        match self {
            AnyPredictor::Bimodal(p) => p.update(pc, taken, pred),
            AnyPredictor::Gshare(p) => p.update(pc, taken, pred),
            AnyPredictor::McFarling(p) => p.update(pc, taken, pred),
            AnyPredictor::SAg(p) => p.update(pc, taken, pred),
            AnyPredictor::Tage(p) => p.update(pc, taken, pred),
            AnyPredictor::Perceptron(p) => p.update(pc, taken, pred),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyPredictor::Bimodal(p) => p.name(),
            AnyPredictor::Gshare(p) => p.name(),
            AnyPredictor::McFarling(p) => p.name(),
            AnyPredictor::SAg(p) => p.name(),
            AnyPredictor::Tage(p) => p.name(),
            AnyPredictor::Perceptron(p) => p.name(),
        }
    }

    fn global_history_width(&self) -> u32 {
        match self {
            AnyPredictor::Bimodal(p) => p.global_history_width(),
            AnyPredictor::Gshare(p) => p.global_history_width(),
            AnyPredictor::McFarling(p) => p.global_history_width(),
            AnyPredictor::SAg(p) => p.global_history_width(),
            AnyPredictor::Tage(p) => p.global_history_width(),
            AnyPredictor::Perceptron(p) => p.global_history_width(),
        }
    }
}

macro_rules! impl_from_predictor {
    ($($ty:ident),*) => {
        $(
            impl From<$ty> for AnyPredictor {
                fn from(p: $ty) -> AnyPredictor {
                    AnyPredictor::$ty(p)
                }
            }
        )*
    };
}

impl_from_predictor!(Bimodal, Gshare, McFarling, SAg, Tage, Perceptron);

#[cfg(test)]
mod tests {
    use super::*;

    fn agree(mut a: AnyPredictor, mut b: Box<dyn BranchPredictor>) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.global_history_width(), b.global_history_width());
        let mut ghr = 0u32;
        for i in 0..2_000u32 {
            let pc = (i * 37) % 257;
            let pa = a.predict(pc, ghr);
            let pb = b.predict(pc, ghr);
            assert_eq!(pa, pb, "diverged at step {i}");
            let taken = (i * 7 + pc) % 3 == 0;
            a.update(pc, taken, &pa);
            b.update(pc, taken, &pb);
            ghr = (ghr << 1) | taken as u32;
        }
    }

    #[test]
    fn enum_matches_trait_object_for_every_variant() {
        agree(Gshare::new(10).into(), Box::new(Gshare::new(10)));
        agree(Bimodal::new(8).into(), Box::new(Bimodal::new(8)));
        agree(McFarling::new(10).into(), Box::new(McFarling::new(10)));
        agree(SAg::paper_config().into(), Box::new(SAg::paper_config()));
        agree(
            Tage::default_config().into(),
            Box::new(Tage::default_config()),
        );
        agree(
            Perceptron::default_config().into(),
            Box::new(Perceptron::default_config()),
        );
    }

    #[test]
    fn debug_shows_name() {
        let p: AnyPredictor = Gshare::new(12).into();
        assert_eq!(format!("{p:?}"), "AnyPredictor(\"gshare\")");
    }
}
