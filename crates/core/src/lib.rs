//! # cestim-core
//!
//! Confidence estimation for speculation control — the primary contribution
//! of Klauser, Grunwald, Manne & Pleszkun (ISCA 1998), as a reusable
//! library.
//!
//! A *confidence estimator* corroborates a branch predictor: for every
//! prediction it assigns **high confidence** (HC, "trust the prediction") or
//! **low confidence** (LC, "this one may be wrong"). Architectures use the
//! estimate for *speculation control*: gating instruction fetch to save
//! power, switching threads in an SMT processor, forking both paths in an
//! eager-execution machine, and so on.
//!
//! ## Metrics ([`Quadrant`], [`diagnostic`])
//!
//! The paper's methodological contribution is to treat a confidence
//! estimator as a *diagnostic test* and compare estimators with four
//! standard, "higher is better" statistics computed from the 2×2 outcome
//! table (correct/incorrect prediction × high/low confidence):
//!
//! * **SENS** `P[HC | C]` — correct predictions identified as HC,
//! * **SPEC** `P[LC | I]` — incorrect predictions identified as LC,
//! * **PVP** `P[C | HC]` — probability an HC estimate is right,
//! * **PVN** `P[I | LC]` — probability an LC estimate is right.
//!
//! Which metric matters depends on the application (the paper's §2.2): SMT
//! thread switching and pipeline gating want high PVN/SPEC; bandwidth
//! multithreading wants high SENS/PVP.
//!
//! ## Estimators
//!
//! * [`Jrs`] — the Jacobsen/Rotenberg/Smith one-level resetting
//!   "miss distance counter" table, with the paper's *enhanced* variant that
//!   folds the predicted direction into the index (§3.2.1),
//! * [`SaturatingConfidence`] — reuse of the predictor's own 2-bit counters
//!   (strong = HC), with the `BothStrong`/`EitherStrong` variants for the
//!   McFarling combining predictor (§3.3.1),
//! * [`PatternHistory`] — Lick et al.'s fixed set of "confident" history
//!   patterns (§3),
//! * [`StaticProfile`] — per-branch profiled predictor accuracy with a
//!   threshold (§3),
//! * [`DistanceEstimator`] — the paper's new §4 estimator: a single global
//!   counter of branches since the last *resolved* misprediction, exploiting
//!   misprediction clustering,
//! * [`Boosted`] — §4.2's booster: require `k` consecutive LC events,
//! * [`Cir`] — Jacobsen et al.'s *correct/incorrect register* design, the
//!   sibling of the resetting counters, completing the one-level design
//!   space,
//! * [`JrsCombining`] — the paper's §5 future work: a JRS variant whose
//!   index exploits the McFarling predictor's internal structure
//!   (component agreement + chooser state),
//! * [`Voting`] — extension beyond the paper: a composite estimator that
//!   reports HC iff at least a quorum of component estimators do,
//! * [`TimingEstimator`] — extension beyond the paper (Constantinou et
//!   al.): confidence from the modeled branch resolution latency fed by
//!   the pipeline,
//! * [`tune`] — the paper's §5 future work: choose a static-estimator
//!   threshold that provably (on the profile) meets a SPEC or PVN target.
//!
//! ## Example
//!
//! ```
//! use cestim_bpred::{BranchPredictor, Gshare};
//! use cestim_core::{Confidence, ConfidenceEstimator, Jrs, Quadrant};
//!
//! let mut bp = Gshare::new(12);
//! let mut ce = Jrs::paper_enhanced();
//! let mut q = Quadrant::default();
//! let mut ghr = 0u32;
//! let mut lcg = 1u32; // hard-to-predict outcome source for one branch
//!
//! // Three easy always-taken branches interleaved with one noisy branch.
//! for i in 0..10_000u32 {
//!     let pc = 0x40 + (i % 4) * 8;
//!     let taken = if i % 4 == 3 {
//!         lcg = lcg.wrapping_mul(1664525).wrapping_add(1013904223);
//!         lcg & 0x8000_0000 != 0
//!     } else {
//!         true
//!     };
//!     let pred = bp.predict(pc, ghr);
//!     let est = ce.estimate(pc, ghr, &pred);
//!     let correct = pred.taken == taken;
//!     q.record(correct, est);
//!     ce.update(pc, ghr, &pred, correct);
//!     bp.update(pc, taken, &pred);
//!     ghr = (ghr << 1) | pred.taken as u32;
//! }
//! assert!(q.pvp() > q.accuracy(), "HC branches beat the base rate");
//! assert!(q.total() == 10_000);
//! ```

#![warn(missing_docs)]

mod boost;
mod cir;
pub mod diagnostic;
mod dispatch;
mod distance;
mod estimator;
mod jrs;
mod jrs_combining;
mod metrics;
mod pattern;
mod quadrant;
mod saturating;
mod static_profile;
mod timing;
pub mod tune;
mod voting;

pub use boost::{Boosted, KRun};
pub use cir::Cir;
pub use dispatch::AnyEstimator;
pub use distance::DistanceEstimator;
pub use estimator::{AlwaysHigh, AlwaysLow, Confidence, ConfidenceEstimator};
pub use jrs::Jrs;
pub use jrs_combining::JrsCombining;
pub use metrics::{mean_quadrant, MetricSummary};
pub use pattern::PatternHistory;
pub use quadrant::Quadrant;
pub use saturating::{SaturatingConfidence, SaturatingVariant};
pub use static_profile::{ProfileCollector, StaticProfile};
pub use timing::TimingEstimator;
pub use voting::{Quorum, Voting};
