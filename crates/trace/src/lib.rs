//! # cestim-trace
//!
//! The temporal analyses of Klauser et al.'s §4: misprediction-distance
//! histograms (Figures 6–9) and confidence-mis-estimation clustering.
//!
//! Everything here is built on `cestim-pipeline`'s
//! [`SimObserver`](cestim_pipeline::SimObserver) hooks, so the analyses run
//! *streaming* during simulation and retain no trace. To analyse a run
//! post hoc instead, record it with a `cestim-obs` `Tracer` (itself an
//! observer) and feed the events back with
//! [`cestim_pipeline::replay`]: the replayed analysis equals the live one
//! bit for bit.
//!
//! * [`DistanceAnalysis`] — misprediction rate as a function of the distance
//!   (in branches) to the previous misprediction, in four flavours:
//!   {precise, perceived} × {all branches, committed branches}. *Precise*
//!   uses complete pipeline knowledge (a misprediction "counts" the moment
//!   the mispredicted branch is fetched); *perceived* uses only what a real
//!   front-end can see (a misprediction counts when it *resolves*), which
//!   skews the clustering toward larger distances — the paper's key §4.1
//!   observation.
//! * [`ClusterAnalysis`] — the same distance treatment applied to an
//!   *estimator's* mistakes (mis-estimations), showing they are only
//!   slightly clustered, which is what justifies the §4.2 Bernoulli
//!   boosting approximation.
//! * [`BoostAnalysis`] — §4.2's boosting, measured the way the paper means
//!   it: `P[≥1 misprediction | k consecutive low-confidence estimates]`, a
//!   pipeline-state property validated against the Bernoulli model.

#![warn(missing_docs)]

mod boost;
mod cluster;
mod distance;

pub use boost::BoostAnalysis;
pub use cluster::{ClusterAnalysis, ClusterSummary};
pub use distance::{DistanceAnalysis, DistanceHistogram, DistanceSeries};
