//! # cestim-pipeline
//!
//! A pipeline-level simulator with **wrong-path execution** — the
//! measurement vehicle behind Klauser et al.'s confidence-estimation study
//! (ISCA 1998), rebuilt on the `cestim-isa` interpreter instead of
//! SimpleScalar's `sim-outorder`.
//!
//! The paper's methodology needs capabilities a plain trace-driven simulator
//! cannot provide:
//!
//! * the outcome of **every** branch — including branches on mispredicted
//!   (wrong) paths that never commit — must be known at decode,
//! * branch *resolution* must happen at realistic, variable times so the
//!   "perceived" misprediction distance (when the front-end learns of a
//!   misprediction) differs from the "precise" one (when it happened),
//! * speculative global-history update with recovery repair,
//! * per-branch confidence estimates recorded for both the all-branches and
//!   committed-branches populations.
//!
//! [`Simulator`] provides all four, plus pipeline gating (fetch stalls while
//! too many low-confidence branches are outstanding — the speculation
//! control application the paper motivates) and an observer interface
//! ([`SimObserver`]) that `cestim-trace` uses for distance/clustering
//! analyses. A `cestim-obs` `Tracer` is one more observer; [`replay`]
//! feeds its recorded events back through any other.
//!
//! The timing model exists once, as a private core (predictor, estimators,
//! scoreboard, caches, in-flight window, resolution, gating, commit
//! training) with two fetch sources: the live [`Simulator`] front end
//! (interpreter, checkpoints, wrong-path fetch, recovery, eager forks,
//! replay fetch mode, trace capture) and the [`TraceSimulator`] front end,
//! which walks an imported `&[TraceRecord]`. Replaying a trace and running
//! live in replay fetch mode therefore share every line of timing code;
//! what the conformance suites still diff independently is the trace —
//! the interpreter exporter against the live capture hook.
//!
//! See the [`Simulator`] type docs for the model and an example.
//!
//! [`TraceRecord`]: cestim_trace_io::TraceRecord

#![warn(missing_docs)]

mod cache;
mod config;
mod events;
mod replay;
mod roster;
mod simulator;
mod smt;
mod stats;
mod timing;

pub use cache::{Cache, CacheAccess};
pub use config::{CacheConfig, PipelineConfig};
pub use events::{
    replay, replay_event, FetchEvent, GateEvent, MultiObserver, NullObserver, OutcomeEvent,
    PredictEvent, RecoveryEvent, ResolveEvent, SimObserver,
};
pub use replay::TraceSimulator;
pub use simulator::Simulator;
pub use smt::{FetchPolicy, SmtSimulator, SmtStats};
pub use stats::{EstimatorQuadrants, PipelineStats};
