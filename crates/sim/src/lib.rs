//! # cestim-sim
//!
//! The experiment layer: declarative predictor/estimator specifications, a
//! two-pass runner (profiling + measurement) over the synthetic SPECint95
//! analogs, and the complete experiment suite of Klauser et al. (ISCA 1998)
//! — every table and figure, regenerated from simulation.
//!
//! * [`PredictorKind`] / [`EstimatorSpec`] — buildable descriptions of the
//!   paper's predictors and estimators, including the per-predictor "paper
//!   set" used by Table 2.
//! * [`RunConfig`] / [`run`] — one pipeline pass over one workload with any
//!   number of estimators attached; profiling passes for the static
//!   estimator are inserted automatically. One private driver assembles
//!   this pass and its variants ([`run_with_profile`],
//!   [`run_with_observer`], [`run_replay_live`], [`run_trace`],
//!   [`collect_profile`]).
//! * [`suite`] — `table1` … `table4`, `fig1` … `fig9`, `cluster`, `boost`
//!   and the `ext-*` extensions, each run on a given
//!   [`Executor`](cestim_exec::Executor) and dispatched by id from one
//!   ordered table: each returns an
//!   [`ExperimentResult`](suite::ExperimentResult) with formatted text
//!   (the paper's rows/series) and a JSON value for machine consumption.
//! * [`apps`] — speculation-control application models built on the
//!   estimators: pipeline-gating sweeps, and the SMT/eager-execution
//!   figure-of-merit calculations of the paper's §2.2.
//!
//! ## Example
//!
//! ```no_run
//! use cestim_sim::{run, EstimatorSpec, PredictorKind, RunConfig};
//! use cestim_workloads::WorkloadKind;
//!
//! let cfg = RunConfig::paper(WorkloadKind::Compress, 2, PredictorKind::Gshare);
//! let out = run(&cfg, &EstimatorSpec::paper_set(PredictorKind::Gshare));
//! for e in &out.estimators {
//!     println!("{:24} pvn={:.1}%", e.name, e.quadrants.committed.pvn() * 100.0);
//! }
//! ```

#![warn(missing_docs)]

pub mod apps;
mod jobs;
mod profile;
mod replay;
mod report;
mod runner;
mod spec;
pub mod suite;

pub use cestim_trace_io::TraceRecord;
pub use jobs::{sim_schema_salt, DistanceBundle, ExecJob, JobOutput, SIM_JOB_SCHEMA};
pub use replay::{
    capture_live_trace, conformance_specs, export_config_trace, run_replay_live, run_trace,
    EXPORT_MAX_STEPS,
};
pub use report::{pct, Table};
pub use runner::{
    collect_profile, run, run_instrumented, run_with_observer, run_with_profile, EstimatorResult,
    InstrumentedOutcome, RunConfig, RunOutcome,
};
pub use spec::{
    EstimatorSpec, ParsePredictorError, ParseSpecError, PredictorKind, SatVariantSpec,
    TuneTargetSpec,
};
