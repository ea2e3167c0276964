//! Executable job descriptions: the suite's simulation units as pure
//! values for `cestim-exec`.
//!
//! Every experiment in [`crate::suite`] decomposes into independent
//! simulation units — one pipeline pass per (workload, predictor,
//! estimator set) cell, one observer pass per distance/cluster/boost
//! measurement, one two-thread run per SMT policy. [`ExecJob`] captures
//! each unit as a serializable value, so an
//! [`Executor`](cestim_exec::Executor) can run them on a worker pool and
//! replay previously computed [`JobOutput`]s from its content-addressed
//! cache. Outputs are integer-only counter types (quadrants, histograms,
//! window counts): they round-trip through JSON bit-for-bit, which is
//! what makes cached and parallel runs byte-identical to serial ones.

use crate::{EstimatorSpec, PredictorKind, RunConfig};
use cestim_exec::Job;
use cestim_pipeline::{FetchPolicy, PipelineConfig, Simulator, SmtSimulator, SmtStats};
use cestim_trace::{
    BoostAnalysis, ClusterAnalysis, DistanceAnalysis, DistanceHistogram, DistanceSeries,
};
use cestim_trace_io::TraceRecord;
use cestim_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

/// Output-schema counter for simulation jobs. Bump whenever the meaning
/// or layout of any [`JobOutput`] changes: the bump re-salts every cache
/// key, orphaning (and thereby invalidating) previously cached results.
pub const SIM_JOB_SCHEMA: u32 = 1;

/// The schema salt simulation jobs hash under (crate version + counter).
pub fn sim_schema_salt() -> u64 {
    cestim_exec::schema_salt(env!("CARGO_PKG_VERSION"), SIM_JOB_SCHEMA)
}

/// One simulation unit of the experiment suite, as a pure value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecJob {
    /// One pipeline pass with estimators attached ([`crate::run`]);
    /// profile-based estimators self-profile on the same configuration.
    Run {
        /// The configuration to simulate.
        cfg: RunConfig,
        /// Estimators to attach, in order.
        specs: Vec<EstimatorSpec>,
    },
    /// Cross-input pass: profile on `cfg` re-salted with `train_salt`,
    /// then measure on `cfg` itself ([`crate::run_with_profile`]).
    CrossProfileRun {
        /// The evaluation configuration.
        cfg: RunConfig,
        /// Input salt for the training (profiling) pass.
        train_salt: u32,
        /// Estimators to attach, in order.
        specs: Vec<EstimatorSpec>,
    },
    /// Misprediction-distance measurement (Figures 6–9): one pass under a
    /// [`DistanceAnalysis`] observer with no estimators attached.
    Distance {
        /// The configuration to simulate.
        cfg: RunConfig,
        /// Histogram bucket count (distances clamp at this value).
        buckets: u64,
    },
    /// Mis-estimation clustering (§4.1): one pass with a single estimator
    /// under a [`ClusterAnalysis`] observer.
    Cluster {
        /// The configuration to simulate.
        cfg: RunConfig,
        /// The estimator whose mis-estimations are clustered.
        spec: EstimatorSpec,
        /// Histogram bucket count.
        buckets: u64,
    },
    /// Boosting measurement (§4.2): one pass with estimators attached and
    /// a [`BoostAnalysis`] window observer on estimator 0.
    Boost {
        /// The configuration to simulate.
        cfg: RunConfig,
        /// Estimators to attach (index 0 drives the windows).
        specs: Vec<EstimatorSpec>,
        /// Largest window size measured.
        max_k: u32,
    },
    /// Replay of an imported branch trace ([`crate::run_trace`]): one
    /// [`TraceSimulator`](cestim_pipeline::TraceSimulator) pass with
    /// estimators attached. Cache keys hash the trace *content* (FNV-1a
    /// over the canonical binary encoding), not the records themselves,
    /// so equal traces from different files share cache entries.
    Replay {
        /// The imported trace records.
        records: Vec<TraceRecord>,
        /// Branch predictor to drive from the trace.
        predictor: PredictorKind,
        /// Pipeline parameters.
        pipeline: PipelineConfig,
        /// Estimators to attach, in order.
        specs: Vec<EstimatorSpec>,
    },
    /// Two-thread SMT run under one fetch policy (the `ext-smt`
    /// extension): both threads use gshare + the selected-counter
    /// estimator, as in the paper's motivating application.
    Smt {
        /// First thread's workload.
        a: WorkloadKind,
        /// Second thread's workload.
        b: WorkloadKind,
        /// Workload scale.
        scale: u32,
        /// Fetch arbitration policy.
        policy: FetchPolicy,
    },
}

/// The four distance histograms one [`ExecJob::Distance`] pass produces.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DistanceBundle {
    /// Distances from omniscient reset points, all fetched branches.
    pub precise_all: DistanceHistogram,
    /// Distances from omniscient reset points, committed branches.
    pub precise_committed: DistanceHistogram,
    /// Distances from resolution-time reset points, all fetched branches.
    pub perceived_all: DistanceHistogram,
    /// Distances from resolution-time reset points, committed branches.
    pub perceived_committed: DistanceHistogram,
}

impl DistanceBundle {
    fn from_analysis(a: &DistanceAnalysis) -> DistanceBundle {
        DistanceBundle {
            precise_all: a.histogram(DistanceSeries::PreciseAll).clone(),
            precise_committed: a.histogram(DistanceSeries::PreciseCommitted).clone(),
            perceived_all: a.histogram(DistanceSeries::PerceivedAll).clone(),
            perceived_committed: a.histogram(DistanceSeries::PerceivedCommitted).clone(),
        }
    }

    /// The histogram for one series.
    pub fn series(&self, series: DistanceSeries) -> &DistanceHistogram {
        match series {
            DistanceSeries::PreciseAll => &self.precise_all,
            DistanceSeries::PreciseCommitted => &self.precise_committed,
            DistanceSeries::PerceivedAll => &self.perceived_all,
            DistanceSeries::PerceivedCommitted => &self.perceived_committed,
        }
    }

    /// Folds another bundle's counts into this one, series-wise.
    pub fn merge(&mut self, other: &DistanceBundle) {
        self.precise_all.merge(&other.precise_all);
        self.precise_committed.merge(&other.precise_committed);
        self.perceived_all.merge(&other.perceived_all);
        self.perceived_committed.merge(&other.perceived_committed);
    }
}

/// What one [`ExecJob`] produces. Variants mirror [`ExecJob`]'s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobOutput {
    /// Stats and quadrants of a (cross-)profile or plain run.
    Run(crate::RunOutcome),
    /// The four distance histograms.
    Distance(DistanceBundle),
    /// The mis-estimation distance histogram.
    Cluster(DistanceHistogram),
    /// A run outcome plus the boost window counts
    /// (`(windows, windows with ≥1 misprediction)` per k, index 0 = k=1).
    Boost {
        /// Stats and quadrants of the measurement pass.
        outcome: crate::RunOutcome,
        /// Window counts, mergeable via [`BoostAnalysis::absorb_counts`].
        counts: Vec<(u64, u64)>,
    },
    /// Aggregate stats of the SMT run.
    Smt(SmtStats),
}

impl JobOutput {
    /// Unwraps a [`JobOutput::Run`].
    ///
    /// # Panics
    ///
    /// Panics if the output came from a different job kind.
    pub fn into_run(self) -> crate::RunOutcome {
        match self {
            JobOutput::Run(o) => o,
            other => panic!("expected Run output, got {other:?}"),
        }
    }

    /// Unwraps a [`JobOutput::Distance`].
    ///
    /// # Panics
    ///
    /// Panics if the output came from a different job kind.
    pub fn into_distance(self) -> DistanceBundle {
        match self {
            JobOutput::Distance(b) => b,
            other => panic!("expected Distance output, got {other:?}"),
        }
    }

    /// Unwraps a [`JobOutput::Cluster`].
    ///
    /// # Panics
    ///
    /// Panics if the output came from a different job kind.
    pub fn into_cluster(self) -> DistanceHistogram {
        match self {
            JobOutput::Cluster(h) => h,
            other => panic!("expected Cluster output, got {other:?}"),
        }
    }

    /// Unwraps a [`JobOutput::Boost`].
    ///
    /// # Panics
    ///
    /// Panics if the output came from a different job kind.
    pub fn into_boost(self) -> (crate::RunOutcome, Vec<(u64, u64)>) {
        match self {
            JobOutput::Boost { outcome, counts } => (outcome, counts),
            other => panic!("expected Boost output, got {other:?}"),
        }
    }

    /// Unwraps a [`JobOutput::Smt`].
    ///
    /// # Panics
    ///
    /// Panics if the output came from a different job kind.
    pub fn into_smt(self) -> SmtStats {
        match self {
            JobOutput::Smt(s) => s,
            other => panic!("expected Smt output, got {other:?}"),
        }
    }
}

impl Job for ExecJob {
    type Output = JobOutput;

    fn content(&self) -> serde::Value {
        match self {
            // Replay jobs key on the trace's content hash, not the records:
            // the full record array would bloat every cache key (and index
            // entry) by the trace length, and two imports of byte-identical
            // traces should share cache entries.
            ExecJob::Replay {
                records,
                predictor,
                pipeline,
                specs,
            } => {
                let mut inner = serde::Map::new();
                inner.insert(
                    "trace".to_string(),
                    serde::Value::String(cestim_trace_io::content_hash_hex(records)),
                );
                inner.insert("predictor".to_string(), serde::to_value(predictor));
                inner.insert("pipeline".to_string(), serde::to_value(pipeline));
                inner.insert("specs".to_string(), serde::to_value(specs));
                let mut outer = serde::Map::new();
                outer.insert("Replay".to_string(), serde::Value::Object(inner));
                serde::Value::Object(outer)
            }
            _ => serde::to_value(self),
        }
    }

    fn schema_salt(&self) -> u64 {
        sim_schema_salt()
    }

    fn label(&self) -> String {
        match self {
            ExecJob::Run { cfg, specs } => format!(
                "run/{}/{:?}/s{}x{} ({} estimators)",
                cfg.workload.name(),
                cfg.predictor,
                cfg.scale,
                cfg.input_salt,
                specs.len()
            ),
            ExecJob::CrossProfileRun {
                cfg, train_salt, ..
            } => format!(
                "xprofile/{}/{:?}/s{} (train salt {train_salt})",
                cfg.workload.name(),
                cfg.predictor,
                cfg.scale
            ),
            ExecJob::Distance { cfg, buckets } => format!(
                "distance/{}/{:?}/s{} ({buckets} buckets)",
                cfg.workload.name(),
                cfg.predictor,
                cfg.scale
            ),
            ExecJob::Cluster { cfg, .. } => format!(
                "cluster/{}/{:?}/s{}",
                cfg.workload.name(),
                cfg.predictor,
                cfg.scale
            ),
            ExecJob::Boost { cfg, max_k, .. } => format!(
                "boost/{}/{:?}/s{} (k<={max_k})",
                cfg.workload.name(),
                cfg.predictor,
                cfg.scale
            ),
            ExecJob::Replay {
                records,
                predictor,
                specs,
                ..
            } => format!(
                "replay/{}/{}/{} records ({} estimators)",
                cestim_trace_io::content_hash_hex(records),
                predictor.name(),
                records.len(),
                specs.len()
            ),
            ExecJob::Smt {
                a,
                b,
                scale,
                policy,
                ..
            } => format!("smt/{}+{}/s{scale}/{}", a.name(), b.name(), policy.name()),
        }
    }

    fn execute(&self) -> JobOutput {
        // Under the executor's ambient span context (tracing on), the
        // job body gets a kind-labelled span nested in its attempt; the
        // simulator passes below add their own `sim.run` children.
        let kind = match self {
            ExecJob::Run { .. } => "run",
            ExecJob::CrossProfileRun { .. } => "xprofile",
            ExecJob::Distance { .. } => "distance",
            ExecJob::Cluster { .. } => "cluster",
            ExecJob::Boost { .. } => "boost",
            ExecJob::Replay { .. } => "replay",
            ExecJob::Smt { .. } => "smt",
        };
        let _span = cestim_obs::span::AmbientSpan::enter("sim.job", &[("kind", kind)]);
        match self {
            ExecJob::Run { cfg, specs } => JobOutput::Run(crate::run(cfg, specs)),
            ExecJob::CrossProfileRun {
                cfg,
                train_salt,
                specs,
            } => {
                let train_cfg = cfg.clone().with_input_salt(*train_salt);
                let profile = crate::collect_profile(&train_cfg);
                JobOutput::Run(crate::run_with_profile(cfg, specs, &profile))
            }
            ExecJob::Distance { cfg, buckets } => {
                let mut a = DistanceAnalysis::new(*buckets);
                crate::run_with_observer(cfg, &[], &mut a);
                JobOutput::Distance(DistanceBundle::from_analysis(&a))
            }
            ExecJob::Cluster { cfg, spec, buckets } => {
                let mut a = ClusterAnalysis::new(0, *buckets);
                crate::run_with_observer(cfg, std::slice::from_ref(spec), &mut a);
                JobOutput::Cluster(a.histogram().clone())
            }
            ExecJob::Boost { cfg, specs, max_k } => {
                let mut windows = BoostAnalysis::new(0, *max_k);
                let outcome = crate::run_with_observer(cfg, specs, &mut windows);
                JobOutput::Boost {
                    outcome,
                    counts: windows.counts().to_vec(),
                }
            }
            ExecJob::Replay {
                records,
                predictor,
                pipeline,
                specs,
            } => JobOutput::Run(crate::run_trace(records, *predictor, pipeline, specs)),
            ExecJob::Smt {
                a,
                b,
                scale,
                policy,
            } => {
                fn mk(p: &cestim_isa::Program) -> Simulator<'_> {
                    use cestim_core::SaturatingConfidence;
                    let mut s = Simulator::new(
                        p,
                        PipelineConfig::paper(),
                        crate::PredictorKind::Gshare.build_any(),
                    );
                    s.add_estimator(SaturatingConfidence::selected());
                    s
                }
                let wa = a.build(*scale);
                let wb = b.build(*scale);
                let mut smt = SmtSimulator::new(vec![mk(&wa.program), mk(&wb.program)], *policy);
                JobOutput::Smt(smt.run(u64::MAX))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorKind;
    use cestim_exec::{content_hash, Job};

    fn job(scale: u32) -> ExecJob {
        ExecJob::Run {
            cfg: RunConfig::paper(WorkloadKind::Compress, scale, PredictorKind::Gshare),
            specs: vec![EstimatorSpec::jrs_paper()],
        }
    }

    #[test]
    fn keys_are_stable_and_config_sensitive() {
        let a = job(1);
        assert_eq!(a.cache_key(), job(1).cache_key());
        assert_ne!(a.cache_key(), job(2).cache_key());
        // Re-serialization does not move the key.
        let text = a.content().to_string();
        let reparsed: serde::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(content_hash(&a.content()), content_hash(&reparsed));
    }

    #[test]
    fn outputs_round_trip_through_json() {
        let out = job(1).execute();
        let text = serde::to_value(&out).to_string();
        let back = JobOutput::from_value(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(back, out);
    }

    #[test]
    fn schema_salt_partitions_job_kinds() {
        let run = job(1);
        let boost = ExecJob::Boost {
            cfg: RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
            specs: vec![EstimatorSpec::jrs_paper()],
            max_k: 4,
        };
        assert_ne!(run.cache_key(), boost.cache_key());
    }
}
