//! Trace export, import-driven runs, and the conformance estimator set.
//!
//! Connects `cestim-trace-io` to the experiment layer:
//!
//! * [`export_config_trace`] — architectural trace of a [`RunConfig`]'s
//!   workload via the interpreter-driven exporter;
//! * [`capture_live_trace`] — the same trace captured from a live
//!   simulator pass through `Simulator::set_trace_capture` (the second,
//!   independent exporter the qa `trace` oracle diffs against the first);
//! * [`run_replay_live`] — a live pipeline pass in replay (stall) fetch
//!   mode, the reference semantics imported traces are replayed under;
//! * [`run_trace`] — a [`TraceSimulator`](cestim_pipeline::TraceSimulator)
//!   pass over imported records, producing a regular [`RunOutcome`];
//! * [`conformance_specs`] — the estimator set the differential
//!   conformance suite pins across predictors and run paths.
//!
//! The conformance contract: for any workload,
//! `run_trace(export_config_trace(cfg), ...)` and
//! `run_replay_live(cfg, ...)` produce bit-identical outcomes — stats,
//! quadrants, and every per-estimator SENS/SPEC/PVP/PVN derived from
//! them.

use crate::runner::{drive, Front};
use crate::{EstimatorSpec, PredictorKind, RunConfig, RunOutcome};
use cestim_pipeline::{NullObserver, PipelineConfig, Simulator};
use cestim_trace_io::{export_program, ExportError, TraceRecord};

/// Step budget for workload trace exports: generous enough for every
/// workload family at the scales the suite uses.
pub const EXPORT_MAX_STEPS: u64 = 2_000_000_000;

/// Exports the architectural branch trace of a run configuration's
/// workload with the interpreter-driven exporter.
///
/// The predictor and pipeline parts of `cfg` do not influence the trace
/// (the architectural stream is speculation-independent); only workload,
/// scale, and input salt do.
pub fn export_config_trace(cfg: &RunConfig) -> Result<Vec<TraceRecord>, ExportError> {
    let w = cfg.workload.build_salted(cfg.scale, cfg.input_salt);
    export_program(&w.program, EXPORT_MAX_STEPS)
}

/// Captures the same trace from a live simulator pass (normal squash-mode
/// fetch) via the pipeline's capture hook — committed records only, with
/// wrong-path records rewound on recovery.
///
/// Independent of [`export_config_trace`] by construction; the two must
/// agree record-for-record on any workload.
pub fn capture_live_trace(cfg: &RunConfig) -> Vec<TraceRecord> {
    let w = cfg.workload.build_salted(cfg.scale, cfg.input_salt);
    let mut sim = Simulator::new(&w.program, cfg.pipeline.clone(), cfg.predictor.build_any());
    sim.set_trace_capture(true);
    sim.run_to_completion();
    sim.take_captured_trace()
}

/// Runs one configuration live in replay (stall-on-mispredict) fetch
/// mode: fetch follows the actual path, mispredictions stall instead of
/// squashing. This is the reference semantics for imported-trace replay —
/// [`run_trace`] over the configuration's exported trace must reproduce
/// this outcome bit-for-bit.
///
/// Profile-needing estimators self-profile with a replay-mode pass, so
/// the profile matches what a trace-driven run would collect.
pub fn run_replay_live(cfg: &RunConfig, specs: &[EstimatorSpec]) -> RunOutcome {
    drive(
        Front::Replay(cfg),
        "sim.run",
        specs,
        None,
        &mut NullObserver,
    )
}

/// Replays imported trace records through the pipeline timing model with
/// the given predictor and estimators, producing a regular
/// [`RunOutcome`]. Profile-needing estimators self-profile with a
/// trace-driven pass over the same records.
pub fn run_trace(
    records: &[TraceRecord],
    predictor: PredictorKind,
    pipeline: &PipelineConfig,
    specs: &[EstimatorSpec],
) -> RunOutcome {
    let front = Front::Trace(records, predictor, pipeline);
    drive(front, "sim.run", specs, None, &mut NullObserver)
}

/// The estimator set the differential conformance suite pins: one of
/// every estimator family, including the profile-needing static
/// estimator, the resolve-time-stateful distance estimator, and a boosted
/// wrapper.
pub fn conformance_specs() -> Vec<EstimatorSpec> {
    vec![
        EstimatorSpec::jrs_paper(),
        EstimatorSpec::SatCtr {
            variant: crate::SatVariantSpec::Selected,
        },
        EstimatorSpec::Pattern { width: 12 },
        EstimatorSpec::Static { threshold: 0.9 },
        EstimatorSpec::Distance { threshold: 3 },
        EstimatorSpec::Cir {
            index_bits: 12,
            width: 16,
            threshold: 16,
            enhanced: true,
        },
        EstimatorSpec::JrsMcFarling {
            index_bits: 12,
            threshold: 15,
        },
        EstimatorSpec::Boosted {
            inner: Box::new(EstimatorSpec::SatCtr {
                variant: crate::SatVariantSpec::Selected,
            }),
            k: 2,
        },
        EstimatorSpec::Voting {
            components: vec![
                EstimatorSpec::SatCtr {
                    variant: crate::SatVariantSpec::Selected,
                },
                EstimatorSpec::Distance { threshold: 3 },
                EstimatorSpec::jrs_paper(),
            ],
            quorum: 2,
        },
        EstimatorSpec::Timing { threshold: 4 },
        EstimatorSpec::AlwaysLow,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_workloads::WorkloadKind;

    fn cfg() -> RunConfig {
        RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare)
    }

    #[test]
    fn exporters_agree_on_a_real_workload() {
        let c = cfg();
        let exported = export_config_trace(&c).unwrap();
        let captured = capture_live_trace(&c);
        assert_eq!(exported, captured);
        assert!(exported.len() > 10_000);
    }

    #[test]
    fn trace_replay_reproduces_the_live_replay_run() {
        let c = cfg();
        let trace = export_config_trace(&c).unwrap();
        let specs = conformance_specs();
        let live = run_replay_live(&c, &specs);
        let replayed = run_trace(&trace, c.predictor, &c.pipeline, &specs);
        assert_eq!(live, replayed);
        assert_eq!(replayed.estimators.len(), specs.len());
        assert_eq!(replayed.stats.squashed_insts, 0);
    }

    #[test]
    fn export_is_predictor_independent() {
        let mut c = cfg();
        let a = export_config_trace(&c).unwrap();
        c.predictor = PredictorKind::McFarling;
        assert_eq!(export_config_trace(&c).unwrap(), a);
    }
}
