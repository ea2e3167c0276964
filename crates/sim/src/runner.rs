//! Single-configuration experiment runner.

use crate::profile::ProfileObserver;
use crate::{EstimatorSpec, PredictorKind};
use cestim_core::ProfileCollector;
use cestim_obs::{span, MetricsSnapshot, Registry};
use cestim_pipeline::{
    EstimatorQuadrants, NullObserver, PipelineConfig, PipelineStats, SimObserver, Simulator,
    TraceSimulator,
};
use cestim_trace_io::TraceRecord;
use cestim_workloads::WorkloadKind;
use serde::{Deserialize, Serialize};

/// One (workload, scale, predictor, pipeline) configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunConfig {
    /// Which workload to simulate.
    pub workload: WorkloadKind,
    /// Workload scale (outer-loop iterations).
    pub scale: u32,
    /// Input salt (0 = the default "train" input; other values reseed the
    /// input generator — see [`WorkloadKind::build_salted`]).
    pub input_salt: u32,
    /// Branch predictor.
    pub predictor: PredictorKind,
    /// Pipeline parameters.
    pub pipeline: PipelineConfig,
}

impl RunConfig {
    /// The paper's pipeline configuration for a workload and predictor.
    pub fn paper(workload: WorkloadKind, scale: u32, predictor: PredictorKind) -> RunConfig {
        RunConfig {
            workload,
            scale,
            input_salt: 0,
            predictor,
            pipeline: PipelineConfig::paper(),
        }
    }

    /// The same configuration on an alternative input.
    pub fn with_input_salt(mut self, salt: u32) -> RunConfig {
        self.input_salt = salt;
        self
    }
}

/// Quadrants of one attached estimator after a run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstimatorResult {
    /// Estimator name (from its spec).
    pub name: String,
    /// All-branches and committed-branches quadrants.
    pub quadrants: EstimatorQuadrants,
}

/// Everything measured by one pipeline pass.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Pipeline counters.
    pub stats: PipelineStats,
    /// Per-estimator quadrants, in spec order.
    pub estimators: Vec<EstimatorResult>,
}

/// Builds a run's outcome, pairing each spec's label with the quadrants of
/// the estimator it built (attached in spec order).
fn outcome(
    stats: PipelineStats,
    specs: &[EstimatorSpec],
    quadrants: &[EstimatorQuadrants],
) -> RunOutcome {
    let estimators = specs
        .iter()
        .zip(quadrants)
        .map(|(spec, &quadrants)| EstimatorResult {
            name: spec.label(),
            quadrants,
        })
        .collect();
    RunOutcome { stats, estimators }
}

/// Where a pass fetches its instruction stream from.
#[derive(Clone, Copy)]
pub(crate) enum Front<'a> {
    /// The configuration's workload, fetched speculatively down wrong
    /// paths and squashed on recovery.
    Live(&'a RunConfig),
    /// The configuration's workload in replay (stall-on-mispredict) fetch
    /// mode; see [`run_replay_live`](crate::run_replay_live).
    Replay(&'a RunConfig),
    /// Imported trace records, replayed with this predictor and pipeline.
    Trace(&'a [TraceRecord], PredictorKind, &'a PipelineConfig),
}

/// The run driver: assembles every pass except [`run_instrumented`]'s and
/// `capture_live_trace`'s. If a spec needs a profile and `profile` is
/// `None`, a profiling pass over the same front runs first. The specs' estimators are then attached in order, and the
/// pass streams its events to `obs`. A [`Front::Live`] pass records the
/// ambient span `span`; the replay fronts record none.
pub(crate) fn drive<O: SimObserver + ?Sized>(
    front: Front<'_>,
    span: &'static str,
    specs: &[EstimatorSpec],
    profile: Option<&ProfileCollector>,
    obs: &mut O,
) -> RunOutcome {
    let own_profile;
    let profile = match profile {
        None if specs.iter().any(EstimatorSpec::needs_profile) => {
            own_profile = profile_pass(front);
            Some(&own_profile)
        }
        given => given,
    };
    let estimators = specs.iter().map(|spec| spec.build_any(profile));
    let (stats, quadrants) = match front {
        Front::Live(cfg) | Front::Replay(cfg) => {
            let replay = matches!(front, Front::Replay(_));
            let scale = cfg.scale.to_string();
            let _span =
                (!replay).then(|| span::AmbientSpan::enter(span, &span_labels(cfg, &scale)));
            let w = cfg.workload.build_salted(cfg.scale, cfg.input_salt);
            let mut sim =
                Simulator::new(&w.program, cfg.pipeline.clone(), cfg.predictor.build_any());
            sim.set_replay_fetch(replay);
            estimators.for_each(|e| _ = sim.add_estimator(e));
            (sim.run(obs), sim.estimator_quadrants().to_vec())
        }
        Front::Trace(records, predictor, pipeline) => {
            let mut sim = TraceSimulator::new(records, pipeline.clone(), predictor.build_any());
            estimators.for_each(|e| _ = sim.add_estimator(e));
            (sim.run(obs), sim.estimator_quadrants().to_vec())
        }
    };
    outcome(stats, specs, &quadrants)
}

/// The profiling pass over `front`: the same pipeline and predictor, no
/// estimators, recording per-branch prediction accuracy over the
/// committed stream.
fn profile_pass(front: Front<'_>) -> ProfileCollector {
    let mut obs = ProfileObserver::default();
    drive(front, "sim.profile", &[], None, &mut obs);
    obs.into_collector()
}

/// Runs the profiling pass: the same pipeline and predictor, recording
/// per-branch prediction accuracy over the committed stream.
pub fn collect_profile(cfg: &RunConfig) -> ProfileCollector {
    profile_pass(Front::Live(cfg))
}

/// Span labels identifying one run configuration.
fn span_labels<'a>(cfg: &'a RunConfig, scale: &'a str) -> [(&'a str, &'a str); 3] {
    [
        ("workload", cfg.workload.name()),
        ("predictor", cfg.predictor.name()),
        ("scale", scale),
    ]
}

/// Runs one configuration with the given estimators attached.
///
/// If any estimator needs a profile (the static technique), a profiling
/// pass with the same configuration is run first.
pub fn run(cfg: &RunConfig, specs: &[EstimatorSpec]) -> RunOutcome {
    drive(Front::Live(cfg), "sim.run", specs, None, &mut NullObserver)
}

/// Like [`run`], with an explicitly supplied profile for profile-based
/// estimators instead of the automatic self-profiling pass — the hook for
/// *cross-input* evaluation (train on one input salt, measure on another).
pub fn run_with_profile(
    cfg: &RunConfig,
    specs: &[EstimatorSpec],
    profile: &ProfileCollector,
) -> RunOutcome {
    drive(
        Front::Live(cfg),
        "sim.run",
        specs,
        Some(profile),
        &mut NullObserver,
    )
}

/// Like [`run`], additionally streaming pipeline events to `obs`.
pub fn run_with_observer(
    cfg: &RunConfig,
    specs: &[EstimatorSpec],
    obs: &mut dyn SimObserver,
) -> RunOutcome {
    drive(Front::Live(cfg), "sim.run", specs, None, obs)
}

/// Everything produced by one fully instrumented pipeline pass:
/// the regular [`RunOutcome`] plus the wall-clock time and a metrics
/// snapshot labelled by workload/predictor/scale.
#[derive(Debug)]
pub struct InstrumentedOutcome {
    /// Stats and per-estimator quadrants, as from [`run`].
    pub outcome: RunOutcome,
    /// Snapshot of every exported metric.
    pub metrics: MetricsSnapshot,
    /// Wall-clock seconds of the measurement pass.
    pub wall_seconds: f64,
}

/// Like [`run_with_observer`], with full observability: the pass is timed,
/// and stats and quadrants are exported to a metrics registry labelled
/// `workload`/`predictor`/`scale`. To record the event trace, pass a
/// `cestim_obs::Tracer` as (or teed through a `MultiObserver` into) `obs`.
///
/// Builds its own simulator rather than going through the shared driver:
/// the exported metrics label estimators by the simulator's estimator
/// names, which differ from [`EstimatorSpec::label`] for the tuned static
/// estimator.
pub fn run_instrumented(
    cfg: &RunConfig,
    specs: &[EstimatorSpec],
    obs: &mut dyn SimObserver,
) -> InstrumentedOutcome {
    let own_profile = specs
        .iter()
        .any(EstimatorSpec::needs_profile)
        .then(|| collect_profile(cfg));
    let scale = cfg.scale.to_string();
    let labels = span_labels(cfg, &scale);
    let _span = span::AmbientSpan::enter("sim.run", &labels);
    let w = cfg.workload.build_salted(cfg.scale, cfg.input_salt);
    let mut sim = Simulator::new(&w.program, cfg.pipeline.clone(), cfg.predictor.build_any());
    for spec in specs {
        sim.add_estimator(spec.build_any(own_profile.as_ref()));
    }
    let t0 = std::time::Instant::now();
    let stats = sim.run(obs);
    let wall_seconds = t0.elapsed().as_secs_f64();

    let registry = Registry::new();
    sim.export_metrics(&registry, &labels);

    InstrumentedOutcome {
        outcome: outcome(stats, specs, sim.estimator_quadrants()),
        metrics: registry.snapshot(),
        wall_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(p: PredictorKind) -> RunConfig {
        RunConfig::paper(WorkloadKind::Compress, 1, p)
    }

    #[test]
    fn run_produces_quadrants_for_every_spec() {
        let specs = EstimatorSpec::paper_set(PredictorKind::Gshare);
        let out = run(&cfg(PredictorKind::Gshare), &specs);
        assert_eq!(out.estimators.len(), 4);
        for e in &out.estimators {
            assert_eq!(e.quadrants.committed.total(), out.stats.committed_branches);
            assert_eq!(e.quadrants.all.total(), out.stats.fetched_branches);
        }
        assert_eq!(out.estimators[0].name, "jrs(4096x4b,t>=15,enh)");
    }

    #[test]
    fn static_estimator_profile_pass_is_automatic() {
        let out = run(
            &cfg(PredictorKind::Gshare),
            &[EstimatorSpec::Static { threshold: 0.9 }],
        );
        let q = out.estimators[0].quadrants.committed;
        // Self-profiled static estimation must separate the populations:
        // HC branches should be more accurate than LC branches.
        assert!(q.pvp() > 1.0 - q.pvn());
        assert!(q.sens() > 0.2 && q.sens() < 1.0);
    }

    #[test]
    fn profile_collection_matches_run_accuracy() {
        let c = cfg(PredictorKind::Gshare);
        let profile = collect_profile(&c);
        let out = run(&c, &[]);
        assert_eq!(profile.total(), out.stats.committed_branches);
    }

    #[test]
    fn instrumented_run_matches_plain_run_and_exports_metrics() {
        let c = cfg(PredictorKind::Gshare);
        let specs = [EstimatorSpec::jrs_paper()];
        let plain = run(&c, &specs);
        let mut tracer = cestim_obs::Tracer::unbounded();
        let inst = run_instrumented(&c, &specs, &mut tracer);
        // Instrumentation must not perturb the simulation itself.
        assert_eq!(inst.outcome.stats, plain.stats);
        assert_eq!(
            inst.outcome.estimators[0].quadrants,
            plain.estimators[0].quadrants
        );
        assert!(!tracer.is_empty());
        assert_eq!(tracer.dropped(), 0);
        assert_eq!(
            inst.metrics.counter_value("pipeline.cycles"),
            Some(plain.stats.cycles)
        );
        assert!(inst.metrics.float_value("pipeline.ipc").unwrap() > 0.0);
        assert!(inst.wall_seconds > 0.0);
        // Labels carried through to the snapshot.
        assert!(inst
            .metrics
            .get_labeled(
                "pipeline.cycles",
                &[
                    ("workload", "compress"),
                    ("predictor", "gshare"),
                    ("scale", "1")
                ]
            )
            .is_some());
    }

    #[test]
    fn ambient_span_context_captures_sim_runs() {
        use cestim_obs::span::{SpanCollector, SpanId};
        let c = cfg(PredictorKind::Gshare);
        let specs = [EstimatorSpec::Static { threshold: 0.9 }];
        let plain = run(&c, &specs);

        let collector = SpanCollector::new();
        let guard = span::set_ambient(&collector, SpanId::NONE, "main");
        let traced = run(&c, &specs);
        drop(guard);
        let recs = collector.drain();

        // Tracing must not perturb the simulation.
        assert_eq!(traced, plain);

        // The static estimator forces a profile pass, so both sim.profile
        // and sim.run appear: sibling roots with no children, since the
        // timing core records no spans of its own.
        let profile = recs.iter().find(|r| r.name == "sim.profile").unwrap();
        let run_span = recs.iter().find(|r| r.name == "sim.run").unwrap();
        assert!(run_span
            .labels
            .iter()
            .any(|(k, v)| k == "workload" && v == "compress"));
        assert!(run_span
            .labels
            .iter()
            .any(|(k, v)| k == "predictor" && v == "gshare"));
        assert_eq!(recs.len(), 2);
        for r in [profile, run_span] {
            assert_eq!(r.parent, SpanId::NONE, "{}", r.name);
            assert!(!recs.iter().any(|c| c.parent == r.id), "{}", r.name);
        }
        // The profile pass finishes before the measured run starts.
        assert!(profile.end_nanos <= run_span.start_nanos);

        // Without an ambient context nothing is recorded.
        let quiet = SpanCollector::new();
        run(&c, &specs);
        assert!(quiet.drain().is_empty());
    }

    #[test]
    fn all_three_paper_predictors_run() {
        for p in PredictorKind::paper_three() {
            let out = run(&cfg(p), &[EstimatorSpec::jrs_paper()]);
            assert!(out.stats.committed_branches > 10_000, "{p}");
            assert!(out.stats.accuracy_committed() > 0.7, "{p}");
        }
    }
}
