//! The paper's experiment suite: every table and figure, regenerated.
//!
//! Each function returns an [`ExperimentResult`] holding the experiment id
//! (the paper's table/figure number), a formatted text rendition of the
//! same rows/series the paper reports, and a JSON value for machine
//! consumption — or an [`ExperimentFailure`] naming the failed jobs of
//! the batch that stopped it. Every experiment submits its simulation
//! units to the [`Executor`] it is given (pass [`Executor::sequential`]
//! for a plain in-process run). One ordered table names the suite:
//! [`all_ids`] lists it and [`run_experiment_with`] dispatches by id. The
//! `repro` binary in `cestim-bench` is a thin CLI over this module.
//!
//! Absolute numbers will not match the paper (the workloads are synthetic
//! analogs and the pipeline is a reimplementation); the *shapes* — metric
//! orderings between estimators, threshold trends, clustering decay, the
//! enhanced-JRS win — are the reproduction targets, recorded in
//! `EXPERIMENTS.md`.

use crate::jobs::{DistanceBundle, ExecJob, JobOutput};
use crate::spec::{SatVariantSpec, TuneTargetSpec};
use crate::PredictorKind::{Gshare, McFarling};
use crate::{pct, EstimatorSpec, PredictorKind, RunConfig, Table};
use cestim_core::diagnostic::ParametricCurve;
use cestim_core::{mean_quadrant, KRun, MetricSummary, Quadrant};
use cestim_exec::{Executor, JobError};
use cestim_obs::cancel::payload_message;
use cestim_trace::{BoostAnalysis, ClusterAnalysis, DistanceHistogram, DistanceSeries};
use cestim_workloads::WorkloadKind;
use serde_json::{json, Value};

/// Output of one regenerated table or figure.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Experiment id ("table2", "fig6", ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Formatted text (the paper's rows/series).
    pub text: String,
    /// Machine-readable results.
    pub json: Value,
}

/// What an experiment yields: its result, or the manifest of the failure
/// that stopped it (whose `id` [`run_experiment_checked`] fills in).
pub type Outcome = Result<ExperimentResult, ExperimentFailure>;

/// One experiment: runs at a workload scale, submitting every simulation
/// unit to the executor.
type Experiment = fn(&Executor, u32) -> Outcome;

/// The full suite, in `repro all` order: the paper's tables/figures,
/// followed by the extension experiments (`ext-*`) implementing the
/// paper's §5 future work and adjacent design-space completions.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig1", |_, _| Ok(fig1())),
    ("table1", |x, s| table1_on(x, s, ALL)),
    ("table2", |x, s| table2_on(x, s, ALL)),
    ("table2-detail", |x, s| table2_detail_on(x, s, ALL)),
    ("fig3", |x, s| fig3_on(x, s, ALL)),
    ("fig4", |x, s| fig45_on(x, s, ALL, Gshare, "fig4")),
    ("fig5", |x, s| fig45_on(x, s, ALL, McFarling, "fig5")),
    ("table3", |x, s| table3_on(x, s, ALL)),
    ("fig6", |x, s| {
        distance_fig_on(x, s, ALL, Gshare, false, "fig6")
    }),
    ("fig7", |x, s| {
        distance_fig_on(x, s, ALL, McFarling, false, "fig7")
    }),
    ("fig8", |x, s| {
        distance_fig_on(x, s, ALL, Gshare, true, "fig8")
    }),
    ("fig9", |x, s| {
        distance_fig_on(x, s, ALL, McFarling, true, "fig9")
    }),
    ("table4", |x, s| table4_on(x, s, ALL)),
    ("cluster", |x, s| cluster_on(x, s, ALL)),
    ("boost", |x, s| boost_on(x, s, ALL)),
    ("ext-jrsmcf", |x, s| ext_jrsmcf_on(x, s, ALL)),
    ("ext-cir", |x, s| ext_cir_on(x, s, ALL)),
    ("ext-tune", |x, s| ext_tune_on(x, s, ALL)),
    ("ext-smt", |x, s| ext_smt_on(x, s, SMT_PAIRS)),
    ("ext-eager", |x, s| ext_eager_on(x, s, ALL)),
    ("ext-xinput", |x, s| ext_xinput_on(x, s, ALL)),
    ("ext-modern", |x, s| ext_modern_on(x, s, ALL)),
    ("ext-predictability", |x, s| {
        ext_predictability_on(x, s, ALL)
    }),
];

/// The suite's workload set: every analog.
const ALL: &[WorkloadKind] = &WorkloadKind::all();

/// The suite's SMT thread pairs.
const SMT_PAIRS: &[(WorkloadKind, WorkloadKind)] = &[
    (WorkloadKind::Go, WorkloadKind::Ijpeg),
    (WorkloadKind::Gcc, WorkloadKind::Vortex),
    (WorkloadKind::Go, WorkloadKind::Gcc),
];

/// All experiment ids, in suite order.
pub fn all_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

fn lookup(id: &str) -> Option<Experiment> {
    EXPERIMENTS
        .iter()
        .find(|&&(known, _)| known == id)
        .map(|&(_, run)| run)
}

/// Runs one experiment by id at the given workload scale, submitting
/// every simulation unit to `exec`. Returns `None` for unknown ids.
///
/// Output is identical regardless of worker count or cache state (jobs
/// merge in submission order and cache bit-exact payloads); pass
/// [`Executor::sequential`] for a plain in-process run.
///
/// # Panics
///
/// Panics with the failure manifest when the experiment fails; callers
/// that carry on past a failure use [`run_experiment_checked`].
pub fn run_experiment_with(exec: &Executor, id: &str, scale: u32) -> Option<ExperimentResult> {
    run_experiment_checked(exec, id, scale).map(|r| r.unwrap_or_else(|f| panic!("{f}")))
}

/// Structured failure manifest for one experiment: which jobs failed (with
/// cache-key provenance and final errors) when a batch could not complete.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentFailure {
    /// The experiment id that failed ("table2", "fig6", ...).
    pub id: String,
    /// One-line summary ("3/24 jobs failed", or what went wrong outside
    /// the executor).
    pub message: String,
    /// Per-job structured errors, in submission order (empty when the
    /// experiment failed outside the executor).
    pub errors: Vec<JobError>,
}

impl std::fmt::Display for ExperimentFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "experiment `{}` failed: {}", self.id, self.message)?;
        for e in &self.errors {
            write!(f, "\n    {e}")?;
        }
        Ok(())
    }
}

/// A failure raised outside the executor: a message, no job errors.
fn failed(message: String) -> ExperimentFailure {
    ExperimentFailure {
        id: String::new(),
        message,
        errors: Vec::new(),
    }
}

/// Error-aware variant of [`run_experiment_with`]: a failed batch comes
/// back as a structured [`ExperimentFailure`] manifest, so a suite run
/// completes its remaining experiments. A panic outside the executor (a
/// bug in an experiment body) is caught and reported the same way.
///
/// Returns `None` for unknown ids. The executor still completes and
/// caches every non-faulted job inside a failed experiment, so a retried
/// or resumed run only re-executes the failures.
pub fn run_experiment_checked(exec: &Executor, id: &str, scale: u32) -> Option<Outcome> {
    let run = lookup(id)?;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(exec, scale)))
        .unwrap_or_else(|payload| Err(failed(payload_message(payload.as_ref()))));
    Some(outcome.map_err(|f| ExperimentFailure {
        id: id.to_string(),
        ..f
    }))
}

// ---------------------------------------------------------------------------
// shared plumbing
// ---------------------------------------------------------------------------

/// Runs one batch: every output, unpacked by `unpack`, in submission
/// order — or the manifest ("k/n jobs failed", the errors in submission
/// order) if any job failed.
fn run_batch<T>(
    exec: &Executor,
    jobs: &[ExecJob],
    unpack: impl Fn(JobOutput) -> T,
) -> Result<Vec<T>, ExperimentFailure> {
    let results = exec.run_all_checked(jobs);
    let errors: Vec<JobError> = results
        .iter()
        .filter_map(|r| r.as_ref().err().cloned())
        .collect();
    if errors.is_empty() {
        return Ok(results.into_iter().flatten().map(unpack).collect());
    }
    let message = format!("{}/{} jobs failed", errors.len(), jobs.len());
    Err(ExperimentFailure {
        errors,
        ..failed(message)
    })
}

/// Per-estimator committed quadrants for one predictor over many workloads.
struct Matrix {
    names: Vec<String>,
    /// `[estimator][workload]` committed quadrants.
    committed: Vec<Vec<Quadrant>>,
}

fn run_matrix(
    exec: &Executor,
    predictor: PredictorKind,
    specs: &[EstimatorSpec],
    workloads: &[WorkloadKind],
    scale: u32,
) -> Result<Matrix, ExperimentFailure> {
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .map(|&w| ExecJob::Run {
            cfg: RunConfig::paper(w, scale, predictor),
            specs: specs.to_vec(),
        })
        .collect();
    let mut committed = vec![Vec::new(); specs.len()];
    for out in run_batch(exec, &jobs, JobOutput::into_run)? {
        for (i, e) in out.estimators.iter().enumerate() {
            committed[i].push(e.quadrants.committed);
        }
    }
    Ok(Matrix {
        names: specs.iter().map(EstimatorSpec::label).collect(),
        committed,
    })
}

/// One row per estimator of `m` with its committed metrics averaged over
/// the workloads: the text table titled `title` and its JSON rows.
fn mean_rows(title: impl Into<String>, m: &Matrix) -> (Table, Vec<Value>) {
    let mut t = Table::new(title, vec!["estimator", "sens", "spec", "pvp", "pvn"]);
    let mut jrows = Vec::new();
    for (name, quads) in m.names.iter().zip(&m.committed) {
        let s = mean_quadrant(quads);
        metric_row(&mut t, vec![name.clone()], &[&s]);
        jrows.push(json!({ "estimator": name, "metrics": summary_json(&s) }));
    }
    (t, jrows)
}

fn summary_json(m: &MetricSummary) -> Value {
    json!({
        "sens": m.sens, "spec": m.spec, "pvp": m.pvp, "pvn": m.pvn,
        "accuracy": m.accuracy,
    })
}

fn metric_cells(m: &MetricSummary) -> Vec<String> {
    vec![pct(m.sens), pct(m.spec), pct(m.pvp), pct(m.pvn)]
}

/// A table row: the `lead` cells, then each summary's four metrics.
fn metric_row(t: &mut Table, mut lead: Vec<String>, summaries: &[&MetricSummary]) {
    for s in summaries {
        lead.extend(metric_cells(s));
    }
    t.row(lead);
}

// ---------------------------------------------------------------------------
// Figure 1 — analytic diagnostic curves
// ---------------------------------------------------------------------------

/// Figure 1: parametric PVP/PVN curves as SENS, SPEC and accuracy vary.
pub fn fig1() -> ExperimentResult {
    let curves = ParametricCurve::figure1(100);
    let mut text = String::new();
    let mut jcurves = Vec::new();
    for c in &curves {
        let label = match c.swept {
            cestim_core::diagnostic::SweptParameter::Sens => {
                format!("vary SENS (SPEC={:.2}, p={:.2})", c.spec, c.accuracy)
            }
            cestim_core::diagnostic::SweptParameter::Spec => {
                format!("vary SPEC (SENS={:.2}, p={:.2})", c.sens, c.accuracy)
            }
            cestim_core::diagnostic::SweptParameter::Accuracy => {
                format!("vary p (SENS={:.2}, SPEC={:.2})", c.sens, c.spec)
            }
        };
        let mut t = Table::new(label.clone(), vec!["param", "pvp", "pvn"]);
        for p in c.points.iter().filter(|p| p.decile) {
            t.row(vec![format!("{:.1}", p.param), pct(p.pvp), pct(p.pvn)]);
        }
        text.push_str(&format!("{t}\n"));
        jcurves.push(json!({
            "label": label,
            "points": c.points.iter().map(|p| json!([p.param, p.pvp, p.pvn])).collect::<Vec<_>>(),
        }));
    }
    ExperimentResult {
        id: "fig1".into(),
        title: "Figure 1: PVP/PVN as functions of SENS, SPEC and prediction accuracy".into(),
        text,
        json: json!({ "curves": jcurves }),
    }
}

// ---------------------------------------------------------------------------
// Table 1 — program characteristics
// ---------------------------------------------------------------------------

/// Table 1: program characteristics of each workload.
pub fn table1_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let mut t = Table::new(
        "Table 1: program characteristics",
        vec![
            "application",
            "inst (M)",
            "cond br (K)",
            "acc gshare",
            "acc mcf",
            "acc sag",
            "all inst (M)",
            "all/committed",
        ],
    );
    let mut rows_json = Vec::new();
    let mut acc_sums = [0.0f64; 3];
    let mut ratio_sum = 0.0;
    let preds = PredictorKind::paper_three();
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .flat_map(|&w| {
            preds.iter().map(move |&p| ExecJob::Run {
                cfg: RunConfig::paper(w, scale, p),
                specs: Vec::new(),
            })
        })
        .collect();
    let stats = run_batch(exec, &jobs, |out| out.into_run().stats)?;
    for (&w, by_pred) in workloads.iter().zip(stats.chunks_exact(preds.len())) {
        let g = &by_pred[0];
        let accs: Vec<f64> = by_pred.iter().map(|s| s.accuracy_committed()).collect();
        for (a, &v) in acc_sums.iter_mut().zip(&accs) {
            *a += v;
        }
        ratio_sum += g.speculation_ratio();
        t.row(vec![
            w.name().into(),
            format!("{:.2}", g.committed_insts as f64 / 1e6),
            format!("{:.1}", g.committed_branches as f64 / 1e3),
            pct(accs[0]),
            pct(accs[1]),
            pct(accs[2]),
            format!("{:.2}", g.fetched_insts as f64 / 1e6),
            format!("{:.2}", g.speculation_ratio()),
        ]);
        rows_json.push(json!({
            "workload": w.name(),
            "committed_insts": g.committed_insts,
            "committed_branches": g.committed_branches,
            "fetched_insts": g.fetched_insts,
            "ratio": g.speculation_ratio(),
            "accuracy": { "gshare": accs[0], "mcfarling": accs[1], "sag": accs[2] },
        }));
    }
    let n = workloads.len() as f64;
    t.row(vec![
        "mean".into(),
        "".into(),
        "".into(),
        pct(acc_sums[0] / n),
        pct(acc_sums[1] / n),
        pct(acc_sums[2] / n),
        "".into(),
        format!("{:.2}", ratio_sum / n),
    ]);
    Ok(ExperimentResult {
        id: "table1".into(),
        title: "Table 1: program characteristics".into(),
        text: t.to_string(),
        json: json!({ "rows": rows_json }),
    })
}

// ---------------------------------------------------------------------------
// Table 2 — four estimators × three predictors
// ---------------------------------------------------------------------------

/// Table 2: the paper's four estimators on each of its three predictors.
pub fn table2_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let mut text = String::new();
    let mut jpred = Vec::new();
    for p in PredictorKind::paper_three() {
        let specs = EstimatorSpec::paper_set(p);
        let m = run_matrix(exec, p, &specs, workloads, scale)?;
        let (t, jrows) = mean_rows(format!("Table 2 ({p} predictor)"), &m);
        text.push_str(&format!("{t}\n"));
        jpred.push(json!({ "predictor": p.name(), "rows": jrows }));
    }
    Ok(ExperimentResult {
        id: "table2".into(),
        title: "Table 2: confidence estimators across branch predictors".into(),
        text,
        json: json!({ "predictors": jpred }),
    })
}

// ---------------------------------------------------------------------------
// Figure 3 — enhanced vs base JRS
// ---------------------------------------------------------------------------

/// Figure 3: enhanced vs base JRS indexing across thresholds.
pub fn fig3_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let thresholds: Vec<u8> = (1..=16).collect();
    let mut specs = Vec::new();
    for &enhanced in &[false, true] {
        for &t in &thresholds {
            specs.push(EstimatorSpec::Jrs {
                index_bits: 12,
                threshold: t,
                enhanced,
            });
        }
    }
    let m = run_matrix(exec, PredictorKind::Gshare, &specs, workloads, scale)?;
    let mut text = String::new();
    let mut jvariants = Vec::new();
    let by_variant = m.committed.chunks_exact(thresholds.len());
    for (label, by_threshold) in ["base", "enhanced"].iter().zip(by_variant) {
        let mut t = Table::new(
            format!("Figure 3: JRS {label} indexing (gshare)"),
            vec!["threshold", "sens", "spec", "pvp", "pvn"],
        );
        let mut jpoints = Vec::new();
        for (&thr, quads) in thresholds.iter().zip(by_threshold) {
            let s = mean_quadrant(quads);
            metric_row(&mut t, vec![thr.to_string()], &[&s]);
            jpoints.push(json!({ "threshold": thr, "metrics": summary_json(&s) }));
        }
        text.push_str(&format!("{t}\n"));
        jvariants.push(json!({ "variant": label, "points": jpoints }));
    }
    Ok(ExperimentResult {
        id: "fig3".into(),
        title: "Figure 3: enhanced vs base JRS indexing".into(),
        text,
        json: json!({ "variants": jvariants }),
    })
}

// ---------------------------------------------------------------------------
// Figures 4 & 5 — JRS design space
// ---------------------------------------------------------------------------

/// Figures 4/5: the JRS design space (table size × threshold) on
/// `predictor`; `id` names the figure.
pub fn fig45_on(
    exec: &Executor,
    scale: u32,
    workloads: &[WorkloadKind],
    predictor: PredictorKind,
    id: &str,
) -> Outcome {
    let sizes: [u32; 4] = [6, 8, 10, 12]; // 64 .. 4096 entries
    let thresholds: Vec<u8> = (1..=16).collect();
    let mut specs = Vec::new();
    for &bits in &sizes {
        for &t in &thresholds {
            specs.push(EstimatorSpec::Jrs {
                index_bits: bits,
                threshold: t,
                enhanced: true,
            });
        }
    }
    let m = run_matrix(exec, predictor, &specs, workloads, scale)?;
    let mut text = String::new();
    let mut jsizes = Vec::new();
    for (&bits, by_threshold) in sizes.iter().zip(m.committed.chunks_exact(thresholds.len())) {
        let mut t = Table::new(
            format!("{id}: JRS {} entries ({predictor})", 1u32 << bits),
            vec!["threshold", "pvp", "pvn"],
        );
        let mut jpoints = Vec::new();
        for (&thr, quads) in thresholds.iter().zip(by_threshold) {
            let s = mean_quadrant(quads);
            t.row(vec![thr.to_string(), pct(s.pvp), pct(s.pvn)]);
            jpoints.push(json!({ "threshold": thr, "pvp": s.pvp, "pvn": s.pvn }));
        }
        text.push_str(&format!("{t}\n"));
        jsizes.push(json!({ "entries": 1u32 << bits, "points": jpoints }));
    }
    Ok(ExperimentResult {
        id: id.into(),
        title: format!("{id}: JRS design space on {predictor}"),
        text,
        json: json!({ "predictor": predictor.name(), "sizes": jsizes }),
    })
}

// ---------------------------------------------------------------------------
// Table 3 — BothStrong vs EitherStrong
// ---------------------------------------------------------------------------

/// Table 3: the BothStrong and EitherStrong saturating-counter variants.
pub fn table3_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let specs = [
        EstimatorSpec::SatCtr {
            variant: SatVariantSpec::BothStrong,
        },
        EstimatorSpec::SatCtr {
            variant: SatVariantSpec::EitherStrong,
        },
    ];
    let m = run_matrix(exec, PredictorKind::McFarling, &specs, workloads, scale)?;
    let mut t = Table::new(
        "Table 3: saturating-counter variants on McFarling",
        vec![
            "application",
            "BS sens",
            "BS spec",
            "BS pvp",
            "BS pvn",
            "ES sens",
            "ES spec",
            "ES pvp",
            "ES pvn",
        ],
    );
    let mut jrows = Vec::new();
    for (wi, &w) in workloads.iter().enumerate() {
        let bs = MetricSummary::from_quadrant(&m.committed[0][wi]);
        let es = MetricSummary::from_quadrant(&m.committed[1][wi]);
        metric_row(&mut t, vec![w.name().to_string()], &[&bs, &es]);
        jrows.push(json!({
            "workload": w.name(),
            "both_strong": summary_json(&bs),
            "either_strong": summary_json(&es),
        }));
    }
    let bs = mean_quadrant(&m.committed[0]);
    let es = mean_quadrant(&m.committed[1]);
    metric_row(&mut t, vec!["mean".to_string()], &[&bs, &es]);
    Ok(ExperimentResult {
        id: "table3".into(),
        title: "Table 3: Both-Strong vs Either-Strong".into(),
        text: t.to_string(),
        json: json!({
            "rows": jrows,
            "mean": { "both_strong": summary_json(&bs), "either_strong": summary_json(&es) },
        }),
    })
}

// ---------------------------------------------------------------------------
// Figures 6–9 — misprediction distance
// ---------------------------------------------------------------------------

const DIST_BUCKETS: u64 = 64;

fn merged_distance(
    exec: &Executor,
    scale: u32,
    workloads: &[WorkloadKind],
    predictor: PredictorKind,
) -> Result<DistanceBundle, ExperimentFailure> {
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .map(|&w| ExecJob::Distance {
            cfg: RunConfig::paper(w, scale, predictor),
            buckets: DIST_BUCKETS,
        })
        .collect();
    let bundles = run_batch(exec, &jobs, JobOutput::into_distance)?;
    let merged = bundles.into_iter().reduce(|mut acc, b| {
        acc.merge(&b);
        acc
    });
    Ok(merged.expect("at least one workload"))
}

/// Figures 6–9: misprediction rate vs distance on `predictor`,
/// `perceived` selecting resolution-time (Figs 8–9) rather than omniscient
/// (Figs 6–7) reset points; `id` names the figure.
pub fn distance_fig_on(
    exec: &Executor,
    scale: u32,
    workloads: &[WorkloadKind],
    predictor: PredictorKind,
    perceived: bool,
    id: &str,
) -> Outcome {
    let analysis = merged_distance(exec, scale, workloads, predictor)?;
    let (all_series, committed_series) = if perceived {
        (
            analysis.series(DistanceSeries::PerceivedAll),
            analysis.series(DistanceSeries::PerceivedCommitted),
        )
    } else {
        (
            analysis.series(DistanceSeries::PreciseAll),
            analysis.series(DistanceSeries::PreciseCommitted),
        )
    };
    let kind = if perceived { "perceived" } else { "precise" };
    let mut t = Table::new(
        format!("{id}: {kind} misprediction distance ({predictor})"),
        vec![
            "distance",
            "all: rate",
            "all: n",
            "committed: rate",
            "committed: n",
        ],
    );
    let (rows_a, avg_a) = (all_series.series(), all_series.average_rate());
    let (rows_c, avg_c) = (committed_series.series(), committed_series.average_rate());
    let show: Vec<u64> = (1..=16).chain([20, 24, 32, 48, 64]).collect();
    for d in show {
        t.row(vec![
            if d == DIST_BUCKETS {
                format!(">={d}")
            } else {
                d.to_string()
            },
            pct(all_series.rate(d)),
            all_series.count(d).to_string(),
            pct(committed_series.rate(d)),
            committed_series.count(d).to_string(),
        ]);
    }
    let mut text = t.to_string();
    text.push_str(&format!(
        "average: all {}  committed {}\n",
        pct(avg_a),
        pct(avg_c)
    ));
    Ok(ExperimentResult {
        id: id.into(),
        title: format!("{id}: {kind} misprediction distance on {predictor}"),
        text,
        json: json!({
            "predictor": predictor.name(),
            "kind": kind,
            "all": { "series": rows_a, "average": avg_a },
            "committed": { "series": rows_c, "average": avg_c },
        }),
    })
}

// ---------------------------------------------------------------------------
// Table 4 — the distance estimator
// ---------------------------------------------------------------------------

/// Table 4: the distance estimator vs the table-based estimators.
pub fn table4_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let mut t = Table::new(
        "Table 4: misprediction distance as a confidence estimator",
        vec!["estimator", "predictor", "sens", "spec", "pvp", "pvn"],
    );
    let mut jrows = Vec::new();
    for p in [PredictorKind::Gshare, PredictorKind::McFarling] {
        let mut specs = vec![
            EstimatorSpec::jrs_paper(),
            EstimatorSpec::SatCtr {
                variant: if p == PredictorKind::McFarling {
                    SatVariantSpec::BothStrong
                } else {
                    SatVariantSpec::Selected
                },
            },
            EstimatorSpec::Static { threshold: 0.9 },
        ];
        for d in 1..=7 {
            specs.push(EstimatorSpec::Distance { threshold: d });
        }
        let m = run_matrix(exec, p, &specs, workloads, scale)?;
        for (name, quads) in m.names.iter().zip(&m.committed) {
            let s = mean_quadrant(quads);
            metric_row(&mut t, vec![name.clone(), p.name().to_string()], &[&s]);
            jrows.push(json!({
                "estimator": name, "predictor": p.name(), "metrics": summary_json(&s),
            }));
        }
    }
    // The paper's final row: pattern history on SAg for comparison.
    let m = run_matrix(
        exec,
        PredictorKind::SAg,
        &[EstimatorSpec::Pattern { width: 13 }],
        workloads,
        scale,
    )?;
    let s = mean_quadrant(&m.committed[0]);
    metric_row(&mut t, vec![m.names[0].clone(), "sag".to_string()], &[&s]);
    jrows.push(json!({
        "estimator": m.names[0], "predictor": "sag", "metrics": summary_json(&s),
    }));

    Ok(ExperimentResult {
        id: "table4".into(),
        title: "Table 4: distance estimator vs table-based estimators".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

// ---------------------------------------------------------------------------
// §4.1 clustering of mis-estimations
// ---------------------------------------------------------------------------

/// Mis-estimation clustering (§4.1).
pub fn cluster_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let configs: Vec<(PredictorKind, EstimatorSpec, &str)> = vec![
        (
            PredictorKind::Gshare,
            EstimatorSpec::jrs_paper(),
            "jrs/gshare",
        ),
        (
            PredictorKind::McFarling,
            EstimatorSpec::jrs_paper(),
            "jrs/mcfarling",
        ),
        (
            PredictorKind::McFarling,
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::BothStrong,
            },
            "satctr/mcfarling",
        ),
    ];
    let mut t = Table::new(
        "Mis-estimation clustering (§4.1)",
        vec!["config", "rate@1", "rate@4", "rate>8", "average"],
    );
    let mut jrows = Vec::new();
    let mut jobs = Vec::new();
    for (p, spec, _) in &configs {
        for &w in workloads {
            jobs.push(ExecJob::Cluster {
                cfg: RunConfig::paper(w, scale, *p),
                spec: spec.clone(),
                buckets: 32,
            });
        }
    }
    let hists = run_batch(exec, &jobs, JobOutput::into_cluster)?;
    for ((_, _, label), by_workload) in configs.iter().zip(hists.chunks_exact(workloads.len())) {
        let mut merged = DistanceHistogram::new(32);
        for h in by_workload {
            merged.merge(h);
        }
        let summary = ClusterAnalysis::summary_of(&merged);
        t.row(vec![
            label.to_string(),
            pct(summary.rate_at_1),
            pct(summary.rate_at_4),
            pct(summary.rate_beyond_8),
            pct(summary.average),
        ]);
        jrows.push(json!({
            "config": label,
            "rate_at_1": summary.rate_at_1,
            "rate_at_4": summary.rate_at_4,
            "rate_beyond_8": summary.rate_beyond_8,
            "average": summary.average,
        }));
    }
    Ok(ExperimentResult {
        id: "cluster".into(),
        title: "Mis-estimation clustering".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

// ---------------------------------------------------------------------------
// §4.2 boosting
// ---------------------------------------------------------------------------

/// Boosting (§4.2): measured `P[≥1 misprediction | k consecutive LC]`
/// vs the Bernoulli model `1 − (1 − PVN)^k`, plus the per-branch behaviour
/// of the [`Boosted`](cestim_core::Boosted) estimator transform (whose
/// coverage shrinks as k rises).
pub fn boost_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let base = EstimatorSpec::SatCtr {
        variant: SatVariantSpec::Selected,
    };
    // Attach the base estimator plus the per-branch boosted transforms, and
    // observe windows with BoostAnalysis over the base estimator (index 0).
    let mut specs = vec![base.clone()];
    for k in 2..=4 {
        specs.push(EstimatorSpec::Boosted {
            inner: Box::new(base.clone()),
            k,
        });
    }
    // One job per workload, each with a fresh window observer; the counts
    // merge afterwards. (LC runs therefore reset at workload boundaries —
    // windows never span two different programs.)
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .map(|&w| ExecJob::Boost {
            cfg: RunConfig::paper(w, scale, PredictorKind::Gshare),
            specs: specs.clone(),
            max_k: 4,
        })
        .collect();
    let mut windows = BoostAnalysis::new(0, 4);
    let mut committed: Vec<Vec<Quadrant>> = vec![Vec::new(); specs.len()];
    for (outcome, counts) in run_batch(exec, &jobs, JobOutput::into_boost)? {
        windows.absorb_counts(&counts);
        for (i, e) in outcome.estimators.iter().enumerate() {
            committed[i].push(e.quadrants.committed);
        }
    }
    let base_pvn = mean_quadrant(&committed[0]).pvn;
    let mut t = Table::new(
        "Boosting low-confidence estimates (§4.2, gshare + satctr)",
        vec![
            "k",
            "windows",
            "measured P[>=1 wrong]",
            "bernoulli model",
            "transform coverage",
        ],
    );
    let mut jrows = Vec::new();
    for k in 1..=4u32 {
        let measured = windows.boosted_pvn(k);
        let model = KRun::bernoulli_pvn(base_pvn, k);
        // Coverage of the per-branch Boosted transform at this k (k=1 is
        // the base estimator itself).
        let cov: f64 = {
            let quads = &committed[(k - 1) as usize];
            let f: Vec<[f64; 4]> = quads.iter().map(Quadrant::fractions).collect();
            f.iter().map(|x| x[2] + x[3]).sum::<f64>() / f.len() as f64
        };
        t.row(vec![
            k.to_string(),
            windows.windows(k).to_string(),
            pct(measured),
            pct(model),
            pct(cov),
        ]);
        jrows.push(json!({
            "k": k,
            "windows": windows.windows(k),
            "measured": measured,
            "model": model,
            "transform_coverage": cov,
        }));
    }
    Ok(ExperimentResult {
        id: "boost".into(),
        title: "Boosting: measured vs Bernoulli model".into(),
        text: t.to_string(),
        json: json!({ "base_pvn": base_pvn, "rows": jrows }),
    })
}

// ---------------------------------------------------------------------------
// Extensions (the paper's §5 future work and design-space completions)
// ---------------------------------------------------------------------------

/// Extension: the McFarling-structured JRS (§5 future work) vs the plain
/// enhanced JRS, on the McFarling predictor, across thresholds.
pub fn ext_jrsmcf_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let thresholds: [u8; 4] = [4, 8, 12, 15];
    let mut specs = Vec::new();
    for &t in &thresholds {
        specs.push(EstimatorSpec::Jrs {
            index_bits: 12,
            threshold: t,
            enhanced: true,
        });
        specs.push(EstimatorSpec::JrsMcFarling {
            index_bits: 12,
            threshold: t,
        });
    }
    let m = run_matrix(exec, PredictorKind::McFarling, &specs, workloads, scale)?;
    let (t, jrows) = mean_rows(
        "Extension: structure-aware JRS on McFarling (paper §5 future work)",
        &m,
    );
    Ok(ExperimentResult {
        id: "ext-jrsmcf".into(),
        title: "Extension: JRS specialized for the McFarling predictor".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// Extension: correct/incorrect registers (Jacobsen et al.'s other
/// one-level design) vs the resetting-counter JRS, on gshare.
pub fn ext_cir_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let specs = vec![
        EstimatorSpec::jrs_paper(),
        EstimatorSpec::Cir {
            index_bits: 12,
            width: 16,
            threshold: 16,
            enhanced: true,
        },
        EstimatorSpec::Cir {
            index_bits: 12,
            width: 16,
            threshold: 14,
            enhanced: true,
        },
        EstimatorSpec::Cir {
            index_bits: 12,
            width: 8,
            threshold: 8,
            enhanced: true,
        },
    ];
    let m = run_matrix(exec, PredictorKind::Gshare, &specs, workloads, scale)?;
    let (t, jrows) = mean_rows(
        "Extension: resetting counters (JRS) vs correct/incorrect registers (CIR), gshare",
        &m,
    );
    Ok(ExperimentResult {
        id: "ext-cir".into(),
        title: "Extension: CIR vs JRS one-level estimators".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// Extension: tuned static estimation (§5 future work) — pick thresholds
/// meeting SPEC/PVN targets on the profile and verify the measured run
/// lands on target.
pub fn ext_tune_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let targets = [
        ("spec>=85%", TuneTargetSpec::MinSpec(0.85)),
        ("spec>=95%", TuneTargetSpec::MinSpec(0.95)),
        ("pvn>=25%", TuneTargetSpec::MinPvn(0.25)),
        ("pvn>=35%", TuneTargetSpec::MinPvn(0.35)),
    ];
    let specs: Vec<EstimatorSpec> = targets
        .iter()
        .map(|&(_, target)| EstimatorSpec::StaticTuned { target })
        .collect();
    let mut t = Table::new(
        "Extension: tuned static estimation (per-workload, gshare)",
        vec![
            "workload",
            "target",
            "sens",
            "spec",
            "pvp",
            "pvn",
            "on target",
        ],
    );
    let mut jrows = Vec::new();
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .map(|&w| ExecJob::Run {
            cfg: RunConfig::paper(w, scale, PredictorKind::Gshare),
            specs: specs.clone(),
        })
        .collect();
    for (&w, out) in workloads
        .iter()
        .zip(run_batch(exec, &jobs, JobOutput::into_run)?)
    {
        for ((label, target), e) in targets.iter().zip(&out.estimators) {
            let q = e.quadrants.committed;
            let met = match target {
                TuneTargetSpec::MinSpec(v) => q.spec() >= *v - 1e-9,
                TuneTargetSpec::MinPvn(v) => q.pvn() >= *v - 1e-9 || q.c_lc + q.i_lc == 0,
            };
            let s = MetricSummary::from_quadrant(&q);
            let mut cells = vec![w.name().to_string(), label.to_string()];
            cells.extend(metric_cells(&s));
            cells.push(if met {
                "yes".into()
            } else {
                "NO (unreachable)".into()
            });
            t.row(cells);
            jrows.push(json!({
                "workload": w.name(), "target": label, "met": met,
                "metrics": summary_json(&s),
            }));
        }
    }
    Ok(ExperimentResult {
        id: "ext-tune".into(),
        title: "Extension: tuning static estimation to SPEC/PVN targets".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// Extension: confidence-driven SMT fetch arbitration, measured on the real
/// two-thread [`SmtSimulator`](cestim_pipeline::SmtSimulator) — the paper's
/// §1 motivating application, quantified.
pub fn ext_smt_on(exec: &Executor, scale: u32, pairs: &[(WorkloadKind, WorkloadKind)]) -> Outcome {
    use cestim_pipeline::FetchPolicy;

    let policies = [
        FetchPolicy::RoundRobin,
        FetchPolicy::FewestOutstanding,
        FetchPolicy::SwitchOnLowConfidence,
        FetchPolicy::FewestLowConfidence,
    ];
    let mut t = Table::new(
        "Extension: SMT fetch arbitration (two threads, gshare + satctr)",
        vec!["threads", "policy", "cycles", "ipc", "squashed", "waste"],
    );
    let mut jrows = Vec::new();
    let mut jobs = Vec::new();
    for &(wa, wb) in pairs {
        for policy in policies {
            jobs.push(ExecJob::Smt {
                a: wa,
                b: wb,
                scale,
                policy,
            });
        }
    }
    let all_stats = run_batch(exec, &jobs, JobOutput::into_smt)?;
    for (&(wa, wb), by_policy) in pairs.iter().zip(all_stats.chunks_exact(policies.len())) {
        for (policy, stats) in policies.iter().zip(by_policy) {
            let fetched: u64 = stats.per_thread.iter().map(|s| s.fetched_insts).sum();
            let waste = stats.total_squashed() as f64 / fetched as f64;
            t.row(vec![
                format!("{}+{}", wa.name(), wb.name()),
                policy.name().to_string(),
                stats.cycles.to_string(),
                format!("{:.2}", stats.throughput()),
                stats.total_squashed().to_string(),
                pct(waste),
            ]);
            jrows.push(json!({
                "threads": [wa.name(), wb.name()],
                "policy": policy.name(),
                "cycles": stats.cycles,
                "ipc": stats.throughput(),
                "squashed": stats.total_squashed(),
                "waste": waste,
            }));
        }
    }
    Ok(ExperimentResult {
        id: "ext-smt".into(),
        title: "Extension: SMT fetch arbitration driven by confidence".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// Extension: eager (dual-path) execution in the pipeline — fork both paths
/// of a low-confidence branch; covered mispredictions skip the recovery
/// penalty at the price of halved fetch bandwidth while forked.
pub fn ext_eager_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    use cestim_pipeline::PipelineConfig;
    let triggers = [
        (
            "satctr",
            EstimatorSpec::SatCtr {
                variant: SatVariantSpec::Selected,
            },
        ),
        ("jrs", EstimatorSpec::jrs_paper()),
        ("distance>3", EstimatorSpec::Distance { threshold: 3 }),
    ];
    let mut t = Table::new(
        "Extension: dual-path (eager) execution, gshare",
        vec![
            "workload",
            "trigger",
            "base cyc",
            "eager cyc",
            "speedup",
            "forks",
            "covered",
            "alt slots",
        ],
    );
    let mut jrows = Vec::new();
    let mut jobs = Vec::new();
    for &w in workloads {
        for (_, spec) in &triggers {
            jobs.push(ExecJob::Run {
                cfg: RunConfig::paper(w, scale, PredictorKind::Gshare),
                specs: vec![spec.clone()],
            });
            jobs.push(ExecJob::Run {
                cfg: RunConfig {
                    pipeline: PipelineConfig::paper().with_eager(1),
                    ..RunConfig::paper(w, scale, PredictorKind::Gshare)
                },
                specs: vec![spec.clone()],
            });
        }
    }
    let stats = run_batch(exec, &jobs, |out| out.into_run().stats)?;
    for (&w, by_trigger) in workloads.iter().zip(stats.chunks_exact(2 * triggers.len())) {
        for ((label, _), pair) in triggers.iter().zip(by_trigger.chunks_exact(2)) {
            let (base, eager) = (&pair[0], &pair[1]);
            let speedup = base.cycles as f64 / eager.cycles as f64;
            t.row(vec![
                w.name().to_string(),
                label.to_string(),
                base.cycles.to_string(),
                eager.cycles.to_string(),
                format!("{speedup:.3}x"),
                eager.eager_forks.to_string(),
                pct(eager.eager_coverage()),
                eager.eager_alt_slots.to_string(),
            ]);
            jrows.push(json!({
                "workload": w.name(),
                "trigger": label,
                "base_cycles": base.cycles,
                "eager_cycles": eager.cycles,
                "speedup": speedup,
                "forks": eager.eager_forks,
                "covered": eager.eager_covered,
                "alt_slots": eager.eager_alt_slots,
            }));
        }
    }
    Ok(ExperimentResult {
        id: "ext-eager".into(),
        title: "Extension: eager execution gated by confidence".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// Extension: cross-input static estimation. The paper's static results
/// are self-profiled ("a best-case evaluation"); this experiment trains
/// the profile on an alternative input (salt 1) and measures on the
/// default input, quantifying the degradation — and compares against the
/// self-profiled upper bound and the input-independent JRS.
pub fn ext_xinput_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let static_spec = EstimatorSpec::Static { threshold: 0.9 };
    let mut t = Table::new(
        "Extension: static estimation off its training input (gshare)",
        vec!["workload", "variant", "sens", "spec", "pvp", "pvn"],
    );
    let mut jrows = Vec::new();
    let mut self_q = Vec::new();
    let mut cross_q = Vec::new();
    let mut jrs_q = Vec::new();
    let mut jobs = Vec::new();
    for &w in workloads {
        let eval_cfg = RunConfig::paper(w, scale, PredictorKind::Gshare);
        // Self-profiled (the paper's best case).
        jobs.push(ExecJob::Run {
            cfg: eval_cfg.clone(),
            specs: vec![static_spec.clone()],
        });
        // Cross-input: profile from the salted input.
        jobs.push(ExecJob::CrossProfileRun {
            cfg: eval_cfg.clone(),
            train_salt: 1,
            specs: vec![static_spec.clone()],
        });
        // Dynamic reference.
        jobs.push(ExecJob::Run {
            cfg: eval_cfg,
            specs: vec![EstimatorSpec::jrs_paper()],
        });
    }
    let outs = run_batch(exec, &jobs, JobOutput::into_run)?;
    for (&w, trio) in workloads.iter().zip(outs.chunks_exact(3)) {
        let (own, cross, jrs) = (&trio[0], &trio[1], &trio[2]);
        for (variant, out) in [("self", own), ("cross", cross)] {
            let q = out.estimators[0].quadrants.committed;
            let s = MetricSummary::from_quadrant(&q);
            metric_row(
                &mut t,
                vec![w.name().to_string(), variant.to_string()],
                &[&s],
            );
            jrows.push(json!({
                "workload": w.name(), "variant": variant, "metrics": summary_json(&s),
            }));
        }
        self_q.push(own.estimators[0].quadrants.committed);
        cross_q.push(cross.estimators[0].quadrants.committed);
        jrs_q.push(jrs.estimators[0].quadrants.committed);
    }
    for (label, quads) in [
        ("mean self", &self_q),
        ("mean cross", &cross_q),
        ("mean jrs (dynamic)", &jrs_q),
    ] {
        let s = mean_quadrant(quads);
        metric_row(&mut t, vec!["".to_string(), label.to_string()], &[&s]);
        jrows.push(json!({ "workload": null, "variant": label, "metrics": summary_json(&s) }));
    }
    Ok(ExperimentResult {
        id: "ext-xinput".into(),
        title: "Extension: cross-input static estimation".into(),
        text: t.to_string(),
        json: json!({ "rows": jrows }),
    })
}

/// The estimator set the modern-family extension evaluates: one
/// classical table estimator (JRS), the predictor's own counters, the
/// distance estimator, the timing estimator, and a 2-of-3 voting
/// composite over the three dynamic signals.
fn modern_estimators() -> Vec<EstimatorSpec> {
    let satctr = EstimatorSpec::SatCtr {
        variant: SatVariantSpec::Selected,
    };
    let distance = EstimatorSpec::Distance { threshold: 3 };
    let timing = EstimatorSpec::Timing { threshold: 4 };
    vec![
        satctr.clone(),
        EstimatorSpec::jrs_paper(),
        distance.clone(),
        timing.clone(),
        EstimatorSpec::Voting {
            components: vec![satctr, distance, timing],
            quorum: 2,
        },
    ]
}

/// Extension: modern predictor families (TAGE, hashed perceptron) under
/// the paper's diagnostic metrics, with composite (voting) and timing
/// confidence estimators alongside the paper's designs.
pub fn ext_modern_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let predictors = [
        PredictorKind::Gshare,
        PredictorKind::Tage,
        PredictorKind::Perceptron,
    ];
    let specs = modern_estimators();
    let mut text = String::new();
    let mut jrows = Vec::new();
    for p in predictors {
        let m = run_matrix(exec, p, &specs, workloads, scale)?;
        let title = format!("Extension: modern estimator families ({p} predictor)");
        let (t, rows) = mean_rows(title, &m);
        jrows.extend(rows.iter().map(|r| {
            json!({ "predictor": p.name(), "estimator": r["estimator"], "metrics": r["metrics"] })
        }));
        text.push_str(&format!("{t}\n"));
    }
    Ok(ExperimentResult {
        id: "ext-modern".into(),
        title: "Extension: TAGE/perceptron predictors with voting and timing estimators".into(),
        text,
        json: json!({ "rows": jrows }),
    })
}

/// Extension: workload-predictability characterization. Every predictor
/// family runs over every workload; each workload gets its best
/// predictor and a predictability class, and the trace-replay path is
/// cross-checked against the live pipeline for the modern families.
pub fn ext_predictability_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let preds = PredictorKind::all();
    let jobs: Vec<ExecJob> = workloads
        .iter()
        .flat_map(|&w| {
            preds.into_iter().map(move |p| ExecJob::Run {
                cfg: RunConfig::paper(w, scale, p),
                specs: Vec::new(),
            })
        })
        .collect();
    let mut cols: Vec<&str> = vec!["workload"];
    cols.extend(preds.iter().map(|p| p.name()));
    cols.extend(["best", "class"]);
    let mut t = Table::new("Extension: workload predictability by family", cols);
    let mut jrows = Vec::new();
    let all_accs = run_batch(exec, &jobs, |out| out.into_run().stats.accuracy_committed())?;
    for (&w, accs) in workloads.iter().zip(all_accs.chunks_exact(preds.len())) {
        let (bi, &best) = accs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("at least one predictor");
        let class = if best >= 0.97 {
            "high"
        } else if best >= 0.90 {
            "moderate"
        } else {
            "low"
        };
        let mut cells = vec![w.name().to_string()];
        cells.extend(accs.iter().map(|&a| pct(a)));
        cells.push(preds[bi].name().to_string());
        cells.push(class.to_string());
        t.row(cells);
        jrows.push(json!({
            "workload": w.name(),
            "accuracy": preds.iter().zip(accs)
                .map(|(p, &a)| (p.name().to_string(), json!(a)))
                .collect::<serde::Map>(),
            "best": preds[bi].name(),
            "class": class,
        }));
    }
    // Imported-trace cross-check: export the first workload's committed
    // stream and replay it through the modern families — the replay job
    // must report the same committed accuracy as the live simulator
    // driven down the recorded path (bit-identity of the predictor
    // state machines; the same identity the conformance suite pins for
    // the paper families).
    let mut jreplay = Vec::new();
    let mut text_extra = String::new();
    if let Some(&w0) = workloads.first() {
        let cfg = RunConfig::paper(w0, scale, PredictorKind::Gshare);
        let records = crate::export_config_trace(&cfg)
            .map_err(|e| failed(format!("trace export of {}: {e}", w0.name())))?;
        for p in PredictorKind::modern_two() {
            let job = ExecJob::Replay {
                records: records.clone(),
                predictor: p,
                pipeline: cfg.pipeline.clone(),
                specs: Vec::new(),
            };
            let replayed = run_batch(exec, &[job], |o| o.into_run().stats)?.remove(0);
            let live = crate::run_replay_live(&RunConfig::paper(w0, scale, p), &[]).stats;
            if replayed.accuracy_committed() != live.accuracy_committed() {
                return Err(failed(format!(
                    "trace replay diverged from live simulation for {p}: replayed {} vs live {}",
                    replayed.accuracy_committed(),
                    live.accuracy_committed()
                )));
            }
            text_extra.push_str(&format!(
                "replay check {p} on {}: {} (live == replayed)\n",
                w0.name(),
                pct(live.accuracy_committed()),
            ));
            jreplay.push(json!({
                "workload": w0.name(),
                "predictor": p.name(),
                "accuracy": live.accuracy_committed(),
                "matches_live": true,
            }));
        }
    }
    let mut text = t.to_string();
    text.push_str(&text_extra);
    Ok(ExperimentResult {
        id: "ext-predictability".into(),
        title: "Extension: per-workload predictability across predictor families".into(),
        text,
        json: json!({ "rows": jrows, "replay_checks": jreplay }),
    })
}

/// Per-application detail behind Table 2 (the paper reports means and
/// points at its tech report for the full data; this regenerates it).
pub fn table2_detail_on(exec: &Executor, scale: u32, workloads: &[WorkloadKind]) -> Outcome {
    let mut text = String::new();
    let mut jpred = Vec::new();
    for p in PredictorKind::paper_three() {
        let specs = EstimatorSpec::paper_set(p);
        let m = run_matrix(exec, p, &specs, workloads, scale)?;
        let mut t = Table::new(
            format!("Table 2 detail ({p} predictor)"),
            vec!["application", "estimator", "sens", "spec", "pvp", "pvn"],
        );
        let mut jrows = Vec::new();
        for (wi, &w) in workloads.iter().enumerate() {
            for (name, quads) in m.names.iter().zip(&m.committed) {
                let s = MetricSummary::from_quadrant(&quads[wi]);
                metric_row(&mut t, vec![w.name().to_string(), name.clone()], &[&s]);
                jrows.push(json!({
                    "workload": w.name(), "estimator": name, "metrics": summary_json(&s),
                }));
            }
        }
        text.push_str(&format!("{t}\n"));
        jpred.push(json!({ "predictor": p.name(), "rows": jrows }));
    }
    Ok(ExperimentResult {
        id: "table2-detail".into(),
        title: "Table 2 detail: per-application estimator metrics".into(),
        text,
        json: json!({ "predictors": jpred }),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &[WorkloadKind] = &[WorkloadKind::Compress];

    fn seq() -> Executor {
        Executor::sequential()
    }

    #[test]
    fn fig1_is_analytic_and_complete() {
        let r = fig1();
        assert_eq!(r.id, "fig1");
        assert_eq!(r.json["curves"].as_array().unwrap().len(), 6);
        assert!(r.text.contains("vary SENS"));
    }

    #[test]
    fn all_ids_dispatch() {
        let exec = Executor::sequential();
        let ids = all_ids();
        for &id in &ids {
            // Only check the dispatcher wiring for cheap ids; heavier ones
            // are covered by integration tests and the repro binary.
            if id == "fig1" {
                assert_eq!(run_experiment_with(&exec, id, 1).unwrap().id, id);
            }
        }
        assert!(run_experiment_with(&exec, "nope", 1).is_none());
        let unique: std::collections::BTreeSet<_> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate experiment id");
    }

    #[test]
    fn checked_driver_catches_batch_failures_as_manifests() {
        cestim_exec::install_quiet_panic_hook();
        assert!(run_experiment_checked(&Executor::sequential(), "nope", 1).is_none());
        // fig1 is analytic (no jobs): always Ok, even under a chaos plan.
        let chaotic = Executor::sequential()
            .with_fault_plan(cestim_exec::FaultPlan::parse("panic:1").unwrap());
        let r = run_experiment_checked(&chaotic, "fig1", 1).unwrap();
        assert_eq!(r.unwrap().id, "fig1");
        // table1 submits jobs; with every job panicking the driver returns
        // a structured manifest (and fails fast — injected panics fire
        // before the simulation body runs).
        let failure = run_experiment_checked(&chaotic, "table1", 1)
            .unwrap()
            .unwrap_err();
        assert_eq!(failure.id, "table1");
        assert_eq!(failure.message, "24/24 jobs failed");
        assert_eq!(failure.errors.len(), 24);
        assert!(failure.to_string().contains("injected fault"));
        // A failed batch ends its experiment: table2's first matrix (one
        // job per workload) fails, and its other two are never submitted.
        let chaotic = Executor::sequential()
            .with_fault_plan(cestim_exec::FaultPlan::parse("panic:1").unwrap());
        let failure = run_experiment_checked(&chaotic, "table2", 1)
            .unwrap()
            .unwrap_err();
        assert_eq!(failure.message, "8/8 jobs failed");
        assert_eq!(chaotic.report().submitted, 8);
        // The manifest serializes for telemetry.
        let text = serde_json::to_string(&failure).unwrap();
        let back: ExperimentFailure = serde_json::from_str(&text).unwrap();
        assert_eq!(back, failure);
    }

    #[test]
    fn table2_small_has_expected_shape() {
        let r = table2_on(&seq(), 1, SMALL).unwrap();
        let preds = r.json["predictors"].as_array().unwrap();
        assert_eq!(preds.len(), 3);
        for p in preds {
            assert_eq!(p["rows"].as_array().unwrap().len(), 4);
        }
        assert!(r.text.contains("jrs(4096x4b,t>=15,enh)"));
    }

    #[test]
    fn fig3_enhanced_beats_base_on_pvp_at_matched_sens() {
        let r = fig3_on(&seq(), 1, SMALL).unwrap();
        let v = r.json["variants"].as_array().unwrap();
        assert_eq!(v[0]["variant"], "base");
        assert_eq!(v[1]["variant"], "enhanced");
        // At the paper threshold (15), enhanced PVP >= base PVP.
        let base = v[0]["points"][14]["metrics"]["pvp"].as_f64().unwrap();
        let enh = v[1]["points"][14]["metrics"]["pvp"].as_f64().unwrap();
        assert!(enh >= base - 0.01, "enhanced {enh} vs base {base}");
    }

    #[test]
    fn remaining_experiments_have_expected_shapes() {
        // table1: one row per workload plus the mean row.
        let r = table1_on(&seq(), 1, SMALL).unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 1);
        assert!(r.text.contains("mean"));

        // table2-detail: 4 estimator rows per workload per predictor.
        let r = table2_detail_on(&seq(), 1, SMALL).unwrap();
        for p in r.json["predictors"].as_array().unwrap() {
            assert_eq!(p["rows"].as_array().unwrap().len(), 4);
        }

        // fig4: 4 table sizes x 16 thresholds, PVP falls as threshold
        // rises at fixed size (more selective HC set... PVP *rises*; check
        // monotone trend of SENS via spec json instead: PVN at t=16 equals
        // the misprediction rate is covered by fig3; here just shape).
        let r = fig45_on(&seq(), 1, SMALL, Gshare, "fig4").unwrap();
        let sizes = r.json["sizes"].as_array().unwrap();
        assert_eq!(sizes.len(), 4);
        for sz in sizes {
            assert_eq!(sz["points"].as_array().unwrap().len(), 16);
        }
        // Larger tables dominate at the paper threshold: 4096-entry PVP >=
        // 64-entry PVP at t=15.
        let pvp_small = sizes[0]["points"][14]["pvp"].as_f64().unwrap();
        let pvp_large = sizes[3]["points"][14]["pvp"].as_f64().unwrap();
        assert!(pvp_large >= pvp_small - 0.01, "{pvp_large} vs {pvp_small}");

        // table4: 10 rows per predictor + the SAg pattern row.
        let r = table4_on(&seq(), 1, SMALL).unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 21);

        // table3: per-workload rows + mean.
        let r = table3_on(&seq(), 1, SMALL).unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 1);
        assert!(r.json["mean"]["both_strong"]["spec"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn extension_experiments_run_on_small_inputs() {
        let r = ext_cir_on(&seq(), 1, SMALL).unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 4);
        let r = ext_jrsmcf_on(&seq(), 1, SMALL).unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 8);
        let r = ext_tune_on(&seq(), 1, SMALL).unwrap();
        // Every SPEC target must be met (always reachable).
        for row in r.json["rows"].as_array().unwrap() {
            if row["target"].as_str().unwrap().starts_with("spec") {
                assert_eq!(row["met"], true, "{row}");
            }
        }
        let r = ext_smt_on(
            &seq(),
            1,
            &[(WorkloadKind::Compress, WorkloadKind::Compress)],
        )
        .unwrap();
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 4);
    }

    #[test]
    fn ext_modern_covers_every_family_pair() {
        let r = ext_modern_on(&seq(), 1, SMALL).unwrap();
        let rows = r.json["rows"].as_array().unwrap();
        // 3 predictors x 5 estimators.
        assert_eq!(rows.len(), 15);
        for family in ["gshare", "tage", "perceptron"] {
            assert!(
                rows.iter().any(|row| row["predictor"] == family),
                "missing predictor {family}"
            );
        }
        for est in ["timing(<=4)", "vote2("] {
            assert!(
                rows.iter()
                    .any(|row| row["estimator"].as_str().unwrap().starts_with(est)),
                "missing estimator {est}"
            );
        }
        // Every cell carries the four diagnostic metrics.
        for row in rows {
            for metric in ["sens", "spec", "pvp", "pvn"] {
                assert!(row["metrics"][metric].as_f64().is_some(), "{row}");
            }
        }
    }

    #[test]
    fn ext_predictability_classifies_and_cross_checks_replay() {
        let r = ext_predictability_on(&seq(), 1, SMALL).unwrap();
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row["accuracy"].as_object().unwrap().len(), 6);
        assert!(["high", "moderate", "low"].contains(&row["class"].as_str().unwrap()));
        let best = row["best"].as_str().unwrap();
        assert!(PredictorKind::from_name(best).is_some(), "{best}");
        // The replay cross-check ran for both modern families and matched.
        let checks = r.json["replay_checks"].as_array().unwrap();
        assert_eq!(checks.len(), 2);
        for c in checks {
            assert_eq!(c["matches_live"], true, "{c}");
        }
    }

    #[test]
    fn distance_fig_small_runs() {
        let r = distance_fig_on(&seq(), 1, &[WorkloadKind::Gcc], Gshare, false, "fig6").unwrap();
        let avg = r.json["all"]["average"].as_f64().unwrap();
        assert!(avg > 0.0 && avg < 0.5);
        // Clustering: distance-1 rate above the average rate.
        let series = r.json["all"]["series"].as_array().unwrap();
        let d1 = series[0][1].as_f64().unwrap();
        assert!(d1 > avg, "clustering expected: rate@1 {d1} vs avg {avg}");
    }
}
