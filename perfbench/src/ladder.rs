//! The per-layer cost ladder of the traced run, in host nanoseconds per
//! committed conditional branch over each analog's own branch stream.
//!
//! Each rung adds one layer to the one below it, and a layer's cost is
//! the difference between adjacent rungs:
//!
//! ```text
//! isa.interp        Machine::run to halt
//! bpred.<p>         predict + update with a benchmark-owned history
//! core.<e>          + note_resolve_latency / estimate / on_branch_resolved / update
//! pipeline.replay   TraceSimulator with the roster      − (bpred + core roster)
//! pipeline.timing   live Simulator, replay fetch, + JRS − (interp + bpred + core.jrs)
//! pipeline.wrong_path  full live Simulator              − replay-fetch Simulator
//! ```
//!
//! Every measurement is one clock pair around a batched call (a whole
//! run or a whole stream), never one per branch, and the program's span
//! context is never installed: under it the simulator turns on its
//! per-cycle phase profiler, which would dominate every rung.

use crate::cells::{config, modern_roster, roster_specs};
use crate::expected::{CellDigest, Expected};
use crate::stats::{median, quartiles};
use crate::{Opts, Report, Workload};
use cestim_bpred::{BranchPredictor, HistoryRegister};
use cestim_core::{AnyEstimator, ConfidenceEstimator};
use cestim_isa::Machine;
use cestim_pipeline::{
    NullObserver, PipelineConfig, PipelineStats, SimObserver, Simulator, TraceSimulator,
};
use cestim_sim::{run, run_trace, EstimatorSpec, PredictorKind, RunOutcome, EXPORT_MAX_STEPS};
use cestim_trace_io::{export_program, from_binary, to_binary, TraceClass, TraceRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Seconds of one call, and its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

/// Runs a predictor (and optionally estimators) over a committed branch
/// stream the way the pipeline calls them at fetch and commit; returns
/// the seconds the stream took. Tables are built outside the clock.
fn stream_secs(
    p: PredictorKind,
    specs: &[EstimatorSpec],
    stream: &[(u32, bool)],
    ghr_width: u32,
) -> f64 {
    let mut predictor = p.build_any();
    let mut estimators: Vec<AnyEstimator> = specs.iter().map(|s| s.build_any(None)).collect();
    let mut ghr = HistoryRegister::new(ghr_width);
    let mut sink = 0u64;
    let t = Instant::now();
    for &(pc, taken) in stream {
        let g = ghr.value();
        let prediction = predictor.predict(pc, g);
        let correct = prediction.taken == taken;
        for e in &mut estimators {
            e.note_resolve_latency(u64::from(pc >> 2) & 7);
            sink += u64::from(e.estimate(pc, g, &prediction).is_high());
        }
        predictor.update(pc, taken, &prediction);
        for e in &mut estimators {
            e.on_branch_resolved(!correct);
            e.update(pc, g, &prediction, correct);
        }
        ghr.push(taken);
        sink += u64::from(correct);
    }
    let secs = t.elapsed().as_secs_f64();
    black_box(sink);
    secs
}

/// Seconds by measurement name, per analog and repetition.
struct Timings {
    analogs: usize,
    reps: usize,
    by_name: BTreeMap<String, Vec<Vec<f64>>>,
}

/// A combination of measurements: its best value and its value in each
/// repetition.
struct Series {
    /// Each measurement at its fastest repetition per analog, combined:
    /// the host's speed drifts by up to 2× for seconds at a time and
    /// interference only ever adds time.
    best: f64,
    /// The combination within each repetition, for the noise estimate.
    per_rep: Vec<f64>,
}

impl Timings {
    fn add(&mut self, name: String, (analog, rep): (usize, usize), secs: f64) {
        let (analogs, reps) = (self.analogs, self.reps);
        self.by_name
            .entry(name)
            .or_insert_with(|| vec![vec![0.0; reps]; analogs])[analog][rep] += secs;
    }

    /// `Σ sign × seconds(name)` over the analogs, times `scale`.
    fn combine(&self, terms: &[(f64, String)], scale: f64) -> Series {
        let total = |pick: &dyn Fn(&[f64]) -> f64| -> f64 {
            terms
                .iter()
                .map(|(sign, name)| {
                    sign * self
                        .by_name
                        .get(name)
                        .map_or(0.0, |per_analog| per_analog.iter().map(|v| pick(v)).sum())
                })
                .sum::<f64>()
                * scale
        };
        Series {
            best: total(&|v| v.iter().copied().fold(f64::INFINITY, f64::min)),
            per_rep: (0..self.reps).map(|r| total(&|v| v[r])).collect(),
        }
    }
}

fn plus(name: impl Into<String>) -> (f64, String) {
    (1.0, name.into())
}

fn minus(name: impl Into<String>) -> (f64, String) {
    (-1.0, name.into())
}

/// One analog's inputs, built once.
struct Input {
    kind: cestim_workloads::WorkloadKind,
    program: cestim_isa::Program,
    records: Vec<TraceRecord>,
    bytes: Vec<u8>,
    stream: Vec<(u32, bool)>,
}

/// Reports a rung's best value. A difference rung whose value does not
/// exceed its noise (the distance between the quartiles of its
/// per-repetition values) is unresolved: it reports that noise as an
/// upper bound.
fn rung(report: &mut Report, name: &str, series: &Series, unit: &'static str, difference: bool) {
    let (q1, q3) = quartiles(&series.per_rep);
    let noise = q3 - q1;
    let resolved = !difference || series.best > noise;
    let (value, note) = if resolved {
        let n = series.per_rep.len();
        (
            series.best,
            format!("fastest of {n} repetitions per analog, noise {noise:.3}"),
        )
    } else {
        let d = series.best;
        (
            noise,
            format!(
                "UNRESOLVED: difference {d:.3} within noise {noise:.3}; value is the noise bound"
            ),
        )
    };
    report.metric(name, value, unit, note);
}

/// The traced ladder over every analog at this run's seed, at the
/// ladder's own scale.
pub fn traced(opts: &Opts, expected: &Expected, report: &mut Report) {
    let opts = &Opts {
        size: crate::Size {
            scale: opts.size.ladder_scale,
            ..opts.size
        },
        ..opts.clone()
    };
    let reps = crate::REPETITIONS;
    let pipeline = PipelineConfig::paper();
    let roster = roster_specs();
    let named = modern_roster();
    let jrs = [EstimatorSpec::jrs_paper()];
    let inputs: Vec<Input> = opts
        .size
        .analogs()
        .into_iter()
        .map(|kind| {
            let program = kind.build_salted(opts.size.scale, opts.salt()).program;
            let records = export_program(&program, EXPORT_MAX_STEPS).unwrap_or_default();
            let stream = records
                .iter()
                .filter(|r| r.class == TraceClass::CondBranch)
                .map(|r| (r.pc, r.taken))
                .collect();
            let bytes = to_binary(&records);
            Input {
                kind,
                program,
                records,
                bytes,
                stream,
            }
        })
        .collect();
    let branches: usize = inputs.iter().map(|i| i.stream.len()).sum();
    let records: usize = inputs.iter().map(|i| i.records.len()).sum();
    let per_br = 1e9 / branches.max(1) as f64;

    let mut t = Timings {
        analogs: inputs.len(),
        reps,
        by_name: BTreeMap::new(),
    };
    let mut counts = PipelineStats::default();
    for rep in 0..reps {
        for (a, inp) in inputs.iter().enumerate() {
            let (s, _) = timed(|| inp.kind.build_salted(opts.size.scale, opts.salt()));
            t.add("build".into(), (a, rep), s);
            let (s, steps) =
                timed(|| Machine::new(&inp.program).run(&inp.program, EXPORT_MAX_STEPS));
            t.add("interp".into(), (a, rep), s);
            let (s, exported) = timed(|| export_program(&inp.program, EXPORT_MAX_STEPS));
            t.add("export".into(), (a, rep), s);
            let (s, decoded) = timed(|| from_binary(&inp.bytes));
            t.add("decode".into(), (a, rep), s);
            if rep == 0 {
                report.check(
                    exported.as_ref().is_ok_and(|r| *r == inp.records)
                        && decoded.is_ok_and(|r| r == inp.records)
                        && steps + 1 >= inp.records.len() as u64,
                    || format!("ladder trace round trip of {}", inp.kind.name()),
                );
            }

            for p in PredictorKind::all() {
                let width = pipeline.ghr_width;
                t.add(
                    format!("bpred.{p}"),
                    (a, rep),
                    stream_secs(p, &[], &inp.stream, width),
                );
                for (name, spec) in &named {
                    let s = stream_secs(p, std::slice::from_ref(spec), &inp.stream, width);
                    t.add(format!("core.{p}.{name}"), (a, rep), s);
                }
            }

            for p in PredictorKind::modern_two() {
                let s = stream_secs(p, &roster, &inp.stream, pipeline.ghr_width);
                t.add(format!("roster.{p}"), (a, rep), s);
                // The untraced call runs before and after the rungs, so
                // drift while they run cancels in the closure.
                let e2e = || run_trace(&inp.records, p, &pipeline, &roster);
                let (before, out) = timed(e2e);
                let (s, stats) = timed(|| {
                    let mut sim =
                        TraceSimulator::new(&inp.records, pipeline.clone(), p.build_any());
                    for spec in &roster {
                        sim.add_estimator(spec.build_any(None));
                    }
                    sim.run_to_completion()
                });
                t.add(format!("tracesim.{p}"), (a, rep), s);
                let (after, _) = timed(e2e);
                t.add(format!("e2e.replay.{p}"), (a, rep), (before + after) / 2.0);
                if rep == 0 {
                    check_cell(
                        report,
                        expected,
                        opts,
                        Workload::Replay,
                        inp,
                        p,
                        &out,
                        &stats,
                    );
                }
            }

            for p in PredictorKind::paper_three() {
                // Events go through `&mut dyn SimObserver`, as in
                // `cestim_sim::run`: the virtual calls cost several percent.
                let sim = |program: &cestim_isa::Program, replay_fetch: bool| {
                    let mut sim = Simulator::new(program, pipeline.clone(), p.build_any());
                    sim.add_estimator(jrs[0].build_any(None));
                    sim.set_replay_fetch(replay_fetch);
                    let observer: &mut dyn SimObserver = &mut NullObserver;
                    sim.run(observer)
                };
                let e2e = || run(&config(opts, inp.kind, p), &jrs);
                let (before, out) = timed(e2e);
                let (s, _) = timed(|| sim(&inp.program, true));
                t.add(format!("replay_fetch.{p}"), (a, rep), s);
                let (s, stats) = timed(|| sim(&inp.program, false));
                t.add(format!("full.{p}"), (a, rep), s);
                let (after, _) = timed(e2e);
                t.add(format!("e2e.live.{p}"), (a, rep), (before + after) / 2.0);
                if rep == 0 {
                    check_cell(report, expected, opts, Workload::Live, inp, p, &out, &stats);
                    add_counts(&mut counts, &stats);
                }
            }
        }
    }

    // Base rungs, measured directly.
    let interp = t.combine(&[plus("interp")], per_br);
    rung(report, "isa.interp_ns_per_br", &interp, "ns", false);
    for p in PredictorKind::all() {
        let series = t.combine(&[plus(format!("bpred.{p}"))], per_br);
        rung(
            report,
            &format!("bpred.{p}.ns_per_br"),
            &series,
            "ns",
            false,
        );
    }
    // Estimator rungs, over all six predictor families.
    let over_bpred = |e: &str, ps: &[PredictorKind]| -> Vec<(f64, String)> {
        ps.iter()
            .flat_map(|p| [plus(format!("core.{p}.{e}")), minus(format!("bpred.{p}"))])
            .collect()
    };
    for (e, _) in &named {
        let series = t.combine(&over_bpred(e, &PredictorKind::all()), per_br / 6.0);
        rung(report, &format!("core.{e}.ns_per_br"), &series, "ns", true);
    }
    let each = |name: &str, ps: &[PredictorKind]| -> Vec<(f64, String)> {
        ps.iter().map(|p| plus(format!("{name}.{p}"))).collect()
    };
    let diff = |upper: &str, lower: &str, ps: &[PredictorKind]| -> Vec<(f64, String)> {
        ps.iter()
            .flat_map(|p| [plus(format!("{upper}.{p}")), minus(format!("{lower}.{p}"))])
            .collect()
    };

    // Replay: TAGE and perceptron with the roster attached.
    let modern = PredictorKind::modern_two();
    let m = per_br / modern.len() as f64;
    let replay = t.combine(&diff("tracesim", "roster", &modern), m);
    rung(report, "pipeline.replay_ns_per_br", &replay, "ns", true);
    let replay_rungs = [
        (
            "bpred (tage, perceptron)",
            t.combine(&each("bpred", &modern), m),
        ),
        (
            "core roster (tage, perceptron)",
            t.combine(&diff("roster", "bpred", &modern), m),
        ),
        ("pipeline.replay", replay),
    ];
    let replay_e2e = t.combine(&each("e2e.replay", &modern), m);

    // Live: the paper's three predictors with JRS attached.
    let paper = PredictorKind::paper_three();
    let n = per_br / paper.len() as f64;
    let mut timing_terms = Vec::new();
    for p in paper {
        timing_terms.extend([
            plus(format!("replay_fetch.{p}")),
            minus("interp"),
            minus(format!("core.{p}.jrs")),
        ]);
    }
    let timing = t.combine(&timing_terms, n);
    rung(report, "pipeline.timing_ns_per_br", &timing, "ns", true);
    let wrong_path = t.combine(&diff("full", "replay_fetch", &paper), n);
    rung(
        report,
        "pipeline.wrong_path_ns_per_br",
        &wrong_path,
        "ns",
        true,
    );
    let live_rungs = [
        ("workloads.build", t.combine(&[plus("build")], per_br)),
        ("isa.interp", interp),
        ("bpred (paper three)", t.combine(&each("bpred", &paper), n)),
        (
            "core.jrs (paper three)",
            t.combine(&over_bpred("jrs", &paper), n),
        ),
        ("pipeline.timing", timing),
        ("pipeline.wrong_path", wrong_path),
    ];
    let live_e2e = t.combine(&each("e2e.live", &paper), n);

    let per_rec = 1e9 / records.max(1) as f64;
    let export = t.combine(&[plus("export")], per_rec);
    rung(report, "trace_io.export_ns_per_rec", &export, "ns", false);
    let decode = t.combine(&[plus("decode")], per_rec);
    rung(report, "trace_io.decode_ns_per_rec", &decode, "ns", false);
    let build = t.combine(&[plus("build")], 1e3 / inputs.len().max(1) as f64);
    rung(report, "workloads.build_ms", &build, "ms", false);

    for (tag, rungs, e2e) in [
        ("live", &live_rungs[..], &live_e2e),
        ("replay", &replay_rungs[..], &replay_e2e),
    ] {
        // Within one repetition the rungs telescope to measurements taken
        // right next to the untraced run's, so host drift cancels in the
        // ratio; across repetitions it would not.
        let ratios: Vec<f64> = (0..reps)
            .map(|r| rungs.iter().map(|(_, s)| s.per_rep[r]).sum::<f64>() / e2e.per_rep[r])
            .collect();
        let ratio = median(&ratios);
        let sum: f64 = rungs.iter().map(|(_, s)| s.best).sum();
        report.lines.push(format!(
            "ladder {tag} (ns per committed branch, fastest repetitions):"
        ));
        for (name, s) in rungs {
            report.lines.push(format!("  {name:32} {:10.3}", s.best));
        }
        report.lines.push(format!(
            "  {:32} {sum:10.3}\n  {:32} {:10.3}\n  tracing overhead (untraced minus rungs, median repetition) {:+.1}%",
            "sum of rungs",
            "untraced run cost",
            e2e.best,
            100.0 * (1.0 - ratio),
        ));
        let tolerance = opts.size.closure_tolerance;
        report.check((ratio - 1.0).abs() <= tolerance, || {
            format!("ladder {tag} does not close: rungs sum to {ratio:.3} of the untraced cost")
        });
        report.metric(
            format!("ladder.{tag}.closure_ratio"),
            ratio,
            "ratio",
            format!(
                "sum of rungs / untraced cost, median of {reps} repetitions, tolerance ±{tolerance}"
            ),
        );
    }

    let c = &counts;
    for (name, v) in [
        ("pipeline.fetched_insts", c.fetched_insts),
        ("pipeline.squashed_insts", c.squashed_insts),
        ("pipeline.recoveries", c.recoveries),
        ("pipeline.cycles", c.cycles),
        ("pipeline.icache_misses", c.icache_misses),
        ("bpred.mispredicts", c.mispredicted_committed),
    ] {
        report.metric(name, v as f64, "count", "live cells, summed".into());
    }
    report.metric(
        "pipeline.useful_fetch_ratio",
        c.committed_insts as f64 / c.fetched_insts.max(1) as f64,
        "ratio",
        "committed / fetched instructions, live cells".into(),
    );
}

/// Checks a ladder cell: the entry point's outcome must match the direct
/// simulator run and, for a recorded seed, its recorded digest.
#[allow(clippy::too_many_arguments)]
fn check_cell(
    report: &mut Report,
    expected: &Expected,
    opts: &Opts,
    workload: Workload,
    inp: &Input,
    p: PredictorKind,
    out: &RunOutcome,
    direct: &PipelineStats,
) {
    let cell = format!("{}/{}", inp.kind.name(), p.name());
    let recorded = expected.cell(workload, opts.size.scale, opts.seed, &cell);
    let ok = out.stats == *direct
        && out.stats.committed_branches == inp.stream.len() as u64
        && recorded.is_none_or(|d| d == CellDigest::of(out));
    report.check(ok, || format!("ladder {} cell {cell}", workload.name()));
}

fn add_counts(sum: &mut PipelineStats, s: &PipelineStats) {
    sum.fetched_insts += s.fetched_insts;
    sum.committed_insts += s.committed_insts;
    sum.squashed_insts += s.squashed_insts;
    sum.recoveries += s.recoveries;
    sum.cycles += s.cycles;
    sum.icache_misses += s.icache_misses;
    sum.mispredicted_committed += s.mispredicted_committed;
}
