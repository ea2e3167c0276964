//! The `live` and `replay` workloads: closed loops over workload ×
//! predictor cells, each cell one call of a public run entry point.

use crate::expected::{CellDigest, Expected};
use crate::stats::{median, percentile};
use crate::{calib, timed_reps, Opts, Report, Workload};
use cestim_isa::{Machine, Step};
use cestim_pipeline::PipelineConfig;
use cestim_sim::{
    export_config_trace, run, run_trace, EstimatorSpec, PredictorKind, RunConfig, RunOutcome,
    SatVariantSpec, TraceRecord, EXPORT_MAX_STEPS,
};
use cestim_trace_io::{from_binary, to_binary, TraceClass};
use std::hint::black_box;
use std::time::Instant;

/// The ext-modern experiment's estimator roster, with the names its
/// ladder rungs report under.
pub fn modern_roster() -> Vec<(&'static str, EstimatorSpec)> {
    let satctr = EstimatorSpec::SatCtr {
        variant: SatVariantSpec::Selected,
    };
    let distance = EstimatorSpec::Distance { threshold: 3 };
    let timing = EstimatorSpec::Timing { threshold: 4 };
    vec![
        ("satctr", satctr.clone()),
        ("jrs", EstimatorSpec::jrs_paper()),
        ("distance", distance.clone()),
        ("timing", timing.clone()),
        (
            "vote",
            EstimatorSpec::Voting {
                components: vec![satctr, distance, timing],
                quorum: 2,
            },
        ),
    ]
}

/// The roster's specs alone.
pub fn roster_specs() -> Vec<EstimatorSpec> {
    modern_roster().into_iter().map(|(_, s)| s).collect()
}

/// Committed conditional branches in a trace.
pub fn cond_branches(records: &[TraceRecord]) -> u64 {
    records
        .iter()
        .filter(|r| r.class == TraceClass::CondBranch)
        .count() as u64
}

/// Conditional branches on the architectural path of a configuration's
/// program, counted by stepping the interpreter (no trace is kept).
pub fn architectural_branches(cfg: &RunConfig) -> u64 {
    let program = cfg.workload.build_salted(cfg.scale, cfg.input_salt).program;
    let mut machine = Machine::new(&program);
    let mut branches = 0;
    for step in 0..EXPORT_MAX_STEPS {
        match machine.step(&program) {
            Step::Branch { .. } => branches += 1,
            Step::Halt | Step::OutOfRange => break,
            _ => {}
        }
        // Nothing is ever rolled back: drop the undo history as we go.
        if step % 4096 == 0 {
            let now = machine.checkpoint();
            machine.release(&now);
        }
    }
    branches
}

/// The run configuration of one analog at this run's size and seed.
pub fn config(opts: &Opts, kind: cestim_workloads::WorkloadKind, p: PredictorKind) -> RunConfig {
    RunConfig::paper(kind, opts.size.scale, p).with_input_salt(opts.salt())
}

/// Exports, encodes and decodes every analog's committed trace
/// (`setup_reps` times). Returns each repetition's seconds and the
/// decoded traces, and checks each decode against its export.
pub fn export_traces(opts: &Opts, report: &mut Report) -> (Vec<f64>, Vec<Vec<TraceRecord>>) {
    let kinds = opts.size.analogs();
    let (secs, traces) = timed_reps(opts.size.setup_reps, || {
        kinds
            .iter()
            .map(|&k| {
                let exported = export_config_trace(&config(opts, k, PredictorKind::Gshare))
                    .unwrap_or_default();
                let decoded = from_binary(&to_binary(&exported)).unwrap_or_default();
                let round_trips = !exported.is_empty() && decoded == exported;
                (round_trips, decoded)
            })
            .collect::<Vec<_>>()
    });
    let mut out = Vec::with_capacity(traces.len());
    for (k, (round_trips, decoded)) in kinds.iter().zip(traces) {
        report.check(round_trips, || format!("trace round trip of {}", k.name()));
        out.push(decoded);
    }
    (secs, out)
}

/// Per-pass and per-operation host seconds of a closed loop.
#[derive(Debug, Default)]
pub struct Loop {
    /// Host seconds of each complete pass (operation time only).
    pub pass_secs: Vec<f64>,
    /// Host seconds of each operation.
    pub op_secs: Vec<f64>,
    /// Host slowdown around each operation (see [`crate::calib`]).
    pub op_slowdowns: Vec<f64>,
}

/// Runs complete passes of `n` operations back to back until `seconds`
/// have elapsed (at least one pass). Only `op` is timed, between two
/// calibrations; `after` checks its result outside the clock.
pub fn closed_loop<T>(
    seconds: f64,
    n: usize,
    mut op: impl FnMut(usize) -> T,
    mut after: impl FnMut(usize, T),
) -> Loop {
    let start = Instant::now();
    let mut l = Loop::default();
    loop {
        let mut pass = 0.0;
        for i in 0..n {
            let (dt, slowdown, out) = calib::timed(|| op(i));
            pass += dt;
            l.op_secs.push(dt);
            l.op_slowdowns.push(slowdown);
            after(i, out);
        }
        l.pass_secs.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            return l;
        }
    }
}

/// Reports the loop metrics shared by `live`, `replay` and `suite`: an
/// operation is one `ops` item, a pass is all of them once.
///
/// Each operation counts at the median over the passes of its time scaled
/// to a quiet host (host seconds over the slowdown measured around it),
/// and a pass at the sum of those. Over six 40-second `replay` runs in a
/// phase of heavy interference the raw sum of per-operation minima spread
/// 0.57 (quartile distance over median) and the raw sum of medians 0.36;
/// scaled, 0.17. The raw figures are printed next to the scaled ones.
pub fn report_loop(report: &mut Report, l: &Loop, ops: &str, n: usize, branches_per_pass: u64) {
    let passes = l.pass_secs.len();
    let mut raw = vec![Vec::with_capacity(passes); n];
    let mut scaled = vec![Vec::with_capacity(passes); n];
    for (k, (&t, &s)) in l.op_secs.iter().zip(&l.op_slowdowns).enumerate() {
        raw[k % n].push(t);
        scaled[k % n].push(t / s);
    }
    let typical: Vec<f64> = scaled.iter().map(|s| median(s)).collect();
    let regen: f64 = typical.iter().sum();
    let raw_regen: f64 = raw.iter().map(|s| median(s)).sum();
    report.metric(
        "branches_per_s",
        branches_per_pass as f64 / regen,
        "1/s",
        format!(
            "{branches_per_pass} committed branches per pass; host time {:.0}",
            branches_per_pass as f64 / raw_regen
        ),
    );
    report.metric(
        "requests_per_s",
        n as f64 / regen,
        "1/s",
        format!("{n} {ops} per pass; host time {:.3}", n as f64 / raw_regen),
    );
    let ms: Vec<f64> = typical.iter().map(|s| s * 1e3).collect();
    for (name, q) in [("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)] {
        report.metric(
            name,
            percentile(&ms, q),
            "ms",
            format!("exact over the n={n} {ops}, each its median of {passes} passes"),
        );
    }
    report.metric(
        "regen_s",
        regen,
        "s",
        format!(
            "each of {n} {ops} at its median of {passes} passes; host time {raw_regen:.3} s, \
             median slowdown {:.2}",
            median(&l.op_slowdowns)
        ),
    );
}

/// Checks cell outcomes: the committed branch count must match the
/// interpreter's, every pass must repeat the first, and a recorded seed must
/// repeat its recorded digest.
struct CellChecker<'a> {
    workload: Workload,
    opts: &'a Opts,
    expected: &'a Expected,
    first: Vec<Option<RunOutcome>>,
}

impl CellChecker<'_> {
    fn check(
        &mut self,
        report: &mut Report,
        i: usize,
        name: &str,
        reference: u64,
        out: RunOutcome,
    ) {
        let digest = CellDigest::of(&out);
        let recorded =
            self.expected
                .cell(self.workload, self.opts.size.scale, self.opts.seed, name);
        let first = self.first[i].get_or_insert_with(|| out.clone());
        let ok = out.stats.committed_branches == reference
            && *first == out
            && recorded.is_none_or(|d| d == digest);
        report.check(ok, || {
            format!(
                "{} cell {name}: {digest:?}, recorded {recorded:?}, architectural branches {reference}",
                self.workload.name()
            )
        });
    }
}

struct Cell {
    name: String,
    analog: usize,
    predictor: PredictorKind,
}

fn cells(opts: &Opts, predictors: &[PredictorKind]) -> Vec<Cell> {
    let mut out = Vec::new();
    for &predictor in predictors {
        for (analog, k) in opts.size.analogs().into_iter().enumerate() {
            out.push(Cell {
                name: format!("{}/{}", k.name(), predictor.name()),
                analog,
                predictor,
            });
        }
    }
    out
}

/// The `live` workload.
pub fn live(opts: &Opts, expected: &Expected, report: &mut Report) {
    let kinds = opts.size.analogs();
    let (setup, ()) = timed_reps(opts.size.setup_reps, || {
        for &k in &kinds {
            black_box(k.build_salted(opts.size.scale, opts.salt()));
        }
    });
    let reference: Vec<u64> = kinds
        .iter()
        .map(|&k| architectural_branches(&config(opts, k, PredictorKind::Gshare)))
        .collect();
    let cells = cells(opts, &PredictorKind::paper_three());
    let configs: Vec<RunConfig> = cells
        .iter()
        .map(|c| config(opts, kinds[c.analog], c.predictor))
        .collect();
    let specs = [EstimatorSpec::jrs_paper()];
    let mut checker = CellChecker {
        workload: Workload::Live,
        opts,
        expected,
        first: vec![None; cells.len()],
    };
    let l = closed_loop(
        opts.seconds,
        cells.len(),
        |i| run(&configs[i], &specs),
        |i, out| checker.check(report, i, &cells[i].name, reference[cells[i].analog], out),
    );
    let per_pass = cells.iter().map(|c| reference[c.analog]).sum();
    report_loop(report, &l, "cells", cells.len(), per_pass);
    report.setup_and_memory(&setup);
}

/// The `replay` workload.
pub fn replay(opts: &Opts, expected: &Expected, report: &mut Report) {
    let (setup, traces) = export_traces(opts, report);
    let reference: Vec<u64> = traces.iter().map(|t| cond_branches(t)).collect();
    let cells = cells(opts, &PredictorKind::modern_two());
    let pipeline = PipelineConfig::paper();
    let specs = roster_specs();
    let mut checker = CellChecker {
        workload: Workload::Replay,
        opts,
        expected,
        first: vec![None; cells.len()],
    };
    let l = closed_loop(
        opts.seconds,
        cells.len(),
        |i| {
            run_trace(
                &traces[cells[i].analog],
                cells[i].predictor,
                &pipeline,
                &specs,
            )
        },
        |i, out| checker.check(report, i, &cells[i].name, reference[cells[i].analog], out),
    );
    let per_pass = cells.iter().map(|c| reference[c.analog]).sum();
    report_loop(report, &l, "cells", cells.len(), per_pass);
    report.setup_and_memory(&setup);
}

/// One outcome per cell of `opts.workload` (`live` or `replay`), for
/// recording.
pub fn outcomes(opts: &Opts) -> Vec<(String, RunOutcome)> {
    let kinds = opts.size.analogs();
    match opts.workload {
        Workload::Live => cells(opts, &PredictorKind::paper_three())
            .into_iter()
            .map(|c| {
                let cfg = config(opts, kinds[c.analog], c.predictor);
                (c.name, run(&cfg, &[EstimatorSpec::jrs_paper()]))
            })
            .collect(),
        _ => {
            let (_, traces) = export_traces(opts, &mut Report::default());
            let specs = roster_specs();
            cells(opts, &PredictorKind::modern_two())
                .into_iter()
                .map(|c| {
                    let out = run_trace(
                        &traces[c.analog],
                        c.predictor,
                        &PipelineConfig::paper(),
                        &specs,
                    );
                    (c.name, out)
                })
                .collect()
        }
    }
}
