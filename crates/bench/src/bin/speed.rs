//! Pipeline-throughput measurement harness, plus the experiment perf
//! baseline.
//!
//! ```text
//! speed [scale] [--reps N] [--warmup N] [--predictors a,b] [--json FILE]
//!       [--note TEXT] [--check BASELINE.json] [--tolerance PCT]
//!       [--trace-out FILE] [--metrics-out FILE] [--obs-summary]
//!       [--trace-in FILE]...
//! speed [scale] --bench [--jobs N] [--out DIR] [--experiments id,id,...]
//! ```
//!
//! The default mode is a statistically robust speed harness: for every
//! workload × predictor cell it runs `--warmup` untimed passes followed by
//! `--reps` timed passes of the full pipeline (gshare + the paper's JRS
//! estimator by default), reports the **median** and **MAD** (median
//! absolute deviation) of branches-per-second, and appends one trajectory
//! entry to a machine-readable JSON file (default `BENCH_speed.json` in
//! the current directory). Median/MAD are used instead of mean/stddev so a
//! single noisy rep — a scheduler hiccup, a page-cache miss — cannot move
//! the recorded figure.
//!
//! * `--reps N` / `--warmup N` — timed and untimed repetitions (default
//!   5 / 1).
//! * `--predictors a,b,c` — predictor cells to measure (default `gshare`;
//!   accepts `gshare,mcfarling,sag,bimodal`).
//! * `--json FILE` — trajectory file to append to (`-` disables writing).
//! * `--note TEXT` — free-form note stored with the trajectory entry.
//! * `--check BASELINE.json` — compare this run against the **last** run
//!   recorded in BASELINE at the same scale and exit non-zero when any
//!   cell's median branches/sec regressed by more than `--tolerance` PCT
//!   (default 10). Cells whose baseline is too noisy (MAD > 20 % of the
//!   median) are skipped rather than allowed to flake the gate. A cell
//!   whose committed branches, committed instructions or cycles differ
//!   from the baseline cell's fails as `DRIFT`, noisy or not: the counts
//!   are deterministic for a given scale.
//! * `--trace-out` / `--metrics-out` / `--obs-summary` — run one extra
//!   *instrumented* pass per workload and export its trace/metrics/stats
//!   summary; the timed reps always run uninstrumented.
//! * `--trace-perfetto FILE` / `--prom-out FILE` — causal span trace
//!   (Perfetto/Chrome `trace_event` JSON) and Prometheus text exposition
//!   from the instrumented pass (see `docs/OBSERVABILITY.md`).
//! * `--overhead` — measure the tracing A/B overhead cell (interleaved
//!   tracing-off/tracing-on passes of compress × gshare) and record it
//!   in the trajectory entry under `overhead`.
//! * `--overhead-max PCT` — implies `--overhead`; exit non-zero when the
//!   traced arm's median slowdown exceeds `PCT` percent.
//! * `--trace-in FILE` (repeatable) — additionally measure imported-trace
//!   replay cells: each file is imported once (either `cestim-trace-io`
//!   encoding) and timed through the `TraceSimulator` replay frontend for
//!   every selected predictor. Trace cells are labelled
//!   `trace:<file-stem>` in the output and the trajectory JSON, so they
//!   never collide with (or gate against) live workload cells.
//!
//! `--bench` instead times experiment regeneration through the
//! `cestim-exec` engine — serial versus `--jobs N` (cache-cold) versus
//! cache-warm — and writes the machine-readable baseline to
//! `<out>/bench.json`:
//!
//! * `--jobs N` — worker count for the parallel passes (default: the
//!   `CESTIM_JOBS` env var, else available parallelism).
//! * `--out DIR` — output directory (default `results/`); the bench cache
//!   lives under `<out>/bench-cache` and is cleared afterwards.
//! * `--experiments a,b,c` — subset of experiment ids (default: all).

use cestim_exec::{default_workers, CachePolicy, Executor};
use cestim_obs::span::{self, SpanCollector, SpanId};
use cestim_obs::{Registry, TraceWriter, Tracer};
use cestim_pipeline::{PipelineConfig, PipelineStats, Simulator, TraceSimulator};
use cestim_sim::{suite, PredictorKind};
use cestim_workloads::WorkloadKind;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Schema tag written into the trajectory file.
const SPEED_SCHEMA: &str = "cestim-bench-speed/1";
/// Baseline cells noisier than this (MAD / median) are excluded from the
/// `--check` regression gate.
const NOISE_GUARD: f64 = 0.20;

struct Args {
    scale: u32,
    reps: u32,
    warmup: u32,
    predictors: Vec<PredictorKind>,
    json: Option<PathBuf>,
    note: Option<String>,
    check: Option<PathBuf>,
    tolerance: f64,
    bench: bool,
    jobs: Option<usize>,
    out: PathBuf,
    experiments: Option<Vec<String>>,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    obs_summary: bool,
    trace_perfetto: Option<PathBuf>,
    prom_out: Option<PathBuf>,
    overhead: bool,
    overhead_max: Option<f64>,
    trace_in: Vec<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: speed [scale] [--reps N] [--warmup N] [--predictors a,b] [--json FILE]\n\
         \x20             [--note TEXT] [--check BASELINE.json] [--tolerance PCT]\n\
         \x20             [--trace-out FILE] [--metrics-out FILE] [--obs-summary]\n\
         \x20             [--trace-perfetto FILE] [--prom-out FILE]\n\
         \x20             [--overhead] [--overhead-max PCT] [--trace-in FILE]...\n\
         \x20      speed [scale] --bench [--jobs N] [--out DIR] [--experiments id,id,...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 4,
        reps: 5,
        warmup: 1,
        predictors: vec![PredictorKind::Gshare],
        json: Some(PathBuf::from("BENCH_speed.json")),
        note: None,
        check: None,
        tolerance: 10.0,
        bench: false,
        jobs: None,
        out: PathBuf::from("results"),
        experiments: None,
        trace_out: None,
        metrics_out: None,
        obs_summary: false,
        trace_perfetto: None,
        prom_out: None,
        overhead: false,
        overhead_max: None,
        trace_in: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--bench" => args.bench = true,
            "--reps" => {
                args.reps = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--warmup" => {
                args.warmup = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--predictors" => {
                let list = argv.next().unwrap_or_else(|| usage());
                args.predictors = list
                    .split(',')
                    .map(|p| PredictorKind::from_name(p.trim()).unwrap_or_else(|| usage()))
                    .collect();
                if args.predictors.is_empty() {
                    usage();
                }
            }
            "--json" => {
                let v = argv.next().unwrap_or_else(|| usage());
                args.json = (v != "-").then(|| PathBuf::from(v));
            }
            "--note" => args.note = Some(argv.next().unwrap_or_else(|| usage())),
            "--check" => args.check = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage()))),
            "--tolerance" => {
                args.tolerance = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                    .unwrap_or_else(|| usage());
            }
            "--jobs" => {
                args.jobs = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--out" => args.out = PathBuf::from(argv.next().unwrap_or_else(|| usage())),
            "--experiments" => {
                let list = argv.next().unwrap_or_else(|| usage());
                args.experiments = Some(list.split(',').map(str::to_string).collect());
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--obs-summary" => args.obs_summary = true,
            "--trace-perfetto" => {
                args.trace_perfetto = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--prom-out" => {
                args.prom_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--trace-in" => {
                args.trace_in
                    .push(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--overhead" => args.overhead = true,
            "--overhead-max" => {
                args.overhead = true;
                args.overhead_max = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&t: &f64| t.is_finite() && t >= 0.0)
                        .unwrap_or_else(|| usage()),
                );
            }
            "-h" | "--help" => usage(),
            other => match other.parse() {
                Ok(scale) => args.scale = scale,
                Err(_) => usage(),
            },
        }
    }
    args
}

/// Times one experiment three ways — serial (no cache), parallel with a
/// cold cache, parallel again with the warm cache — and checks that the
/// parallel output is byte-identical to the serial one.
fn bench_experiment(
    id: &str,
    scale: u32,
    jobs: usize,
    cache_dir: &std::path::Path,
) -> std::io::Result<serde_json::Value> {
    let serial_exec = Executor::sequential();
    let t = Instant::now();
    let serial = suite::run_experiment_with(&serial_exec, id, scale)
        .ok_or_else(|| std::io::Error::other(format!("unknown experiment '{id}'")))?;
    let serial_seconds = t.elapsed().as_secs_f64();

    // Refresh skips cache reads, so this pass is cold even when an earlier
    // experiment already stored overlapping jobs; it still writes, warming
    // the cache for the third pass.
    let cold_exec = Executor::new(jobs).with_cache(cache_dir, CachePolicy::Refresh)?;
    let t = Instant::now();
    let cold = suite::run_experiment_with(&cold_exec, id, scale).expect("id validated above");
    let parallel_seconds = t.elapsed().as_secs_f64();
    let identical = serial.text == cold.text && serial.json == cold.json;

    let warm_exec = Executor::new(jobs).with_cache(cache_dir, CachePolicy::ReadWrite)?;
    let t = Instant::now();
    let warm = suite::run_experiment_with(&warm_exec, id, scale).expect("id validated above");
    let warm_seconds = t.elapsed().as_secs_f64();
    let warm_report = warm_exec.report();
    let warm_identical = serial.text == warm.text;

    let speedup = serial_seconds / parallel_seconds.max(1e-9);
    println!(
        "{id:14} serial={serial_seconds:7.3}s jobs={jobs} cold={parallel_seconds:7.3}s \
         warm={warm_seconds:7.3}s speedup={speedup:5.2}x identical={}",
        identical && warm_identical
    );
    Ok(serde_json::json!({
        "id": id,
        "serial_seconds": serial_seconds,
        "parallel_cold_seconds": parallel_seconds,
        "parallel_warm_seconds": warm_seconds,
        "speedup": speedup,
        "warm_cache_hits": warm_report.cache_hits,
        "warm_executed": warm_report.executed,
        "identical": identical && warm_identical,
    }))
}

/// `--bench` mode: per-experiment serial / parallel-cold / parallel-warm
/// wall-clock, written to `<out>/bench.json`.
fn run_bench(args: &Args) -> std::io::Result<()> {
    let jobs = args.jobs.unwrap_or_else(default_workers);
    let ids: Vec<String> = match &args.experiments {
        Some(list) => list.clone(),
        None => suite::all_ids().iter().map(|s| s.to_string()).collect(),
    };
    let cache_dir = args.out.join("bench-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);

    println!(
        "benchmarking {} experiment{} at scale {} with {jobs} worker{}",
        ids.len(),
        if ids.len() == 1 { "" } else { "s" },
        args.scale,
        if jobs == 1 { "" } else { "s" },
    );
    let mut rows = Vec::new();
    let mut serial_total = 0.0;
    let mut cold_total = 0.0;
    let mut warm_total = 0.0;
    let mut all_identical = true;
    let mut warm_executed_total = 0u64;
    for id in &ids {
        let row = bench_experiment(id, args.scale, jobs, &cache_dir)?;
        serial_total += row["serial_seconds"].as_f64().unwrap_or(0.0);
        cold_total += row["parallel_cold_seconds"].as_f64().unwrap_or(0.0);
        warm_total += row["parallel_warm_seconds"].as_f64().unwrap_or(0.0);
        all_identical &= row["identical"].as_bool().unwrap_or(false);
        warm_executed_total += row["warm_executed"].as_u64().unwrap_or(0);
        rows.push(row);
    }
    let _ = std::fs::remove_dir_all(&cache_dir);

    let speedup = serial_total / cold_total.max(1e-9);
    let warm_speedup = serial_total / warm_total.max(1e-9);
    println!(
        "total          serial={serial_total:7.3}s cold={cold_total:7.3}s \
         warm={warm_total:7.3}s speedup={speedup:5.2}x warm-speedup={warm_speedup:5.2}x"
    );
    if !all_identical {
        eprintln!("error: parallel output diverged from serial output");
    }
    if warm_executed_total > 0 {
        eprintln!("error: warm-cache passes still executed {warm_executed_total} job(s)");
    }

    // Parallel speedup is bounded by the host's core count; record it so
    // the numbers stay interpretable (on a 1-core host cold ≈ serial and
    // only the warm-cache pass shows a win).
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let bench = serde_json::json!({
        "scale": args.scale,
        "jobs": jobs,
        "host_parallelism": host_parallelism,
        "experiments": rows,
        "totals": {
            "serial_seconds": serial_total,
            "parallel_cold_seconds": cold_total,
            "parallel_warm_seconds": warm_total,
            "speedup": speedup,
            "warm_speedup": warm_speedup,
            "warm_executed": warm_executed_total,
            "identical": all_identical,
        },
    });
    cestim_bench::write_bench(&args.out, &bench)?;
    println!("[bench -> {}]", args.out.join("bench.json").display());
    if !all_identical || warm_executed_total > 0 {
        return Err(std::io::Error::other("bench invariants violated"));
    }
    Ok(())
}

/// Median of a sample (the sample is sorted in place).
fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty());
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Median absolute deviation about `center`.
fn mad(xs: &[f64], center: f64) -> f64 {
    let mut dev: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&mut dev)
}

/// One timed pass of a workload through the full pipeline. Returns the
/// run's stats and its wall-clock seconds.
fn one_pass(program: &cestim_isa::Program, predictor: PredictorKind) -> (PipelineStats, f64) {
    let t = Instant::now();
    let mut sim = Simulator::new(program, PipelineConfig::paper(), predictor.build_any());
    sim.add_estimator(cestim_core::Jrs::paper_enhanced());
    let stats = sim.run_to_completion();
    (stats, t.elapsed().as_secs_f64())
}

/// Measures one workload × predictor cell: `warmup` untimed passes, then
/// `reps` timed passes; reports median/MAD branches-per-second.
fn measure_cell(
    kind: WorkloadKind,
    predictor: PredictorKind,
    scale: u32,
    warmup: u32,
    reps: u32,
) -> Value {
    let w = kind.build(scale);
    for _ in 0..warmup {
        let _ = one_pass(&w.program, predictor);
    }
    let mut bps = Vec::with_capacity(reps as usize);
    let mut ips = Vec::with_capacity(reps as usize);
    let mut stats = PipelineStats::default();
    for _ in 0..reps {
        let (s, dt) = one_pass(&w.program, predictor);
        bps.push(s.committed_branches as f64 / dt.max(1e-12));
        ips.push(s.committed_insts as f64 / dt.max(1e-12));
        stats = s;
    }
    let med_bps = median(&mut bps.clone());
    let mad_bps = mad(&bps, med_bps);
    let med_ips = median(&mut ips.clone());
    println!(
        "{:10} {:10} br={:9} insts={:10} {:8.3} ± {:6.3} Mbr/s  {:6.1} M inst/s",
        kind.name(),
        predictor.name(),
        stats.committed_branches,
        stats.committed_insts,
        med_bps / 1e6,
        mad_bps / 1e6,
        med_ips / 1e6,
    );
    json!({
        "workload": kind.name(),
        "predictor": predictor.name(),
        "committed_branches": stats.committed_branches,
        "committed_insts": stats.committed_insts,
        "cycles": stats.cycles,
        "bps_reps": bps,
        "median_bps": med_bps,
        "mad_bps": mad_bps,
        "median_ips": med_ips,
    })
}

/// One timed pass of an imported trace through the replay frontend.
/// Mirrors `one_pass` (same pipeline config, same estimator) so trace
/// cells are comparable to live cells in shape, if not in label.
fn one_trace_pass(
    records: &[cestim_trace_io::TraceRecord],
    predictor: PredictorKind,
) -> (PipelineStats, f64) {
    let t = Instant::now();
    let mut sim = TraceSimulator::new(records, PipelineConfig::paper(), predictor.build_any());
    sim.add_estimator(cestim_core::Jrs::paper_enhanced());
    let stats = sim.run_to_completion();
    (stats, t.elapsed().as_secs_f64())
}

/// Measures one imported-trace × predictor cell. The trace is decoded
/// once up front (decode time is not part of the measurement) and the
/// cell's workload is labelled `trace:<file-stem>` so it never aliases a
/// live workload cell in the trajectory or the `--check` gate.
fn measure_trace_cell(
    path: &Path,
    records: &[cestim_trace_io::TraceRecord],
    predictor: PredictorKind,
    warmup: u32,
    reps: u32,
) -> Value {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string());
    let label = format!("trace:{stem}");
    for _ in 0..warmup {
        let _ = one_trace_pass(records, predictor);
    }
    let mut bps = Vec::with_capacity(reps as usize);
    let mut ips = Vec::with_capacity(reps as usize);
    let mut stats = PipelineStats::default();
    for _ in 0..reps {
        let (s, dt) = one_trace_pass(records, predictor);
        bps.push(s.committed_branches as f64 / dt.max(1e-12));
        ips.push(s.committed_insts as f64 / dt.max(1e-12));
        stats = s;
    }
    let med_bps = median(&mut bps.clone());
    let mad_bps = mad(&bps, med_bps);
    let med_ips = median(&mut ips.clone());
    println!(
        "{:10} {:10} br={:9} insts={:10} {:8.3} ± {:6.3} Mbr/s  {:6.1} M inst/s",
        label,
        predictor.name(),
        stats.committed_branches,
        stats.committed_insts,
        med_bps / 1e6,
        mad_bps / 1e6,
        med_ips / 1e6,
    );
    json!({
        "workload": label,
        "predictor": predictor.name(),
        "trace_file": path.display().to_string(),
        "trace_hash": cestim_trace_io::content_hash_hex(records),
        "records": records.len(),
        "committed_branches": stats.committed_branches,
        "committed_insts": stats.committed_insts,
        "cycles": stats.cycles,
        "bps_reps": bps,
        "median_bps": med_bps,
        "mad_bps": mad_bps,
        "median_ips": med_ips,
    })
}

/// One pass of the overhead cell: the compress workload on gshare, with
/// span tracing either absent (`spans: None` — the production default,
/// every instrumentation point short-circuits on a disabled check) or
/// fully on (ambient context + one `sim.run` span around the run).
fn overhead_pass(program: &cestim_isa::Program, spans: Option<&SpanCollector>) -> f64 {
    let t = Instant::now();
    let mut sim = Simulator::new(
        program,
        PipelineConfig::paper(),
        PredictorKind::Gshare.build_any(),
    );
    sim.add_estimator(cestim_core::Jrs::paper_enhanced());
    let _ambient = spans.map(|c| span::set_ambient(c, SpanId::NONE, "main"));
    let _span = span::AmbientSpan::enter("sim.run", &[("workload", "compress")]);
    let stats = sim.run_to_completion();
    let dt = t.elapsed().as_secs_f64();
    stats.committed_branches as f64 / dt.max(1e-12)
}

/// The tracing A/B overhead cell: interleaved off/on passes of the same
/// workload, reporting median branches/sec for both arms and the relative
/// slowdown of the traced arm. Interleaving (off, on, off, on, ...)
/// instead of batching keeps slow thermal/cache drift out of the A−B
/// difference.
fn measure_overhead(scale: u32, warmup: u32, reps: u32) -> Value {
    let w = WorkloadKind::Compress.build(scale);
    let spans = SpanCollector::new();
    for _ in 0..warmup {
        let _ = overhead_pass(&w.program, None);
        let _ = overhead_pass(&w.program, Some(&spans));
        let _ = spans.drain();
    }
    let mut off = Vec::with_capacity(reps as usize);
    let mut on = Vec::with_capacity(reps as usize);
    let mut span_count = 0usize;
    for _ in 0..reps {
        off.push(overhead_pass(&w.program, None));
        on.push(overhead_pass(&w.program, Some(&spans)));
        span_count = spans.drain().len();
    }
    let med_off = median(&mut off.clone());
    let med_on = median(&mut on.clone());
    let on_overhead_pct = 100.0 * (med_off / med_on.max(1e-12) - 1.0);
    println!(
        "overhead   compress   gshare     off={:8.3} Mbr/s  on={:8.3} Mbr/s  \
         traced-run overhead {:+.2}% ({span_count} spans/run)",
        med_off / 1e6,
        med_on / 1e6,
        on_overhead_pct,
    );
    json!({
        "workload": "compress",
        "predictor": "gshare",
        "off_median_bps": med_off,
        "off_mad_bps": mad(&off, med_off),
        "on_median_bps": med_on,
        "on_mad_bps": mad(&on, med_on),
        "on_overhead_pct": on_overhead_pct,
        "spans_per_run": span_count,
    })
}

/// One optional *instrumented* pass per workload, for `--trace-out`,
/// `--metrics-out`, and `--obs-summary`. Kept out of the timed reps so
/// instrumentation cost never pollutes the recorded figures.
fn run_instrumented(args: &Args) -> std::io::Result<()> {
    let registry = Registry::new();
    let mut trace_writer = match &args.trace_out {
        Some(path) => {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)?;
            }
            Some(TraceWriter::new(std::io::BufWriter::new(
                std::fs::File::create(path)?,
            )))
        }
        None => None,
    };
    let spans = if args.trace_perfetto.is_some() {
        SpanCollector::new()
    } else {
        SpanCollector::disabled()
    };
    let scale_label = args.scale.to_string();
    for k in WorkloadKind::all() {
        let w = k.build(args.scale);
        let mut sim = Simulator::new(
            &w.program,
            PipelineConfig::paper(),
            PredictorKind::Gshare.build_any(),
        );
        sim.add_estimator(cestim_core::Jrs::paper_enhanced());
        let mut tracer = if trace_writer.is_some() {
            Tracer::unbounded()
        } else {
            Tracer::disabled()
        };
        {
            let mut buf = spans.buffer("main");
            let mut root = buf.open("speed.workload", SpanId::NONE, &[]);
            if root.id().is_some() {
                root.label("workload", k.name());
            }
            let _ambient = spans
                .enabled()
                .then(|| span::set_ambient(&spans, root.id(), "main"));
            let stats = sim.run(&mut tracer);
            if args.obs_summary {
                println!("-- {} --", k.name());
                print!("{}", cestim_bench::stats_summary(&stats));
            }
            drop(_ambient);
            buf.close(root);
        }
        if let Some(writer) = &mut trace_writer {
            for ev in tracer.events() {
                writer.write(ev)?;
            }
        }
        if args.metrics_out.is_some() || args.prom_out.is_some() {
            sim.export_metrics(
                &registry,
                &[
                    ("workload", k.name()),
                    ("predictor", "gshare"),
                    ("scale", scale_label.as_str()),
                ],
            );
        }
    }
    if let Some(path) = &args.trace_perfetto {
        let n = cestim_bench::write_perfetto(path, &spans.drain())?;
        println!("[perfetto: {n} spans -> {}]", path.display());
    }
    if let Some(path) = &args.prom_out {
        cestim_bench::write_prometheus(path, &registry.snapshot())?;
        println!("[prometheus -> {}]", path.display());
    }
    if let Some(writer) = trace_writer {
        let n = writer.written();
        writer.finish()?;
        let path = args.trace_out.as_ref().expect("writer implies path");
        println!("[trace: {n} events -> {}]", path.display());
    }
    if let Some(path) = &args.metrics_out {
        cestim_bench::write_metrics(path, &registry.snapshot())?;
        println!("[metrics -> {}]", path.display());
    }
    Ok(())
}

/// Loads a trajectory file, returning its `runs` array (empty when the
/// file does not exist yet).
fn load_trajectory(path: &Path) -> std::io::Result<Vec<Value>> {
    match std::fs::read_to_string(path) {
        Ok(text) => {
            let doc: Value = serde_json::from_str(&text)
                .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
            if doc["schema"] != SPEED_SCHEMA {
                return Err(std::io::Error::other(format!(
                    "{}: unexpected schema {:?} (want {SPEED_SCHEMA:?})",
                    path.display(),
                    doc["schema"]
                )));
            }
            match doc["runs"] {
                Value::Array(ref runs) => Ok(runs.clone()),
                _ => Err(std::io::Error::other(format!(
                    "{}: missing runs array",
                    path.display()
                ))),
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Appends `run` to the trajectory file at `path` (created on first use).
fn append_trajectory(path: &Path, run: Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut runs = load_trajectory(path)?;
    runs.push(run);
    let doc = json!({ "schema": SPEED_SCHEMA, "runs": runs });
    let mut text =
        serde_json::to_string_pretty(&doc).map_err(|e| std::io::Error::other(e.to_string()))?;
    text.push('\n');
    std::fs::write(path, text)
}

/// Compares `current` against the last same-scale run in `baseline_path`.
/// Returns the number of failed (regressed or drifted) cells.
fn check_regression(
    current: &Value,
    baseline_path: &Path,
    tolerance_pct: f64,
) -> std::io::Result<usize> {
    let runs = load_trajectory(baseline_path)?;
    let scale = current["scale"].as_u64();
    let baseline = runs
        .iter()
        .rev()
        .find(|r| r["scale"].as_u64() == scale)
        .ok_or_else(|| {
            std::io::Error::other(format!(
                "{}: no baseline run at scale {}",
                baseline_path.display(),
                scale.unwrap_or(0)
            ))
        })?;
    Ok(compare_runs(current, baseline, tolerance_pct))
}

/// The deterministic per-cell counts the `DRIFT` gate compares.
const COUNT_KEYS: [&str; 3] = ["committed_branches", "committed_insts", "cycles"];

/// Checks every cell of `current` against the same cell of `baseline`,
/// printing one verdict line each; returns the number of failed cells.
fn compare_runs(current: &Value, baseline: &Value, tolerance_pct: f64) -> usize {
    let cell_key = |c: &Value| {
        (
            c["workload"].as_str().unwrap_or("").to_string(),
            c["predictor"].as_str().unwrap_or("").to_string(),
        )
    };
    let base_cells: std::collections::BTreeMap<_, &Value> = baseline["cells"]
        .as_array()
        .map(|cs| cs.iter().map(|c| (cell_key(c), c)).collect())
        .unwrap_or_default();

    let mut regressed = 0usize;
    let mut drifted = 0usize;
    let mut compared = 0usize;
    let mut skipped = 0usize;
    for cell in current["cells"].as_array().into_iter().flatten() {
        let Some(base) = base_cells.get(&cell_key(cell)) else {
            continue;
        };
        let (wl, pred) = cell_key(cell);
        let drift: Vec<String> = COUNT_KEYS
            .iter()
            .filter(|k| cell[**k] != base[**k])
            .map(|k| format!("{k} {} -> {}", base[*k], cell[*k]))
            .collect();
        if !drift.is_empty() {
            drifted += 1;
            println!("check {wl:10} {pred:10} DRIFT     {}", drift.join(", "));
            continue;
        }
        let base_med = base["median_bps"].as_f64().unwrap_or(0.0);
        let base_mad = base["mad_bps"].as_f64().unwrap_or(0.0);
        let cur_med = cell["median_bps"].as_f64().unwrap_or(0.0);
        if base_med <= 0.0 || base_mad / base_med > NOISE_GUARD {
            println!(
                "check {wl:10} {pred:10} SKIP (baseline too noisy: MAD {:.0}% of median)",
                100.0 * base_mad / base_med.max(1e-12)
            );
            skipped += 1;
            continue;
        }
        compared += 1;
        let floor = base_med * (1.0 - tolerance_pct / 100.0);
        let ratio = cur_med / base_med;
        if cur_med < floor {
            regressed += 1;
            println!(
                "check {wl:10} {pred:10} REGRESSED {:.3} -> {:.3} Mbr/s ({:.1}% of baseline, floor {:.1}%)",
                base_med / 1e6,
                cur_med / 1e6,
                100.0 * ratio,
                100.0 - tolerance_pct,
            );
        } else {
            println!(
                "check {wl:10} {pred:10} ok        {:.3} -> {:.3} Mbr/s ({:.1}% of baseline)",
                base_med / 1e6,
                cur_med / 1e6,
                100.0 * ratio,
            );
        }
    }
    println!(
        "check: {compared} compared, {skipped} skipped (noise), {regressed} regressed \
         (tolerance {tolerance_pct}%), {drifted} drifted"
    );
    regressed + drifted
}

/// Default mode: the workload × predictor speed harness.
fn run_speed(args: &Args) -> std::io::Result<()> {
    println!(
        "speed harness: scale={} reps={} warmup={} predictors={}",
        args.scale,
        args.reps,
        args.warmup,
        args.predictors
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(","),
    );
    let mut cells = Vec::new();
    for &p in &args.predictors {
        for k in WorkloadKind::all() {
            cells.push(measure_cell(k, p, args.scale, args.warmup, args.reps));
        }
    }
    for path in &args.trace_in {
        let bytes = std::fs::read(path)?;
        let records = cestim_trace_io::from_bytes(&bytes)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))?;
        for &p in &args.predictors {
            cells.push(measure_trace_cell(
                path,
                &records,
                p,
                args.warmup,
                args.reps,
            ));
        }
    }
    let total_bps: f64 = cells.iter().filter_map(|c| c["median_bps"].as_f64()).sum();
    let total_ips: f64 = cells.iter().filter_map(|c| c["median_ips"].as_f64()).sum();
    println!(
        "total: {:.3} Mbr/s, {:.1} M inst/s (sum of per-cell medians)",
        total_bps / 1e6,
        total_ips / 1e6
    );

    let overhead = args
        .overhead
        .then(|| measure_overhead(args.scale, args.warmup, args.reps));

    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = json!({
        "timestamp_unix": timestamp,
        "scale": args.scale,
        "reps": args.reps,
        "warmup": args.warmup,
        "note": args.note,
        "cells": cells,
        "overhead": overhead,
        "totals": { "median_bps_sum": total_bps, "median_ips_sum": total_ips },
    });

    if args.trace_out.is_some()
        || args.metrics_out.is_some()
        || args.obs_summary
        || args.trace_perfetto.is_some()
        || args.prom_out.is_some()
    {
        run_instrumented(args)?;
    }

    if let Some(path) = &args.json {
        append_trajectory(path, run.clone())?;
        println!("[trajectory -> {}]", path.display());
    }

    if let Some(baseline) = &args.check {
        let failed = check_regression(&run, baseline, args.tolerance)?;
        if failed > 0 {
            return Err(std::io::Error::other(format!(
                "{failed} cell(s) regressed beyond {}% tolerance or drifted",
                args.tolerance
            )));
        }
    }

    if let (Some(max), Some(cell)) = (args.overhead_max, run["overhead"].as_object()) {
        let pct = cell
            .get("on_overhead_pct")
            .and_then(Value::as_f64)
            .unwrap_or(f64::INFINITY);
        if pct > max {
            return Err(std::io::Error::other(format!(
                "traced-run overhead {pct:.2}% exceeds --overhead-max {max}%"
            )));
        }
    }
    Ok(())
}

fn run() -> std::io::Result<()> {
    let args = parse_args();
    if args.bench {
        run_bench(&args)
    } else {
        run_speed(&args)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A compress × gshare cell with the given timing and counts
    /// (committed branches, committed instructions, cycles).
    fn cell(median_bps: f64, mad_bps: f64, counts: [u64; 3]) -> Value {
        json!({
            "workload": "compress",
            "predictor": "gshare",
            "median_bps": median_bps,
            "mad_bps": mad_bps,
            "committed_branches": counts[0],
            "committed_insts": counts[1],
            "cycles": counts[2],
        })
    }

    fn run(cell: Value) -> Value {
        json!({ "scale": 1, "cells": [cell] })
    }

    const COUNTS: [u64; 3] = [1_000, 9_000, 12_000];

    #[test]
    fn unchanged_counts_and_medians_pass() {
        let base = run(cell(1e6, 1e4, COUNTS));
        assert_eq!(compare_runs(&run(cell(1e6, 1e4, COUNTS)), &base, 10.0), 0);
    }

    #[test]
    fn slower_median_regresses() {
        let base = run(cell(1e6, 1e4, COUNTS));
        assert_eq!(compare_runs(&run(cell(5e5, 1e4, COUNTS)), &base, 10.0), 1);
    }

    #[test]
    fn count_drift_fails_even_when_the_noise_guard_skips_timing() {
        let current = run(cell(1e6, 1e4, COUNTS));
        for i in 0..COUNTS.len() {
            let mut counts = COUNTS;
            counts[i] += 1;
            // Doctored baseline: one count off, and a MAD far beyond the
            // noise guard so the timing comparison alone would skip it.
            let noisy = run(cell(1e6, 5e5, counts));
            assert_eq!(compare_runs(&current, &noisy, 10.0), 1, "{}", COUNT_KEYS[i]);
        }
        let noisy = run(cell(1e6, 5e5, COUNTS));
        assert_eq!(compare_runs(&current, &noisy, 10.0), 0, "noise alone skips");
    }
}
