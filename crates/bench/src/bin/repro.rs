//! Regenerates the paper's tables and figures, with optional run telemetry.
//!
//! ```text
//! repro [--scale N] [--out DIR] [--jobs N] [--no-cache | --refresh]
//!       [--cache-dir DIR] <experiment>...
//! repro all
//! repro --list
//! repro [--scale N] [--workload NAME] [--trace-out FILE]
//!       [--metrics-out FILE] [--obs-summary] [<experiment>...]
//! repro [--retries N] [--deadline-ms N] [--fault SPEC] [--resume] ...
//! ```
//!
//! `repro --list` prints the experiment ids, the paper's tables and
//! figures followed by the extensions. Each experiment prints its
//! table/series to stdout and writes `<out>/<id>.txt` and `<out>/<id>.json`
//! (default `results/`).
//!
//! Every experiment is decomposed into jobs and submitted to a shared
//! `cestim-exec` executor:
//!
//! * `--jobs N` — run up to `N` simulation jobs in parallel (default: the
//!   `CESTIM_JOBS` env var, else the machine's available parallelism).
//!   Output is bit-for-bit identical to a serial run.
//! * `--cache-dir DIR` — content-addressed result cache location
//!   (default `<out>/cache`). Unchanged jobs are answered from disk.
//! * `--refresh` — ignore cached results but still rewrite them.
//! * `--no-cache` — disable the cache entirely (no reads, no writes).
//! * `--cache-gc` — sweep stale-schema entries out of the cache and
//!   report what was removed; with no experiments listed, exits after
//!   the sweep.
//!
//! Resilience (see `docs/RESILIENCE.md`): a panicking or overdue job is
//! isolated into a structured error instead of aborting the run — the
//! experiment it belongs to is reported in a failure manifest while the
//! rest of the suite completes. Every job outcome is journaled
//! append-only under `<out>/journal/run.jsonl`:
//!
//! * `--retries N` — total attempts per job (default 1, i.e. no retry);
//!   transient faults converge to the fault-free output.
//! * `--deadline-ms N` — per-job wall-clock deadline; overdue jobs are
//!   recorded as timed out while survivors drain the queue.
//! * `--fault SPEC` — arm a deterministic chaos plan
//!   (`panic:N`/`slow:N:MS`/`io:N`, comma-separated; also readable from
//!   `CESTIM_EXEC_FAULT`).
//! * `--resume` — replay the journal of a killed run: experiments already
//!   journaled complete (with artifacts on disk) are skipped, and
//!   journaled jobs inside unfinished experiments are answered from the
//!   warm cache (counted in `exec.jobs_resumed`).
//!
//! Causal span telemetry (see `docs/OBSERVABILITY.md`):
//!
//! * `--trace-perfetto FILE` — record causal spans across the whole
//!   invocation (executor batches, per-job spans with cache keys, retry
//!   attempts with fault provenance, cache probes/stores, journal
//!   appends, simulation runs) and write a Perfetto-loadable Chrome
//!   `trace_event` JSON file at exit.
//! * `--prom-out FILE` — write the executor's metrics as Prometheus text
//!   exposition at exit.
//! * `--monitor` — redraw a live ANSI status block on stderr (jobs,
//!   queue depth, cache hit-rate, retries, latency quantiles) while the
//!   suite runs.
//!
//! Branch-trace ingestion (see `docs/TRACES.md`):
//!
//! * `--export-trace FILE` — export the selected workload's architectural
//!   branch trace (`--workload`/`--scale` choose the program). `.jsonl`
//!   extension selects the JSONL twin encoding, anything else the compact
//!   binary format.
//! * `--trace-in FILE` — import a branch trace (either encoding,
//!   auto-detected) and replay it through the pipeline (gshare + the
//!   conformance estimator set) as an executor job: the result flows
//!   through the content-addressed cache keyed by the trace's content
//!   hash, and artifacts land at `<out>/trace-<hash16>-gshare.{txt,json}`.
//! * `--trace-live` — run the equivalent live simulation (replay fetch
//!   mode on the `--workload` program) and write artifacts under the same
//!   naming scheme. Importing a trace exported from the same workload and
//!   replaying it with `--trace-in` must produce byte-identical artifact
//!   files — the end-to-end conformance check CI runs.
//!
//! Any of `--trace-out`, `--metrics-out`, `--obs-summary` additionally run
//! one fully instrumented pipeline pass (default workload `compress`,
//! gshare predictor, the paper estimator set):
//!
//! * `--trace-out FILE` — record every pipeline event and write a JSONL
//!   trace that `cestim_obs::read_trace_jsonl` parses and
//!   `cestim_pipeline::replay` feeds back through any observer.
//! * `--metrics-out FILE` — export the full metrics snapshot (counters,
//!   rates, per-estimator quadrants) as JSON.
//! * `--obs-summary` — print the run's wall-clock time and key derived
//!   rates.
//!
//! Every invocation also writes two run records. `<out>/telemetry.json`
//! holds what the run did and nothing that depends on the clock (the
//! experiments run, the executor's counters, the instrumented run's stats,
//! the failure manifest), so two runs of one command write the same bytes,
//! whatever `--jobs` says but for `executor.workers`. `<out>/timings.json`
//! holds each experiment's and the instrumented run's wall-clock seconds
//! and the executor's metrics registry with its job-latency histogram.

use cestim_exec::{
    default_workers, install_quiet_panic_hook, CachePolicy, DiskCache, Executor, FaultPlan,
    RetryPolicy, RunJournal,
};
use cestim_obs::monitor::RunMonitor;
use cestim_obs::span::{self, SpanCollector, SpanId};
use cestim_obs::{MetricValue, Registry, Tracer};
use cestim_sim::{run_instrumented, suite, EstimatorSpec, PredictorKind, RunConfig};
use cestim_workloads::WorkloadKind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    scale: u32,
    out: PathBuf,
    ids: Vec<String>,
    jobs: Option<usize>,
    no_cache: bool,
    refresh: bool,
    cache_dir: Option<PathBuf>,
    workload: WorkloadKind,
    predictor: PredictorKind,
    trace_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    obs_summary: bool,
    qa_replay: Option<PathBuf>,
    fault: FaultPlan,
    retries: Option<u32>,
    deadline_ms: Option<u64>,
    resume: bool,
    trace_perfetto: Option<PathBuf>,
    prom_out: Option<PathBuf>,
    monitor: bool,
    cache_gc: bool,
    export_trace: Option<PathBuf>,
    trace_in: Option<PathBuf>,
    trace_live: bool,
}

impl Args {
    fn instrumented(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.obs_summary
    }

    fn trace_modes(&self) -> bool {
        self.export_trace.is_some() || self.trace_in.is_some() || self.trace_live
    }

    fn cache_policy(&self) -> CachePolicy {
        if self.no_cache {
            CachePolicy::Disabled
        } else if self.refresh {
            CachePolicy::Refresh
        } else {
            CachePolicy::ReadWrite
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: repro [--scale N] [--out DIR] [--jobs N] [--no-cache | --refresh]\n\
         \x20            [--cache-dir DIR] [--workload NAME] [--predictor NAME]\n\
         \x20            [--trace-out FILE]\n\
         \x20            [--metrics-out FILE] [--obs-summary] [--qa-replay DIR]\n\
         \x20            [--retries N] [--deadline-ms N] [--fault SPEC] [--resume]\n\
         \x20            [--trace-perfetto FILE] [--prom-out FILE] [--monitor]\n\
         \x20            [--export-trace FILE] [--trace-in FILE] [--trace-live]\n\
         \x20            [--cache-gc] <experiment>... | all | --list\n\
         fault spec:  panic:N | slow:N:MS | io:N (comma-separated)\n\
         experiments: {}\n\
         workloads:   {}\n\
         predictors:  {}",
        suite::all_ids().join(" "),
        WorkloadKind::all()
            .iter()
            .map(|w| w.name())
            .collect::<Vec<_>>()
            .join(" "),
        PredictorKind::all()
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 4,
        out: PathBuf::from("results"),
        ids: Vec::new(),
        jobs: None,
        no_cache: false,
        refresh: false,
        cache_dir: None,
        workload: WorkloadKind::Compress,
        predictor: PredictorKind::Gshare,
        trace_out: None,
        metrics_out: None,
        obs_summary: false,
        qa_replay: None,
        fault: FaultPlan::from_env(),
        retries: None,
        deadline_ms: None,
        resume: false,
        trace_perfetto: None,
        prom_out: None,
        monitor: false,
        cache_gc: false,
        export_trace: None,
        trace_in: None,
        trace_live: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--scale" => {
                args.scale = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => args.out = PathBuf::from(argv.next().unwrap_or_else(|| usage())),
            "--jobs" => {
                args.jobs = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--no-cache" => args.no_cache = true,
            "--refresh" => args.refresh = true,
            "--cache-dir" => {
                args.cache_dir = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--workload" => {
                args.workload = argv
                    .next()
                    .and_then(|v| WorkloadKind::from_name(&v))
                    .unwrap_or_else(|| usage());
            }
            "--predictor" => {
                let name = argv.next().unwrap_or_else(|| usage());
                args.predictor = PredictorKind::from_name_strict(&name).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--metrics-out" => {
                args.metrics_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--obs-summary" => args.obs_summary = true,
            "--qa-replay" => {
                args.qa_replay = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--fault" => {
                let spec = argv.next().unwrap_or_else(|| usage());
                args.fault = FaultPlan::parse(&spec).unwrap_or_else(|e| {
                    eprintln!("error: {e}");
                    std::process::exit(2);
                });
            }
            "--retries" => {
                args.retries = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    argv.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                );
            }
            "--resume" => args.resume = true,
            "--trace-perfetto" => {
                args.trace_perfetto = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--prom-out" => {
                args.prom_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--monitor" => args.monitor = true,
            "--cache-gc" => args.cache_gc = true,
            "--export-trace" => {
                args.export_trace = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--trace-in" => {
                args.trace_in = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--trace-live" => args.trace_live = true,
            "--list" => {
                for id in suite::all_ids() {
                    println!("{id}");
                }
                std::process::exit(0);
            }
            "all" => args
                .ids
                .extend(suite::all_ids().iter().map(|s| s.to_string())),
            "-h" | "--help" => usage(),
            other if other.starts_with('-') => usage(),
            other => args.ids.push(other.to_string()),
        }
    }
    if args.ids.is_empty()
        && !args.instrumented()
        && args.qa_replay.is_none()
        && !args.cache_gc
        && !args.trace_modes()
    {
        usage();
    }
    if args.no_cache && args.refresh {
        eprintln!("error: --no-cache and --refresh are mutually exclusive");
        std::process::exit(2);
    }
    args
}

/// Builds the shared experiment executor from the command-line flags and
/// sweeps entries written under an older job schema out of the cache.
fn build_executor(args: &Args) -> std::io::Result<Executor> {
    let workers = args.jobs.unwrap_or_else(default_workers);
    let cache_dir = args
        .cache_dir
        .clone()
        .unwrap_or_else(|| args.out.join("cache"));
    let mut exec = Executor::new(workers).with_cache(cache_dir, args.cache_policy())?;
    let stale = exec.evict_stale(cestim_sim::sim_schema_salt());
    if stale > 0 {
        println!("[cache: evicted {stale} stale entr{}]", plural_y(stale));
    }
    if !args.fault.is_none() {
        println!("[chaos: fault plan {} armed]", args.fault);
        exec = exec.with_fault_plan(args.fault);
    }
    if let Some(n) = args.retries {
        exec = exec.with_retry(RetryPolicy::with_attempts(n));
    }
    if let Some(ms) = args.deadline_ms {
        exec = exec.with_deadline(Some(Duration::from_millis(ms)));
    }
    Ok(exec)
}

/// Sweeps cache entries written under an older job schema out of the
/// on-disk cache at `dir`, returning `(removed, remaining)`.
fn run_cache_gc(dir: &Path) -> std::io::Result<(usize, usize)> {
    let cache = DiskCache::open(dir)?;
    let removed = cache.evict_stale(cestim_sim::sim_schema_salt())?;
    Ok((removed, cache.len()?))
}

/// Opens the run journal under `<out>/journal/`: resumed (replaying prior
/// completions) or fresh (rotating the previous journal aside).
fn open_journal(args: &Args) -> std::io::Result<RunJournal> {
    let dir = args.out.join("journal");
    if args.resume {
        let journal = RunJournal::resume(&dir)?;
        let (jobs, experiments) = (journal.prior_job_count(), journal.prior_experiment_count());
        println!(
            "[resume: journal replayed {jobs} job{} and {experiments} experiment{}]",
            plural_s(jobs),
            plural_s(experiments),
        );
        Ok(journal)
    } else {
        RunJournal::start(&dir)
    }
}

/// True when both artifacts a completed experiment writes are on disk.
fn artifacts_exist(out: &Path, id: &str) -> bool {
    out.join(format!("{id}.txt")).exists() && out.join(format!("{id}.json")).exists()
}

fn plural_s(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

fn plural_y(n: usize) -> &'static str {
    if n == 1 {
        "y"
    } else {
        "ies"
    }
}

/// One instrumented pass: the selected predictor + its paper estimator
/// set on the chosen workload, with tracing (if requested) and metrics.
/// Returns the telemetry block and the pass's wall-clock seconds.
fn run_instrumented_pass(args: &Args) -> std::io::Result<(serde_json::Value, f64)> {
    let cfg = RunConfig::paper(args.workload, args.scale, args.predictor);
    let specs = EstimatorSpec::paper_set(args.predictor);
    let mut tracer = if args.trace_out.is_some() {
        Tracer::unbounded()
    } else {
        Tracer::disabled()
    };
    let inst = run_instrumented(&cfg, &specs, &mut tracer);

    if let Some(path) = &args.trace_out {
        let n = cestim_bench::write_trace(path, &tracer)?;
        println!("[trace: {n} events -> {}]", path.display());
    }
    if let Some(path) = &args.metrics_out {
        cestim_bench::write_json(path, &inst.metrics)?;
        println!("[metrics -> {}]", path.display());
    }
    if args.obs_summary {
        println!(
            "instrumented run: workload={} predictor={} scale={} ({:.2}s)",
            args.workload.name(),
            args.predictor.name(),
            args.scale,
            inst.wall_seconds
        );
        print!("{}", cestim_bench::stats_summary(&inst.outcome.stats));
        for e in &inst.outcome.estimators {
            let q = e.quadrants.committed;
            println!(
                "estimator {:28} pvn={:5.1}% sens={:5.1}%",
                e.name,
                q.pvn() * 100.0,
                q.sens() * 100.0
            );
        }
    }

    let telemetry = serde_json::json!({
        "workload": args.workload.name(),
        "predictor": args.predictor.name(),
        "scale": args.scale,
        "trace_events": tracer.len(),
        "stats": inst.outcome.stats,
    });
    Ok((telemetry, inst.wall_seconds))
}

/// Exports the configured workload's architectural branch trace to
/// `path`; the `.jsonl` extension selects the JSONL twin encoding.
fn run_export_trace(args: &Args, path: &Path) -> std::io::Result<()> {
    let cfg = RunConfig::paper(args.workload, args.scale, PredictorKind::Gshare);
    let records = cestim_sim::export_config_trace(&cfg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let jsonl = path.extension().is_some_and(|e| e == "jsonl");
    let bytes = if jsonl {
        cestim_trace_io::to_jsonl(&records).into_bytes()
    } else {
        cestim_trace_io::to_binary(&records)
    };
    std::fs::write(path, bytes)?;
    println!(
        "[trace-export: {} records, hash {}, {} -> {}]",
        records.len(),
        cestim_trace_io::content_hash_hex(&records),
        if jsonl { "jsonl" } else { "binary" },
        path.display()
    );
    Ok(())
}

/// Renders a trace-replay outcome as the `trace-<hash16>-<predictor>`
/// artifact pair. Both replay paths (`--trace-in` and `--trace-live`) go
/// through this one function, so equal outcomes yield byte-identical
/// files.
fn write_trace_artifacts(
    args: &Args,
    hash: &str,
    predictor: PredictorKind,
    record_count: usize,
    outcome: &cestim_sim::RunOutcome,
) -> std::io::Result<String> {
    let id = format!("trace-{hash}-{}", predictor.name());
    let mut text = format!(
        "trace replay: trace={hash} predictor={} records={record_count}\n{}",
        predictor.name(),
        cestim_bench::stats_summary(&outcome.stats),
    );
    for e in &outcome.estimators {
        let q = e.quadrants.committed;
        text.push_str(&format!(
            "estimator {:28} sens={:.6} spec={:.6} pvp={:.6} pvn={:.6}\n",
            e.name,
            q.sens(),
            q.spec(),
            q.pvp(),
            q.pvn()
        ));
    }
    let json = serde_json::json!({
        "trace": hash,
        "predictor": predictor.name(),
        "records": record_count,
        "stats": outcome.stats,
        "estimators": outcome.estimators,
    });
    cestim_bench::write_artifacts(&args.out, &id, &text, &json)?;
    println!("[{id}: artifacts -> {}]", args.out.display());
    Ok(id)
}

/// Imports a branch trace and replays it through the executor (and its
/// content-addressed cache) as an `ExecJob::Replay`.
fn run_trace_in(args: &Args, exec: &Executor, path: &Path) -> std::io::Result<String> {
    use cestim_sim::ExecJob;
    let bytes = std::fs::read(path)?;
    let records = cestim_trace_io::from_bytes(&bytes)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let hash = cestim_trace_io::content_hash_hex(&records);
    let count = records.len();
    println!(
        "[trace-in: {count} records, hash {hash} from {}]",
        path.display()
    );
    let predictor = args.predictor;
    let job = ExecJob::Replay {
        records,
        predictor,
        pipeline: cestim_pipeline::PipelineConfig::paper(),
        specs: cestim_sim::conformance_specs(),
    };
    let outcome = exec
        .run_all_checked(std::slice::from_ref(&job))
        .remove(0)
        .map_err(std::io::Error::other)?
        .into_run();
    write_trace_artifacts(args, &hash, predictor, count, &outcome)
}

/// Runs the live equivalent of `--trace-in`: replay-fetch-mode simulation
/// of the configured workload, artifacts keyed by the trace the workload
/// *would* export. Byte-identical artifacts to a `--trace-in` run over
/// that exported trace is the end-to-end conformance contract.
fn run_trace_live(args: &Args) -> std::io::Result<String> {
    let cfg = RunConfig::paper(args.workload, args.scale, args.predictor);
    let records = cestim_sim::export_config_trace(&cfg)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    let hash = cestim_trace_io::content_hash_hex(&records);
    println!(
        "[trace-live: workload {} scale {} ({} records, hash {hash})]",
        args.workload.name(),
        args.scale,
        records.len()
    );
    let outcome = cestim_sim::run_replay_live(&cfg, &cestim_sim::conformance_specs());
    write_trace_artifacts(args, &hash, cfg.predictor, records.len(), &outcome)
}

/// Replays every minimised reproducer under `dir` with no fault armed
/// (the regression contract for corpus entries) and returns the `qa`
/// telemetry block, including the `qa.*` metric snapshot.
fn run_qa_replay(dir: &Path, failed_ids: &mut Vec<String>) -> serde_json::Value {
    let registry = Registry::new();
    match cestim_qa::replay_corpus(dir, &registry) {
        Ok(results) => {
            println!(
                "[qa-replay: {} corpus entr{} from {}]",
                results.len(),
                plural_y(results.len()),
                dir.display()
            );
            let mut entries = Vec::new();
            for (name, outcome) in &results {
                match outcome {
                    Ok(()) => println!("  {name}: ok"),
                    Err(f) => {
                        eprintln!("error: qa corpus entry {name} failed: {f}");
                        failed_ids.push(format!("qa:{name}"));
                    }
                }
                entries.push(serde_json::json!({
                    "entry": name,
                    "ok": outcome.is_ok(),
                }));
            }
            serde_json::json!({
                "corpus_dir": dir.display().to_string(),
                "entries": entries,
                "metrics": registry.snapshot(),
            })
        }
        Err(e) => {
            eprintln!("error: qa replay failed: {e}");
            failed_ids.push("<qa-replay>".to_string());
            serde_json::Value::Null
        }
    }
}

fn main() -> ExitCode {
    install_quiet_panic_hook();
    let args = parse_args();
    if args.cache_gc {
        let cache_dir = args
            .cache_dir
            .clone()
            .unwrap_or_else(|| args.out.join("cache"));
        match run_cache_gc(&cache_dir) {
            Ok((removed, remaining)) => println!(
                "[cache-gc: removed {removed} stale entr{}, {remaining} fresh remain{}]",
                plural_y(removed),
                if remaining == 1 { "s" } else { "" },
            ),
            Err(e) => {
                eprintln!("error: cache gc failed: {e}");
                return ExitCode::FAILURE;
            }
        }
        // Standalone GC mode: nothing else to run.
        if args.ids.is_empty()
            && !args.instrumented()
            && args.qa_replay.is_none()
            && !args.trace_modes()
        {
            return ExitCode::SUCCESS;
        }
    }
    // Span tracing is off (and near-free) unless a Perfetto sink was
    // requested; when on, the whole invocation becomes one causal tree
    // under a `repro` root span.
    let spans = if args.trace_perfetto.is_some() {
        SpanCollector::new()
    } else {
        SpanCollector::disabled()
    };
    let mut root_buf = spans.buffer("main");
    let root_span = root_buf.open("repro", SpanId::NONE, &[]);
    let ambient = spans
        .enabled()
        .then(|| span::set_ambient(&spans, root_span.id(), "main"));
    let mut exec = match build_executor(&args) {
        Ok(exec) => exec.with_spans(&spans),
        Err(e) => {
            eprintln!("error: failed to open result cache: {e}");
            return ExitCode::FAILURE;
        }
    };
    let journal = if args.ids.is_empty() {
        None
    } else {
        match open_journal(&args) {
            Ok(j) => Some(Arc::new(j)),
            Err(e) => {
                eprintln!(
                    "warning: run journal unavailable ({e}); continuing without resume support"
                );
                None
            }
        }
    };
    if let Some(j) = &journal {
        exec = exec.with_journal(Arc::clone(j));
    }
    let monitor = args
        .monitor
        .then(|| RunMonitor::start(exec.registry(), Duration::from_millis(200)));

    let mut failed_ids = Vec::new();
    let mut failures: Vec<suite::ExperimentFailure> = Vec::new();
    let mut experiments = Vec::new();
    let mut experiment_seconds = Vec::new();
    for id in &args.ids {
        if args.resume {
            if let Some(j) = &journal {
                if j.was_experiment_done(id) && artifacts_exist(&args.out, id) {
                    println!("[{id}: complete in journal, skipped]\n");
                    experiments.push(serde_json::json!({ "id": id, "resumed": true }));
                    continue;
                }
            }
        }
        let started = Instant::now();
        let _span = span::AmbientSpan::enter(id, &[]);
        match suite::run_experiment_checked(&exec, id, args.scale) {
            Some(Ok(r)) => {
                println!("{}\n{}", r.title, r.text);
                let seconds = started.elapsed().as_secs_f64();
                println!("[{id} done in {seconds:.1}s]\n");
                experiments.push(serde_json::json!({ "id": id }));
                experiment_seconds.push(serde_json::json!({ "id": id, "seconds": seconds }));
                match cestim_bench::write_artifacts(&args.out, id, &r.text, &r.json) {
                    Ok(()) => {
                        if let Some(j) = &journal {
                            j.record_experiment(id, "done");
                        }
                    }
                    Err(e) => {
                        eprintln!("error: failed to write artifacts for {id}: {e}");
                        failed_ids.push(id.clone());
                    }
                }
            }
            Some(Err(failure)) => {
                eprintln!("error: {failure}");
                failed_ids.push(id.clone());
                if let Some(j) = &journal {
                    j.record_experiment(id, "failed");
                }
                failures.push(failure);
            }
            None => {
                eprintln!("error: unknown experiment '{id}' (try --list)");
                failed_ids.push(id.clone());
            }
        }
    }

    if let Some(m) = monitor {
        m.stop();
    }
    let report = exec.report();
    if !args.ids.is_empty() {
        println!(
            "[executor: {} worker{}, {} job{} ({} cache hit{}, {} executed), cache {}]",
            report.workers,
            plural_s(report.workers as usize),
            report.submitted,
            plural_s(report.submitted as usize),
            report.cache_hits,
            plural_s(report.cache_hits as usize),
            report.executed,
            report.cache_policy,
        );
        let resilience_events = report.retries
            + report.panics_caught
            + report.timeouts
            + report.jobs_resumed
            + report.cache_store_errors;
        if resilience_events > 0 {
            println!(
                "[resilience: {} retries, {} panics caught, {} timeouts, {} jobs resumed, \
                 {} cache store errors]",
                report.retries,
                report.panics_caught,
                report.timeouts,
                report.jobs_resumed,
                report.cache_store_errors,
            );
        }
        if let Some(MetricValue::Histogram(h)) = exec.registry().snapshot().get("exec.job.nanos") {
            if h.count > 0 {
                use cestim_obs::monitor::fmt_nanos;
                println!(
                    "[job time: p50 {}, p95 {}, p99 {}]",
                    fmt_nanos(h.quantile(0.50)),
                    fmt_nanos(h.quantile(0.95)),
                    fmt_nanos(h.quantile(0.99)),
                );
            }
        }
    }

    let mut trace_ids: Vec<String> = Vec::new();
    if let Some(path) = &args.export_trace {
        if let Err(e) = run_export_trace(&args, path) {
            eprintln!("error: trace export failed: {e}");
            failed_ids.push("<export-trace>".to_string());
        }
    }
    if let Some(path) = &args.trace_in {
        match run_trace_in(&args, &exec, path) {
            Ok(id) => trace_ids.push(id),
            Err(e) => {
                eprintln!("error: trace import/replay failed: {e}");
                failed_ids.push("<trace-in>".to_string());
            }
        }
    }
    if args.trace_live {
        match run_trace_live(&args) {
            Ok(id) => trace_ids.push(id),
            Err(e) => {
                eprintln!("error: live trace replay failed: {e}");
                failed_ids.push("<trace-live>".to_string());
            }
        }
    }

    let (mut instrumented, mut instrumented_seconds) = (serde_json::Value::Null, None);
    if args.instrumented() {
        match run_instrumented_pass(&args) {
            Ok((v, seconds)) => (instrumented, instrumented_seconds) = (v, Some(seconds)),
            Err(e) => {
                eprintln!("error: instrumented run failed: {e}");
                failed_ids.push("<instrumented>".to_string());
            }
        }
    }

    let mut qa = serde_json::Value::Null;
    if let Some(dir) = &args.qa_replay {
        qa = run_qa_replay(dir, &mut failed_ids);
    }

    let telemetry = serde_json::json!({
        "experiments": experiments,
        "executor": report,
        "instrumented": instrumented,
        "trace_artifacts": trace_ids,
        "qa": qa,
        "fault_plan": args.fault.to_string(),
        "resumed": args.resume,
        "failures": failures,
    });
    let timings = serde_json::json!({
        "experiments": experiment_seconds,
        "instrumented_wall_seconds": instrumented_seconds,
        "executor_metrics": exec.registry().snapshot(),
    });
    for (name, value) in [("telemetry.json", &telemetry), ("timings.json", &timings)] {
        if let Err(e) = cestim_bench::write_json(&args.out.join(name), value) {
            eprintln!("error: failed to write {name}: {e}");
            failed_ids.push(format!("<{name}>"));
        }
    }

    drop(ambient);
    root_buf.close(root_span);
    root_buf.flush();
    if let Some(path) = &args.trace_perfetto {
        let records = spans.drain();
        match cestim_obs::export::write_perfetto(path, &records) {
            Ok(()) => println!("[perfetto: {} spans -> {}]", records.len(), path.display()),
            Err(e) => {
                eprintln!("error: failed to write perfetto trace: {e}");
                failed_ids.push("<perfetto>".to_string());
            }
        }
    }
    if let Some(path) = &args.prom_out {
        match cestim_obs::export::write_prometheus(path, &exec.registry().snapshot()) {
            Ok(()) => println!("[prometheus -> {}]", path.display()),
            Err(e) => {
                eprintln!("error: failed to write prometheus exposition: {e}");
                failed_ids.push("<prometheus>".to_string());
            }
        }
    }

    if failed_ids.is_empty() {
        ExitCode::SUCCESS
    } else {
        if !failures.is_empty() {
            eprintln!("failure manifest:");
            for f in &failures {
                eprintln!("  {f}");
            }
        }
        eprintln!(
            "error: {} step{} failed: {}",
            failed_ids.len(),
            plural_s(failed_ids.len()),
            failed_ids.join(" ")
        );
        ExitCode::FAILURE
    }
}
