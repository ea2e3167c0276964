//! Seeded differential fuzzer over the whole simulator stack.
//!
//! ```text
//! fuzz [--seed N] [--iters N] [--time-budget SECS] [--oracle NAME|all]
//!      [--out DIR] [--corpus DIR|none] [--fault N] [--expect-failure]
//!      [--max-failures N] [--shrink-budget N]
//!      [--trace-perfetto FILE] [--prom-out FILE]
//! ```
//!
//! Each iteration draws a valid-by-construction random program from the
//! seed's child stream and runs it through the selected `cestim-qa`
//! differential oracles (`arch`, `replay`, `exec`, `quadrant`, `trace`,
//! or `all`).
//! The opt-in `resilience` oracle (not part of `all` — it sleeps and
//! touches disk) additionally chaos-tests the executor's fault handling:
//! `fuzz --oracle resilience --iters 5`.
//! Failures are shrunk to minimal reproducers and persisted under the
//! corpus directory (default `<out>/qa/corpus`), replayable with
//! `repro --qa-replay <dir>`.
//!
//! `--fault N` arms the deliberate commit-stream fault (flip every Nth
//! committed branch; also reachable via `CESTIM_QA_FAULT=flip-commit:N`)
//! so the failure path can be exercised end to end; pair it with
//! `--expect-failure`, which inverts the exit status.
//!
//! Every run writes `<out>/telemetry.json` containing the deterministic
//! fuzz report plus the `qa.*` metric snapshot — same seed, same bytes
//! (when no `--time-budget` is set).
//!
//! `--trace-perfetto FILE` records causal spans for every simulator pass
//! the oracles make (under a `fuzz` root span) as Perfetto-loadable JSON;
//! `--prom-out FILE` writes the `qa.*` metrics as Prometheus text
//! exposition. See `docs/OBSERVABILITY.md`.

use cestim_obs::span::{self, SpanCollector, SpanId};
use cestim_obs::Registry;
use cestim_qa::{FaultSpec, FuzzConfig, OracleKind};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    cfg: FuzzConfig,
    out: PathBuf,
    expect_failure: bool,
    trace_perfetto: Option<PathBuf>,
    prom_out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--iters N] [--time-budget SECS] [--oracle NAME|all]\n\
         \x20           [--out DIR] [--corpus DIR|none] [--fault N] [--expect-failure]\n\
         \x20           [--max-failures N] [--shrink-budget N]\n\
         \x20           [--trace-perfetto FILE] [--prom-out FILE]\n\
         oracles: {} all | resilience (opt-in, not part of `all`)",
        OracleKind::ALL.map(|k| k.name()).join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut cfg = FuzzConfig {
        iters: 1000,
        fault: FaultSpec::from_env(),
        ..FuzzConfig::default()
    };
    let mut out = PathBuf::from("results");
    let mut corpus: Option<Option<PathBuf>> = None;
    let mut oracles = Vec::new();
    let mut expect_failure = false;
    let mut trace_perfetto = None;
    let mut prom_out = None;

    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        let num = |argv: &mut dyn Iterator<Item = String>| -> u64 {
            argv.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--seed" => cfg.seed = num(&mut argv),
            "--iters" => cfg.iters = num(&mut argv),
            "--time-budget" => cfg.time_budget = Some(Duration::from_secs(num(&mut argv))),
            "--fault" => cfg.fault = FaultSpec::flip_every(num(&mut argv)),
            "--max-failures" => cfg.max_failures = num(&mut argv),
            "--shrink-budget" => cfg.shrink_budget = num(&mut argv),
            "--oracle" => match argv.next().as_deref() {
                Some("all") => oracles.extend(OracleKind::ALL),
                Some(name) => match OracleKind::from_name(name) {
                    Some(k) => oracles.push(k),
                    None => usage(),
                },
                None => usage(),
            },
            "--out" => out = PathBuf::from(argv.next().unwrap_or_else(|| usage())),
            "--corpus" => match argv.next().as_deref() {
                Some("none") => corpus = Some(None),
                Some(dir) => corpus = Some(Some(PathBuf::from(dir))),
                None => usage(),
            },
            "--expect-failure" => expect_failure = true,
            "--trace-perfetto" => {
                trace_perfetto = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            "--prom-out" => {
                prom_out = Some(PathBuf::from(argv.next().unwrap_or_else(|| usage())));
            }
            _ => usage(),
        }
    }
    cfg.oracles = if oracles.is_empty() {
        OracleKind::ALL.to_vec()
    } else {
        oracles
    };
    cfg.corpus_dir = match corpus {
        Some(dir) => dir,
        None => Some(out.join("qa").join("corpus")),
    };
    Args {
        cfg,
        out,
        expect_failure,
        trace_perfetto,
        prom_out,
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let registry = Registry::new();
    // With a Perfetto sink requested, every simulator pass an oracle makes
    // records causal spans under one `fuzz` root.
    let spans = if args.trace_perfetto.is_some() {
        SpanCollector::new()
    } else {
        SpanCollector::disabled()
    };
    let mut span_buf = spans.buffer("main");
    let root_span = span_buf.open("fuzz", SpanId::NONE, &[]);
    let ambient = spans
        .enabled()
        .then(|| span::set_ambient(&spans, root_span.id(), "main"));
    let report = match cestim_qa::run_fuzz(&args.cfg, &registry) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: fuzz run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    drop(ambient);
    span_buf.close(root_span);
    span_buf.flush();
    if let Some(path) = &args.trace_perfetto {
        let records = spans.drain();
        match cestim_obs::export::write_perfetto(path, &records) {
            Ok(()) => println!("[perfetto: {} spans -> {}]", records.len(), path.display()),
            Err(e) => {
                eprintln!("error: failed to write perfetto trace: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.prom_out {
        match cestim_obs::export::write_prometheus(path, &registry.snapshot()) {
            Ok(()) => println!("[prometheus -> {}]", path.display()),
            Err(e) => {
                eprintln!("error: failed to write prometheus exposition: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!(
        "fuzz: seed={} iterations={}{}",
        report.seed,
        report.iterations,
        if report.stopped_early {
            " (stopped early)"
        } else {
            ""
        }
    );
    for tally in &report.oracles {
        println!(
            "  oracle {:10} {} pass / {} fail",
            tally.oracle, tally.passes, tally.failures
        );
    }
    for f in &report.failures {
        println!(
            "  FAILURE iter={} oracle={} shrunk {} -> {} nodes ({} insts, {} steps){}",
            f.iteration,
            f.oracle,
            f.nodes_before,
            f.nodes_after,
            f.insts,
            f.shrink_steps,
            match &f.corpus_file {
                Some(name) => format!(" -> {name}"),
                None => String::new(),
            }
        );
        println!("    {}", f.detail);
    }

    let telemetry = serde_json::json!({
        "qa": {
            "report": report,
            "metrics": registry.snapshot(),
        },
    });
    if let Err(e) = cestim_bench::write_json(&args.out.join("telemetry.json"), &telemetry) {
        eprintln!("error: failed to write telemetry: {e}");
        return ExitCode::FAILURE;
    }

    match (report.clean(), args.expect_failure) {
        (true, false) => ExitCode::SUCCESS,
        (false, true) => {
            println!("fuzz: failure expected and observed");
            ExitCode::SUCCESS
        }
        (true, true) => {
            eprintln!("error: --expect-failure set but every oracle passed");
            ExitCode::FAILURE
        }
        (false, false) => {
            eprintln!("error: {} oracle failure(s)", report.failures.len());
            ExitCode::FAILURE
        }
    }
}
