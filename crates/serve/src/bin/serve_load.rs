//! `serve-load` — deterministic synthetic load generator for `serve`.
//!
//! Replays a seeded mix of duplicate/unique/priority-skewed requests
//! over TCP against a server — either a running one (`--addr`) or a
//! private in-process one on a loopback port (`--spawn`) — and reports
//! throughput, cache hit-rate, latency quantiles, and per-client
//! fairness, one `[serve-load] pass=…` line per pass. With `--verify` every unique job
//! is re-executed directly and its payload compared byte-for-byte
//! (canonical JSON) against the server's.
//!
//! ```text
//! serve-load [--addr HOST:PORT | --spawn] [--seed N] [--requests N]
//!            [--clients N] [--dup PCT] [--scale N] [--window N]
//!            [--vip-priority N] [--deadline-ms N]
//!            [--passes N] [--overload] [--verify] [--shutdown]
//!            [--cache-dir DIR] [--groups N] [--queue-depth N]
//!            [--gc-every N] [--prom-out FILE]
//! ```
//!
//! `--overload` appends a `degraded` pass that opens the in-flight
//! window to the full request count, deliberately flooding the queue so
//! the server's load-shedding gate engages; the pass reports how many
//! submissions were shed and the degraded-mode latency quantiles. Pair
//! it with a small `--groups`/`--queue-depth` server so the watermarks
//! are reachable.
//!
//! Exits 1 on transport errors, execution errors, an incomplete pass, or any
//! verification mismatch.

use cestim_obs::Registry;
use cestim_serve::load::{
    build_mix, run_pass, verify_against_direct, LoadConfig, MixItem, PassReport,
};
use cestim_serve::{ServeClient, ServeConfig, Server};
use std::collections::HashMap;
use std::net::TcpListener;

fn usage() -> ! {
    eprintln!(
        "usage: serve-load [--addr HOST:PORT | --spawn] [--seed N] [--requests N]\n\
         \x20                 [--clients N] [--dup PCT] [--scale N] [--window N]\n\
         \x20                 [--vip-priority N] [--deadline-ms N]\n\
         \x20                 [--passes N] [--overload] [--verify] [--shutdown]\n\
         \x20                 [--cache-dir DIR] [--groups N] [--queue-depth N]\n\
         \x20                 [--gc-every N] [--prom-out FILE]\n\
         \n\
         Deterministic load harness for the serve subsystem\n\
         (see docs/SERVING.md)."
    );
    std::process::exit(2);
}

struct Args {
    addr: Option<String>,
    spawn: bool,
    load: LoadConfig,
    passes: usize,
    overload: bool,
    verify: bool,
    shutdown: bool,
    serve_cfg: ServeConfig,
    prom_out: Option<String>,
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric argument: {s}");
        usage();
    })
}

/// Parses the command line after the program name.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Args {
    let mut args = Args {
        addr: None,
        spawn: false,
        load: LoadConfig::default(),
        passes: 2,
        overload: false,
        verify: false,
        shutdown: false,
        serve_cfg: ServeConfig::default(),
        prom_out: None,
    };
    let mut it = argv.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage();
            })
        };
        match arg.as_str() {
            "--addr" => args.addr = Some(value("--addr")),
            "--spawn" => args.spawn = true,
            "--seed" => args.load.seed = parse_num(&value("--seed")),
            "--requests" => args.load.requests = parse_num(&value("--requests")),
            "--clients" => args.load.clients = parse_num(&value("--clients")),
            "--dup" => args.load.dup_percent = parse_num(&value("--dup")),
            "--scale" => args.load.scale = parse_num(&value("--scale")),
            "--window" => args.load.window = parse_num(&value("--window")),
            "--vip-priority" => args.load.vip_priority = parse_num(&value("--vip-priority")),
            "--deadline-ms" => args.load.deadline_ms = parse_num(&value("--deadline-ms")),
            "--passes" => args.passes = parse_num(&value("--passes")),
            "--overload" => args.overload = true,
            "--verify" => args.verify = true,
            "--shutdown" => args.shutdown = true,
            "--cache-dir" => args.serve_cfg.cache_dir = Some(value("--cache-dir").into()),
            "--groups" => args.serve_cfg.groups = parse_num(&value("--groups")),
            "--queue-depth" => args.serve_cfg.queue_depth = parse_num(&value("--queue-depth")),
            "--gc-every" => args.serve_cfg.gc_every = parse_num(&value("--gc-every")),
            "--prom-out" => args.prom_out = Some(value("--prom-out")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    if args.addr.is_some() == args.spawn {
        eprintln!("exactly one of --addr or --spawn is required");
        usage();
    }
    args
}

/// Whether warm passes would hit a spawned server that has no result
/// cache, so their hit rate reads 0 whatever the mix.
fn warm_passes_uncached(args: &Args) -> bool {
    args.spawn && args.passes > 1 && args.serve_cfg.cache_dir.is_none()
}

fn pass_name(index: usize) -> String {
    match index {
        0 => "cold".to_string(),
        1 => "warm".to_string(),
        n => format!("warm{n}"),
    }
}

fn print_pass(report: &PassReport) {
    println!(
        "[serve-load] pass={} completed={}/{} hit_rate={:.3} rps={:.1} \
         p50={}us p95={}us p99={}us rejected={} shed={} deadline_rej={} \
         breaker_rej={} errors={} spread={:.2}",
        report.pass,
        report.completed,
        report.requests,
        report.hit_rate,
        report.throughput_rps,
        report.p50_nanos / 1_000,
        report.p95_nanos / 1_000,
        report.p99_nanos / 1_000,
        report.rejected,
        report.shed,
        report.deadline_rejected,
        report.breaker_rejected,
        report.errors,
        report.completion_spread,
    );
}

fn main() {
    let args = parse_args(std::env::args().skip(1));
    if warm_passes_uncached(&args) {
        eprintln!(
            "serve-load: warning: --spawn without --cache-dir runs a server with no \
             result cache, so warm passes read hit_rate 0; pass --cache-dir DIR"
        );
    }
    let mix = build_mix(&args.load);
    let unique: std::collections::HashSet<String> = mix
        .iter()
        .map(|item| {
            use cestim_exec::Job;
            item.job.cache_key().id()
        })
        .collect();
    println!(
        "[serve-load] seed={} requests={} unique_jobs={} clients={} dup={}% passes={}",
        args.load.seed,
        mix.len(),
        unique.len(),
        args.load.clients,
        args.load.dup_percent,
        args.passes
    );

    let failed = match &args.addr {
        Some(addr) => drive(addr, &args, &mix),
        None => drive_spawned(&args, &mix),
    };
    if failed {
        std::process::exit(1);
    }
}

/// Runs every pass over one TCP client connected to `addr`, then
/// `--verify` and (against `--addr`) `--shutdown`. True when anything
/// failed.
fn drive(addr: &str, args: &Args, mix: &[MixItem]) -> bool {
    let mut client = match ServeClient::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            eprintln!("serve-load: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    // The overload pass floods the queue on purpose: every request is
    // in flight at once, so a small server sheds until its watermarks
    // clear. Shed submissions are retried, so the pass still completes;
    // what it measures is the degraded-mode p99 and how much was shed.
    let mut degraded = args.load.clone();
    degraded.window = degraded.requests.max(1);
    let passes = (0..args.passes.max(1))
        .map(|p| (pass_name(p), &args.load))
        .chain(args.overload.then(|| ("degraded".to_string(), &degraded)));

    let mut payloads = HashMap::new();
    let mut failed = false;
    for (name, cfg) in passes {
        if name == "degraded" && failed {
            break;
        }
        match run_pass(&mut client, mix, cfg, &name, &mut payloads) {
            Ok(report) => {
                print_pass(&report);
                if name == "degraded" && report.shed == 0 {
                    println!(
                        "[serve-load] warning: overload pass shed nothing; \
                         lower --groups/--queue-depth to make the watermarks reachable"
                    );
                }
                failed |= report.errors > 0 || report.completed < report.requests;
            }
            Err(e) => {
                eprintln!("serve-load: pass {name} failed: {e}");
                failed = true;
                break;
            }
        }
    }

    if args.verify {
        let report = verify_against_direct(&payloads);
        println!(
            "[serve-load] verify checked={} mismatches={}",
            report.checked, report.mismatches
        );
        failed |= report.mismatches > 0;
    }
    // The acknowledgement means the server has begun draining.
    if args.shutdown && args.addr.is_some() {
        if let Err(e) = client.shutdown() {
            eprintln!("serve-load: shutdown of {addr} unacknowledged: {e}");
        }
    }
    failed
}

/// `--spawn`: serves a private in-process server on a loopback port for
/// the whole run, drives it like `--addr`, drains it, and writes its
/// registry to `--prom-out`.
fn drive_spawned(args: &Args, mix: &[MixItem]) -> bool {
    let registry = Registry::new();
    let spans = cestim_obs::span::SpanCollector::disabled();
    let started =
        Server::start_with(args.serve_cfg.clone(), registry.clone(), spans).and_then(|server| {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            let addr = listener.local_addr()?;
            Ok((server, listener, addr))
        });
    let (server, listener, addr) = match started {
        Ok(started) => started,
        Err(e) => {
            eprintln!("serve-load: cannot start in-process server: {e}");
            std::process::exit(1);
        }
    };
    let mut failed = std::thread::scope(|scope| {
        let acceptor = scope.spawn(|| server.serve_tcp(listener));
        let mut failed = drive(&addr.to_string(), args, mix);
        server.begin_shutdown();
        if let Err(e) = acceptor.join().expect("the acceptor does not panic") {
            eprintln!("serve-load: in-process server stopped accepting: {e}");
            failed = true;
        }
        failed
    });
    server.shutdown();
    if let Some(path) = &args.prom_out {
        if let Err(e) = cestim_obs::export::write_prometheus(path, &registry.snapshot()) {
            eprintln!("serve-load: writing {path} failed: {e}");
            failed = true;
        }
    }
    failed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &[&str]) -> Args {
        parse_args(argv.iter().map(|a| a.to_string()))
    }

    #[test]
    fn only_a_spawned_multi_pass_run_without_a_cache_dir_is_warned() {
        assert!(
            warm_passes_uncached(&args(&["--spawn"])),
            "two passes by default"
        );
        assert!(warm_passes_uncached(&args(&["--spawn", "--passes", "3"])));
        assert!(!warm_passes_uncached(&args(&["--spawn", "--passes", "1"])));
        assert!(!warm_passes_uncached(&args(&[
            "--spawn",
            "--cache-dir",
            "c"
        ])));
        assert!(!warm_passes_uncached(&args(&["--addr", "127.0.0.1:1"])));
    }
}
