//! `serve` — the long-lived simulation server binary.
//!
//! Listens for line-delimited JSON requests on a TCP address, schedules
//! them through the sharded DRR admission queue, and serves results from
//! the shared content-addressed cache. Runs until a client sends
//! `{"op":"shutdown"}`, then drains queued work, writes any requested
//! telemetry exports, and exits.
//!
//! ```text
//! serve [--addr HOST:PORT] [--groups N] [--queue-depth N] [--quantum N]
//!       [--cache-dir DIR] [--journal-dir DIR] [--journal-max-bytes N]
//!       [--gc-every N] [--max-scale N] [--shed-high PCT] [--shed-low PCT]
//!       [--shed-p99-ms N] [--breaker-threshold N] [--breaker-cooldown-ms N]
//!       [--fault SPEC] [--prom-out FILE] [--trace-perfetto FILE]
//! ```
//!
//! On Unix, `SIGTERM` triggers the same graceful drain as a `shutdown`
//! request: stop accepting, finish queued work, flush exports, exit.

use cestim_obs::span::SpanCollector;
use cestim_obs::Registry;
use cestim_serve::{ServeConfig, Server};
use std::net::TcpListener;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--groups N] [--queue-depth N] [--quantum N]\n\
         \x20            [--cache-dir DIR] [--journal-dir DIR] [--journal-max-bytes N]\n\
         \x20            [--gc-every N] [--max-scale N]\n\
         \x20            [--shed-high PCT] [--shed-low PCT] [--shed-p99-ms N]\n\
         \x20            [--breaker-threshold N] [--breaker-cooldown-ms N]\n\
         \x20            [--fault panic:N|slow:N:MS|io:N]\n\
         \x20            [--prom-out FILE] [--trace-perfetto FILE]\n\
         \n\
         Long-lived simulation server speaking line-delimited JSON\n\
         (protocol reference: docs/SERVING.md). Send {{\"op\":\"shutdown\"}}\n\
         or SIGTERM to drain and stop."
    );
    std::process::exit(2);
}

struct Args {
    addr: String,
    cfg: ServeConfig,
    prom_out: Option<String>,
    trace_perfetto: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:7191".to_string(),
        cfg: ServeConfig::default(),
        prom_out: None,
        trace_perfetto: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().unwrap_or_else(|| usage_for(name));
        match arg.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--groups" => args.cfg.groups = parse_num(&value("--groups")),
            "--queue-depth" => args.cfg.queue_depth = parse_num(&value("--queue-depth")),
            "--quantum" => args.cfg.quantum = parse_num(&value("--quantum")),
            "--cache-dir" => args.cfg.cache_dir = Some(value("--cache-dir").into()),
            "--journal-dir" => args.cfg.journal_dir = Some(value("--journal-dir").into()),
            "--journal-max-bytes" => {
                args.cfg.journal_max_bytes = parse_num(&value("--journal-max-bytes"));
            }
            "--gc-every" => args.cfg.gc_every = parse_num(&value("--gc-every")),
            "--max-scale" => args.cfg.limits.max_scale = parse_num(&value("--max-scale")),
            "--shed-high" => args.cfg.shed.high_pct = parse_num(&value("--shed-high")),
            "--shed-low" => args.cfg.shed.low_pct = parse_num(&value("--shed-low")),
            "--shed-p99-ms" => {
                args.cfg.shed.p99_nanos = parse_num::<u64>(&value("--shed-p99-ms")) * 1_000_000;
            }
            "--breaker-threshold" => {
                args.cfg.breaker.threshold = parse_num(&value("--breaker-threshold"));
            }
            "--breaker-cooldown-ms" => {
                args.cfg.breaker.cooldown =
                    Duration::from_millis(parse_num(&value("--breaker-cooldown-ms")));
            }
            "--fault" => {
                args.cfg.fault =
                    cestim_exec::FaultPlan::parse(&value("--fault")).unwrap_or_else(|e| {
                        eprintln!("{e}");
                        usage();
                    });
            }
            "--prom-out" => args.prom_out = Some(value("--prom-out")),
            "--trace-perfetto" => args.trace_perfetto = Some(value("--trace-perfetto")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage();
            }
        }
    }
    args
}

fn usage_for(name: &str) -> ! {
    eprintln!("missing value for {name}");
    usage();
}

fn parse_num<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("bad numeric argument: {s}");
        usage();
    })
}

/// Set by the SIGTERM handler; polled by the drain watcher thread.
#[cfg(unix)]
static SIGTERM_SEEN: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_sigterm(_signum: i32) {
    // Only async-signal-safe work here: a single atomic store.
    SIGTERM_SEEN.store(true, std::sync::atomic::Ordering::Release);
}

/// Installs the SIGTERM handler and a watcher thread that turns the
/// signal into the same graceful drain a `shutdown` request performs.
#[cfg(unix)]
fn install_sigterm_drain(server: &std::sync::Arc<Server>) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
    let server = std::sync::Arc::clone(server);
    std::thread::spawn(move || loop {
        if SIGTERM_SEEN.load(std::sync::atomic::Ordering::Acquire) {
            eprintln!("[serve] SIGTERM: draining");
            server.begin_shutdown();
            return;
        }
        if server.is_shutting_down() {
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    });
}

#[cfg(not(unix))]
fn install_sigterm_drain(_server: &std::sync::Arc<Server>) {}

fn main() {
    let args = parse_args();
    let registry = Registry::new();
    let spans = if args.trace_perfetto.is_some() {
        SpanCollector::new()
    } else {
        SpanCollector::disabled()
    };
    let server = match Server::start_with(args.cfg.clone(), registry.clone(), spans.clone()) {
        Ok(server) => std::sync::Arc::new(server),
        Err(e) => {
            eprintln!("serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    install_sigterm_drain(&server);
    let listener = match TcpListener::bind(&args.addr) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let local = listener
        .local_addr()
        .map_or(args.addr.clone(), |a| a.to_string());
    println!(
        "[serve] listening on {local} ({} groups, queue depth {}, quantum {})",
        args.cfg.groups, args.cfg.queue_depth, args.cfg.quantum
    );
    if let Err(e) = server.serve_tcp(listener) {
        eprintln!("serve: accept loop failed: {e}");
    }
    let requests = registry.counter("serve.requests", &[]).get();
    let hits = registry.counter("exec.jobs.cache_hits", &[]).get();
    let executed = registry.counter("serve.executed", &[]).get();
    // The watcher thread drops its handle once it sees the shutdown
    // flag (set by whatever ended serve_tcp), so the Arc drains fast.
    let mut server = server;
    let server = loop {
        match std::sync::Arc::try_unwrap(server) {
            Ok(server) => break server,
            Err(still_shared) => {
                server = still_shared;
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    server.shutdown();
    if let Some(path) = &args.prom_out {
        match cestim_obs::export::write_prometheus(path, &registry.snapshot()) {
            Ok(()) => println!("[serve] wrote {path}"),
            Err(e) => eprintln!("serve: writing {path} failed: {e}"),
        }
    }
    if let Some(path) = &args.trace_perfetto {
        let records = spans.drain();
        match cestim_obs::export::write_perfetto(path, &records) {
            Ok(()) => println!("[serve] wrote {path} ({} spans)", records.len()),
            Err(e) => eprintln!("serve: writing {path} failed: {e}"),
        }
    }
    println!("[serve] done: {requests} requests ({hits} cache hits, {executed} executed)");
}
