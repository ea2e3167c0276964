//! The `serve` workload: warm-cache requests against the TCP front end of
//! an in-process `Server`, from one generator thread on one connection
//! with a fixed in-flight window (a closed loop with no think time).

use crate::expected::Expected;
use crate::stats::{median, percentile};
use crate::{Opts, Report};
use cestim_exec::{CacheKey, DiskCache, Job};
use cestim_serve::load::{build_mix, client_name, LoadConfig, MixItem};
use cestim_serve::{
    parse_line, render_request, render_response, DrrQueue, Request, RequestLimits, Response,
    ServeConfig, Server, Ticket,
};
use cestim_sim::{ExecJob, JobOutput, RunConfig};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Requests in flight on the connection (fewer than the mix length).
const WINDOW: usize = 16;

/// Prefix of a result line for a mix request (ids are `m<index>`).
const RESULT_PREFIX: &str = r#"{"type":"result","id":"m"#;

/// Everything the generator and the checks need, built in set-up.
struct Fixture {
    /// Request line per mix index, with id `m<index>`.
    lines: Vec<String>,
    /// Direct-execution payload JSON per unique job.
    payloads: Vec<String>,
    /// Index into `payloads` per mix index.
    payload_of: Vec<usize>,
    /// Committed branches of the simulation behind each mix index.
    branches: Vec<u64>,
    /// Unique jobs: key, job and direct-execution payload value.
    unique: Vec<(CacheKey, ExecJob, Value)>,
    /// Direct-execution output per unique job, as the workers store it.
    outputs: Vec<JobOutput>,
    /// The warmed result-cache directory.
    cache_dir: PathBuf,
}

fn load_config(opts: &Opts) -> LoadConfig {
    LoadConfig {
        seed: opts.seed,
        requests: opts.size.mix_requests,
        ..LoadConfig::default()
    }
}

/// The configuration a mix job simulates.
fn job_config(job: &ExecJob) -> Option<&RunConfig> {
    match job {
        ExecJob::Run { cfg, .. } | ExecJob::Distance { cfg, .. } | ExecJob::Cluster { cfg, .. } => {
            Some(cfg)
        }
        _ => None,
    }
}

/// Executes every unique job of the mix directly (the reference the
/// served payloads are checked against) and renders the request lines.
/// Not part of the timed set-up; the cache is warmed by [`warm_cache`].
fn fixture(opts: &Opts, expected: &Expected) -> Fixture {
    let mix: Vec<MixItem> = build_mix(&load_config(opts));
    // Unique jobs in cache-key order, so set-up does the same work in the
    // same order whenever two mixes hold the same jobs.
    let by_key: BTreeMap<String, &ExecJob> = mix
        .iter()
        .map(|item| (item.job.cache_key().id(), &item.job))
        .collect();
    let mut unique = Vec::with_capacity(by_key.len());
    let mut outputs = Vec::with_capacity(by_key.len());
    let mut payloads = Vec::with_capacity(by_key.len());
    for job in by_key.values() {
        let output: JobOutput = job.execute();
        let value = serde::to_value(&output);
        let mut text = value.to_string();
        if expected.tamper_serve {
            text.push(' ');
        }
        unique.push((job.cache_key(), (*job).clone(), value));
        outputs.push(output);
        payloads.push(text);
    }
    let position: HashMap<&String, usize> =
        by_key.keys().enumerate().map(|(i, k)| (k, i)).collect();
    let payload_of = mix
        .iter()
        .map(|item| position[&item.job.cache_key().id()])
        .collect();
    let lines = mix
        .iter()
        .map(|item| {
            render_request(&Request::Run {
                id: format!("m{}", item.index),
                client: client_name(item.client_idx),
                priority: item.priority,
                deadline_ms: 0,
                job: item.job.clone(),
            })
        })
        .collect();
    Fixture {
        lines,
        payloads,
        payload_of,
        branches: Vec::new(),
        unique,
        outputs,
        cache_dir: PathBuf::new(),
    }
}

/// Stores every unique job's result in a fresh cache directory the way
/// the server's workers do, and returns the directory.
fn warm_cache(opts: &Opts, rep: usize, fx: &Fixture) -> PathBuf {
    let cache_dir = opts.work_dir.join(format!("serve-cache-{rep}"));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cache = DiskCache::open(&cache_dir).expect("open the serve cache directory");
    for ((key, job, _), output) in fx.unique.iter().zip(&fx.outputs) {
        cache
            .store(key, &job.label(), output)
            .expect("store a warm result");
    }
    cache_dir
}

/// Fills in the committed branches behind every mix request: the
/// architectural branch count of the job's configuration.
fn count_branches(fx: &mut Fixture) {
    let mut counts: HashMap<String, u64> = HashMap::new();
    let per_job: Vec<u64> = fx
        .unique
        .iter()
        .map(|(_, job, _)| {
            job_config(job).map_or(0, |cfg| {
                let id = format!("{}/{}/{}", cfg.workload.name(), cfg.scale, cfg.input_salt);
                *counts
                    .entry(id)
                    .or_insert_with(|| crate::cells::architectural_branches(cfg))
            })
        })
        .collect();
    fx.branches = fx.payload_of.iter().map(|&i| per_job[i]).collect();
}

/// Set-up: the reference fixture once, then cache warm-up, server start
/// and listener bind, repeated as often as [`crate::more_setup_reps`]
/// asks; the last one stays up. Returns each repetition's seconds.
///
/// Executing the jobs is the benchmark's reference, not the server's
/// set-up: timed, it made `setup_s` follow the host's slow phases (0.9 to
/// 2.0 s over ten runs) while the warm-up and start cost milliseconds.
fn set_up(opts: &Opts, expected: &Expected) -> (Vec<f64>, Fixture, Server, TcpListener) {
    let mut fx = fixture(opts, expected);
    count_branches(&mut fx);
    let mut secs = Vec::new();
    let mut ready: Option<(PathBuf, Server, TcpListener)> = None;
    while crate::more_setup_reps(&secs, opts.size.setup_reps) {
        let rep = secs.len();
        if let Some((dir, server, _)) = ready.take() {
            server.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
        let t = Instant::now();
        let dir = warm_cache(opts, rep, &fx);
        let server = Server::start(ServeConfig {
            groups: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        })
        .expect("start the server");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        secs.push(t.elapsed().as_secs_f64());
        ready = Some((dir, server, listener));
    }
    let (dir, server, listener) = ready.expect("at least one set-up");
    fx.cache_dir = dir;
    (secs, fx, server, listener)
}

/// What one generator pass saw.
#[derive(Debug, Default)]
struct Drive {
    /// Send→result latency of every completed request, in ms.
    latencies_ms: Vec<f64>,
    /// Seconds and committed branches of each run of `mix` consecutive
    /// completions.
    chunks: Vec<(f64, u64)>,
}

/// The request id index of a result line.
fn result_index(line: &str) -> Option<usize> {
    let rest = line.strip_prefix(RESULT_PREFIX)?;
    rest[..rest.find('"')?].parse().ok()
}

/// Replays the mix over one connection until `seconds` have elapsed,
/// checking every payload against the direct-execution bytes.
fn drive(addr: SocketAddr, fx: &Fixture, seconds: f64, report: &mut Report) -> io::Result<Drive> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let m = fx.lines.len();
    // Below the mix length, so a free id always exists.
    let window = WINDOW.min(m.saturating_sub(1)).max(1);
    let mut sent_at: Vec<Option<Instant>> = vec![None; m];
    let mut out = Drive::default();
    let (mut next, mut inflight) = (0usize, 0usize);
    let start = Instant::now();
    let (mut chunk_start, mut chunk_done, mut chunk_branches) = (start, 0usize, 0u64);
    let mut line = String::new();
    loop {
        if start.elapsed().as_secs_f64() < seconds {
            while inflight < window {
                // Requests complete out of order (fair queuing across
                // clients), so skip ids still in flight.
                while sent_at[next % m].is_some() {
                    next += 1;
                }
                let idx = next % m;
                writer.write_all(fx.lines[idx].as_bytes())?;
                writer.write_all(b"\n")?;
                sent_at[idx] = Some(Instant::now());
                next += 1;
                inflight += 1;
            }
            writer.flush()?;
        }
        if inflight == 0 {
            break;
        }
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        let line = line.trim_end();
        if let Some(idx) = result_index(line).filter(|&i| i < m) {
            let now = Instant::now();
            let sent = sent_at[idx].take();
            inflight -= 1;
            if let Some(sent) = sent {
                out.latencies_ms
                    .push(now.duration_since(sent).as_secs_f64() * 1e3);
            }
            let ok = sent.is_some()
                && line.contains(r#""cached":true"#)
                && line.contains(fx.payloads[fx.payload_of[idx]].as_str());
            report.check(ok, || {
                format!("serve request m{idx}: payload or cache flag differs")
            });
            chunk_done += 1;
            chunk_branches += fx.branches[idx];
            if chunk_done == m {
                out.chunks.push((
                    now.duration_since(chunk_start).as_secs_f64(),
                    chunk_branches,
                ));
                (chunk_start, chunk_done, chunk_branches) = (now, 0, 0);
            }
        } else if line.starts_with(r#"{"type":"rejected""#)
            || line.starts_with(r#"{"type":"error""#)
        {
            inflight -= 1;
            report.check(false, || format!("serve: {line}"));
        }
    }
    if out.chunks.is_empty() && chunk_done > 0 {
        // A pass shorter than one mix: scale the partial chunk up.
        let secs = chunk_start.elapsed().as_secs_f64() * m as f64 / chunk_done as f64;
        out.chunks
            .push((secs, chunk_branches * m as u64 / chunk_done as u64));
    }
    Ok(out)
}

/// Runs `f` against the server's TCP front end, then stops the server and
/// joins every thread it started.
fn with_front_end<T>(
    server: Server,
    listener: TcpListener,
    f: impl FnOnce(SocketAddr, &Server) -> T,
) -> T {
    let addr = listener.local_addr().expect("listener address");
    let out = std::thread::scope(|s| {
        let front = s.spawn(|| server.serve_tcp(listener));
        let out = f(addr, &server);
        server.begin_shutdown();
        let _ = front.join();
        out
    });
    server.shutdown();
    out
}

/// The `serve` workload.
pub fn workload(opts: &Opts, expected: &Expected, report: &mut Report) {
    let (setup, fx, server, listener) = set_up(opts, expected);
    report.lines.push(format!(
        "serve mix: {} requests, {} unique jobs",
        fx.lines.len(),
        fx.unique.len()
    ));
    let d = with_front_end(server, listener, |addr, _| {
        drive(addr, &fx, opts.seconds, report)
    })
    .expect("drive the serve front end");
    let m = fx.lines.len();
    let rps: Vec<f64> = d.chunks.iter().map(|(s, _)| m as f64 / s).collect();
    let bps: Vec<f64> = d.chunks.iter().map(|(s, b)| *b as f64 / s).collect();
    let chunks = d.chunks.len();
    report.metric(
        "branches_per_s",
        median(&bps),
        "1/s",
        format!("committed branches of the served results, median of {chunks} mixes"),
    );
    report.metric(
        "requests_per_s",
        median(&rps),
        "1/s",
        format!("median of {chunks} mixes of {m} requests, window {WINDOW}"),
    );
    for (name, q) in [("latency_p50_ms", 0.50), ("latency_p99_ms", 0.99)] {
        report.metric(
            name,
            percentile(&d.latencies_ms, q),
            "ms",
            format!("exact send-to-result, n={}", d.latencies_ms.len()),
        );
    }
    report.metric(
        "regen_s",
        median(&d.chunks.iter().map(|(s, _)| *s).collect::<Vec<_>>()),
        "s",
        format!("median seconds to serve one mix of {m} requests"),
    );
    report.setup_and_memory(&setup);
    let _ = std::fs::remove_dir_all(&fx.cache_dir);
}

/// Nanoseconds per call of `pass` (which makes `calls` calls), one clock
/// pair per pass, over `reps` batches of at least `batch_seconds`.
fn per_call_ns(opts: &Opts, calls: usize, mut pass: impl FnMut() -> Duration) -> Vec<f64> {
    (0..crate::REPETITIONS)
        .map(|_| {
            let (mut spent, mut n) = (Duration::ZERO, 0usize);
            while spent.as_secs_f64() < opts.size.batch_seconds || n == 0 {
                spent += pass();
                n += calls;
            }
            spent.as_nanos() as f64 / n as f64
        })
        .collect()
}

fn layer(report: &mut Report, name: &str, ns: &[f64], what: &str) {
    report.metric(
        name,
        median(ns),
        "ns",
        format!("{what}, median of {} batches", ns.len()),
    );
}

/// Serve layer costs over the same mix, each function called directly,
/// plus the server's own histograms after a short pass.
pub fn traced(opts: &Opts, report: &mut Report) {
    let expected = Expected::default();
    let (_, fx, server, listener) = set_up(opts, &expected);
    let pass_seconds = opts.seconds.min(2.0);
    let (d, wait_p99, request_p50) = with_front_end(server, listener, |addr, server| {
        let d = drive(addr, &fx, pass_seconds, report).expect("drive the serve front end");
        let reg = server.registry();
        let wait = reg.histogram("serve.queue_wait.nanos", &[]).snapshot();
        let request = reg.histogram("serve.request.nanos", &[]).snapshot();
        (d, wait.quantile(0.99), request.quantile(0.50))
    });
    report.lines.push(format!(
        "serve pass: {} requests in {pass_seconds} s",
        d.latencies_ms.len()
    ));
    report.metric(
        "serve.queue_wait_p99_us",
        wait_p99 as f64 / 1e3,
        "us",
        "server log2 histogram upper bound".into(),
    );
    report.metric(
        "serve.request_p50_us",
        request_p50 as f64 / 1e3,
        "us",
        "server log2 histogram upper bound".into(),
    );

    let m = fx.lines.len();
    let limits = RequestLimits::default();
    let mut parsed_ok = true;
    let ns = per_call_ns(opts, m, || {
        let t = Instant::now();
        for line in &fx.lines {
            parsed_ok &= black_box(parse_line(line.as_bytes(), &limits)).is_ok();
        }
        t.elapsed()
    });
    report.check(parsed_ok, || "serve: a mix request failed to parse".into());
    layer(
        report,
        "serve.protocol.parse_ns",
        &ns,
        "parse_line per request",
    );

    let responses: Vec<Response> = fx
        .unique
        .iter()
        .enumerate()
        .map(|(i, (_, _, payload))| Response::Result {
            id: format!("m{i}"),
            cached: true,
            elapsed_nanos: 0,
            payload: payload.clone(),
        })
        .collect();
    let ns = per_call_ns(opts, responses.len(), || {
        let t = Instant::now();
        for r in &responses {
            black_box(render_response(r));
        }
        t.elapsed()
    });
    layer(
        report,
        "serve.protocol.render_ns",
        &ns,
        "render_response per result",
    );

    let mix = build_mix(&load_config(opts));
    let (reply, _replies) = std::sync::mpsc::channel();
    let mut drained_all = true;
    let ns = per_call_ns(opts, mix.len(), || {
        let tickets: Vec<Ticket> = mix
            .iter()
            .map(|item| Ticket {
                seq: item.index as u64,
                id: format!("m{}", item.index),
                client: client_name(item.client_idx),
                priority: item.priority,
                job: item.job.clone(),
                key: item.job.cache_key(),
                shard: 0,
                enqueued: Instant::now(),
                deadline: None,
                enqueued_span_nanos: 0,
                reply: reply.clone(),
            })
            .collect();
        let mut q = DrrQueue::new(tickets.len(), ServeConfig::default().quantum);
        let t = Instant::now();
        for ticket in tickets {
            let _ = q.push(ticket);
        }
        let mut popped = 0;
        while let Some(ticket) = q.pop() {
            black_box(&ticket);
            popped += 1;
        }
        let spent = t.elapsed();
        drained_all &= popped == mix.len();
        spent
    });
    report.check(drained_all, || "serve: DRR queue lost tickets".into());
    layer(
        report,
        "serve.sched.drr_ns",
        &ns,
        "DrrQueue push+pop per ticket",
    );

    let cache = DiskCache::open(&fx.cache_dir).expect("open the warmed cache");
    let mut all_hit = true;
    let ns = per_call_ns(opts, fx.unique.len(), || {
        let t = Instant::now();
        for (key, _, _) in &fx.unique {
            all_hit &= black_box(cache.load::<JobOutput>(key)).is_some();
        }
        t.elapsed()
    });
    report.check(all_hit, || {
        "serve: a warmed cache entry did not load".into()
    });
    layer(
        report,
        "exec.cache.load_ns",
        &ns,
        "DiskCache::load per entry",
    );
    let _ = std::fs::remove_dir_all(&fx.cache_dir);
}
