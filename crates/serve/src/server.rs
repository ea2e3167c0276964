//! The long-lived simulation server: admission, sharded DRR scheduling,
//! warm-cache result serving, and the TCP/in-process front ends.
//!
//! One worker thread per shard pops tickets from its [`DrrQueue`] and
//! hands each job to the server's one [`Executor`] through
//! [`Executor::run_one`]: the executor probes the shared
//! content-addressed cache (warm hit → replay the stored `JobOutput`
//! without simulating), else runs the [`ExecJob`](cestim_sim::ExecJob)
//! with panic isolation, the fault plan and the cooperative deadline,
//! then journals and stores the result, exactly as it does for `repro`.
//! The server keeps only serving policy: dequeue-time deadline
//! rejection, the responses, `serve.*` metrics, breakers and journal
//! rotation. Requests are spanned (`serve.queue_wait` / `serve.request`,
//! with the executor's cache and attempt spans beneath), so the existing
//! Prometheus/Perfetto exporters work unchanged.
//!
//! Clients stream responses in admission order per request: `accepted`
//! (or `rejected` under backpressure), `started` with the measured
//! queue wait, then a terminal `result` or `error`.

use crate::overload::{BreakerConfig, Breakers, OverloadGate, ShedConfig, WaitWindow};
use crate::protocol::{
    parse_line, render_response, ErrorCode, Request, RequestLimits, Response, MAX_LINE_BYTES,
    REASON_BREAKER_OPEN, REASON_DEADLINE, REASON_QUEUE_FULL, REASON_SHEDDING, REASON_SHUTTING_DOWN,
};
use crate::sched::{shard_of, DrrQueue, Ticket};
use cestim_exec::{CachePolicy, Executor, FaultPlan, Job, JobErrorKind, Ran, RunJournal};
use cestim_obs::span::{SpanBuffer, SpanCollector, SpanId};
use cestim_obs::{Counter, Gauge, Histogram, Registry};
use cestim_sim::sim_schema_salt;
use serde::Value;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker groups (shards); one executor thread each.
    pub groups: usize,
    /// Ticket capacity per shard queue (admission beyond it rejects).
    pub queue_depth: usize,
    /// DRR credits granted per weight unit per rotor visit.
    pub quantum: u64,
    /// Result-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Journal directory; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// Run a stale-cache sweep every N admissions (0 disables).
    pub gc_every: u64,
    /// Request validation bounds.
    pub limits: RequestLimits,
    /// Load-shedding watermarks (`high_pct == 0` disables shedding).
    pub shed: ShedConfig,
    /// Per-client circuit-breaker tuning (`threshold == 0` disables).
    pub breaker: BreakerConfig,
    /// Rotate the run journal once it exceeds this many bytes
    /// (0 = never rotate).
    pub journal_max_bytes: u64,
    /// Chaos-injection plan applied to every request that reaches a
    /// worker (crashes, slowdowns, cache I/O failures), for resilience
    /// testing. Defaults to none.
    pub fault: FaultPlan,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            groups: 2,
            queue_depth: 64,
            quantum: 4,
            cache_dir: None,
            journal_dir: None,
            gc_every: 0,
            limits: RequestLimits::default(),
            shed: ShedConfig::default(),
            breaker: BreakerConfig::default(),
            journal_max_bytes: 1 << 24,
            fault: FaultPlan::none(),
        }
    }
}

/// `serve.*` metric handles, registered once at startup.
struct Metrics {
    requests: Counter,
    accepted: Counter,
    rejected: Counter,
    parse_errors: Counter,
    cache_hits: Counter,
    executed: Counter,
    failures: Counter,
    gc_sweeps: Counter,
    gc_removed: Counter,
    shed: Counter,
    deadline_rejected: Counter,
    deadline_cancelled: Counter,
    breaker_opened: Counter,
    breaker_rejected: Counter,
    recovered: Counter,
    journal_rotations: Counter,
    degraded: Gauge,
    queue_depth: Gauge,
    queue_wait: Histogram,
    request_nanos: Histogram,
}

impl Metrics {
    fn new(reg: &Registry) -> Metrics {
        Metrics {
            requests: reg.counter("serve.requests", &[]),
            accepted: reg.counter("serve.accepted", &[]),
            rejected: reg.counter("serve.rejected", &[]),
            parse_errors: reg.counter("serve.parse_errors", &[]),
            cache_hits: reg.counter("serve.cache_hits", &[]),
            executed: reg.counter("serve.executed", &[]),
            failures: reg.counter("serve.failures", &[]),
            gc_sweeps: reg.counter("serve.gc.sweeps", &[]),
            gc_removed: reg.counter("serve.gc.removed", &[]),
            shed: reg.counter("serve.shed", &[]),
            deadline_rejected: reg.counter("serve.deadline.rejected", &[]),
            deadline_cancelled: reg.counter("serve.deadline.cancelled", &[]),
            breaker_opened: reg.counter("serve.breaker.opened", &[]),
            breaker_rejected: reg.counter("serve.breaker.rejected", &[]),
            recovered: reg.counter("serve.recovered", &[]),
            journal_rotations: reg.counter("serve.journal.rotations", &[]),
            degraded: reg.gauge("serve.degraded", &[]),
            queue_depth: reg.gauge("serve.queue.depth", &[]),
            queue_wait: reg.histogram("serve.queue_wait.nanos", &[]),
            request_nanos: reg.histogram("serve.request.nanos", &[]),
        }
    }
}

struct Shard {
    queue: Mutex<DrrQueue>,
    ready: Condvar,
}

struct Inner {
    cfg: ServeConfig,
    /// Runs every request's job: cache probe, fault plan, isolated
    /// execution under the cooperative deadline, journal and store. Its
    /// registry and span collector are the server's.
    exec: Executor,
    shards: Vec<Shard>,
    shutdown: AtomicBool,
    seq: AtomicU64,
    gc_tick: AtomicU64,
    gate: OverloadGate,
    breakers: Breakers,
    waits: WaitWindow,
    m: Metrics,
}

impl Inner {
    /// Parses and dispatches one raw protocol line; parse failures
    /// become `error` responses with the request id echoed when it is
    /// recoverable from the line.
    fn submit_line(&self, bytes: &[u8], reply: &Sender<Response>) {
        match parse_line(bytes, &self.cfg.limits) {
            Ok(req) => self.submit(req, reply),
            Err(e) => {
                self.m.parse_errors.add(1);
                let _ = reply.send(Response::Error {
                    id: recover_id(bytes),
                    code: e.code.as_str().to_string(),
                    message: e.message,
                });
            }
        }
    }

    /// Dispatches one parsed request.
    fn submit(&self, req: Request, reply: &Sender<Response>) {
        match req {
            Request::Ping => {
                let _ = reply.send(Response::Pong);
            }
            Request::Stats => {
                let _ = reply.send(Response::Stats(self.stats_value()));
            }
            Request::CacheGc => {
                let removed = self.run_gc();
                let _ = reply.send(Response::Gc { removed });
            }
            Request::Shutdown => {
                let _ = reply.send(Response::ShuttingDown);
                self.begin_shutdown();
            }
            Request::Health => {
                let _ = reply.send(Response::Health {
                    healthy: true,
                    draining: self.shutdown.load(Ordering::Acquire),
                    degraded: self.gate.is_degraded(),
                });
            }
            Request::Ready => {
                let draining = self.shutdown.load(Ordering::Acquire);
                let degraded = self.gate.is_degraded();
                let _ = reply.send(Response::Ready {
                    ready: !draining && !degraded,
                    queued: self.m.queue_depth.get().max(0) as u64,
                });
            }
            Request::Run {
                id,
                client,
                priority,
                deadline_ms,
                job,
            } => self.admit(id, client, priority, deadline_ms, job, reply),
        }
    }

    fn admit(
        &self,
        id: String,
        client: String,
        priority: u32,
        deadline_ms: u64,
        job: cestim_sim::ExecJob,
        reply: &Sender<Response>,
    ) {
        self.m.requests.inc();
        // Validate here (not only in the line parser) so in-process
        // submissions obey the same admission limits as TCP ones.
        if let Err(e) = crate::protocol::validate_job(&job, &self.cfg.limits) {
            self.m.parse_errors.inc();
            let _ = reply.send(Response::Error {
                id: Some(id),
                code: e.code.as_str().to_string(),
                message: e.message,
            });
            return;
        }
        let key = job.cache_key();
        let shard = shard_of(&key, self.shards.len());
        if self.shutdown.load(Ordering::Acquire) {
            self.m.rejected.inc();
            let _ = reply.send(Response::Rejected {
                id,
                shard,
                reason: REASON_SHUTTING_DOWN.to_string(),
                queue_depth: 0,
            });
            return;
        }
        // Circuit breaker: a client with repeated execution failures is
        // rejected fast instead of consuming queue slots.
        if !self.breakers.allow(&client, Instant::now()) {
            self.m.rejected.inc();
            self.m.breaker_rejected.inc();
            let _ = reply.send(Response::Rejected {
                id,
                shard,
                reason: REASON_BREAKER_OPEN.to_string(),
                queue_depth: 0,
            });
            return;
        }
        // Load shedding with hysteresis: once queued work crosses the
        // high watermark (or the queue-wait p99 the latency watermark),
        // new work is shed until depth drains to the low watermark.
        let queued = self.m.queue_depth.get().max(0) as usize;
        let capacity = self.shards.len() * self.cfg.queue_depth;
        let degraded = self.gate.observe(queued, capacity, self.waits.p99());
        self.m.degraded.set(i64::from(degraded));
        if degraded {
            self.m.rejected.inc();
            self.m.shed.inc();
            let _ = reply.send(Response::Rejected {
                id,
                shard,
                reason: REASON_SHEDDING.to_string(),
                queue_depth: queued,
            });
            return;
        }
        let ticket = Ticket {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            id: id.clone(),
            client,
            priority,
            job,
            key,
            shard,
            enqueued: Instant::now(),
            deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
            enqueued_span_nanos: if self.exec.spans().enabled() {
                self.exec.spans().now_nanos()
            } else {
                0
            },
            reply: reply.clone(),
        };
        // Hold the shard lock across the accepted/rejected send so the
        // worker cannot emit `started` before the client sees `accepted`.
        let mut q = self.shards[shard].queue.lock().expect("shard lock");
        match q.push(ticket) {
            Ok(()) => {
                let queue_depth = q.len();
                self.m.accepted.inc();
                self.m.queue_depth.add(1);
                let _ = reply.send(Response::Accepted {
                    id,
                    shard,
                    queue_depth,
                });
                drop(q);
                self.shards[shard].ready.notify_one();
            }
            Err(_bounced) => {
                let queue_depth = q.len();
                drop(q);
                self.m.rejected.inc();
                let _ = reply.send(Response::Rejected {
                    id,
                    shard,
                    reason: REASON_QUEUE_FULL.to_string(),
                    queue_depth,
                });
            }
        }
        self.maybe_gc();
    }

    /// Runs the scheduled stale-cache sweep every `gc_every` admissions.
    fn maybe_gc(&self) {
        if self.cfg.gc_every == 0 {
            return;
        }
        let tick = self.gc_tick.fetch_add(1, Ordering::Relaxed) + 1;
        if tick.is_multiple_of(self.cfg.gc_every) {
            self.run_gc();
        }
    }

    /// Sweeps cache entries whose schema salt no longer matches the
    /// current simulation schema; returns how many were removed.
    fn run_gc(&self) -> u64 {
        if self.cfg.cache_dir.is_none() {
            return 0;
        }
        let removed = self.exec.evict_stale(sim_schema_salt()) as u64;
        self.m.gc_sweeps.inc();
        self.m.gc_removed.add(removed);
        removed
    }

    fn stats_value(&self) -> Value {
        serde_json::json!({
            "requests": self.m.requests.get(),
            "accepted": self.m.accepted.get(),
            "rejected": self.m.rejected.get(),
            "parse_errors": self.m.parse_errors.get(),
            "cache_hits": self.m.cache_hits.get(),
            "executed": self.m.executed.get(),
            "failures": self.m.failures.get(),
            "gc_sweeps": self.m.gc_sweeps.get(),
            "gc_removed": self.m.gc_removed.get(),
            "queue_depth": self.m.queue_depth.get(),
            "shed": self.m.shed.get(),
            "deadline_rejected": self.m.deadline_rejected.get(),
            "deadline_cancelled": self.m.deadline_cancelled.get(),
            "breaker_opened": self.m.breaker_opened.get(),
            "breaker_rejected": self.m.breaker_rejected.get(),
            "breakers_open": self.breakers.open_count() as u64,
            "recovered": self.m.recovered.get(),
            "journal_prior_jobs": self.exec.journal().map_or(0, |j| j.prior_job_count() as u64),
            "journal_rotations": self.m.journal_rotations.get(),
            "degraded": self.m.degraded.get(),
        })
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
        for shard in &self.shards {
            shard.ready.notify_all();
        }
    }

    /// Serves one popped ticket: queue-wait accounting, the
    /// deadline-at-dequeue check, the job run through the executor,
    /// breaker bookkeeping, journal rotation, and the terminal response.
    fn handle(&self, ticket: Ticket, shard: usize, sbuf: &mut SpanBuffer) {
        let wait_nanos = u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.m.queue_wait.record(wait_nanos);
        self.waits.record(wait_nanos);
        // Deadline-aware dispatch: a ticket whose queue wait alone
        // already exceeds its budget is rejected without executing — the
        // client has given up, so running it would only burn a worker.
        if let Some(deadline) = ticket.deadline {
            if wait_nanos >= u64::try_from(deadline.as_nanos()).unwrap_or(u64::MAX) {
                self.m.rejected.inc();
                self.m.deadline_rejected.inc();
                let _ = ticket.reply.send(Response::Rejected {
                    id: ticket.id,
                    shard,
                    reason: REASON_DEADLINE.to_string(),
                    queue_depth: self.m.queue_depth.get().max(0) as usize,
                });
                return;
            }
        }
        let shard_tag = shard.to_string();
        if sbuf.enabled() {
            let now = sbuf.now_nanos();
            sbuf.record_closed(
                "serve.queue_wait",
                SpanId::NONE,
                &[("client", &ticket.client), ("shard", &shard_tag)],
                ticket.enqueued_span_nanos.min(now),
                now,
            );
        }
        let _ = ticket.reply.send(Response::Started {
            id: ticket.id.clone(),
            shard,
            queue_wait_nanos: wait_nanos,
        });

        let mut span = sbuf.open(
            "serve.request",
            SpanId::NONE,
            &[("client", &ticket.client), ("shard", &shard_tag)],
        );
        // The budget runs from admission, so the queue wait counts
        // against it.
        let due = ticket.deadline.map(|d| ticket.enqueued + d);
        let run = self
            .exec
            .run_one(&ticket.job, &ticket.key, due, sbuf, span.id());
        let cached = matches!(run, Ok(Ran::Hit { .. }));
        // Crash recovery: a warm hit for a key the resumed journal
        // already completed is work a previous incarnation did — count
        // it as recovered rather than merely cached.
        if let Ok(Ran::Hit { resumed: true, .. }) = &run {
            self.m.recovered.inc();
        }
        let outcome = run.map(|ran| match ran {
            Ran::Hit { output, .. } | Ran::Executed(output) => serde::to_value(&output),
        });
        span.label("cached", if cached { "true" } else { "false" });
        span.label(
            "outcome",
            match &outcome {
                Ok(_) => "ok",
                Err(e) => e.kind.outcome(),
            },
        );
        sbuf.close(span);

        // Bound journal growth under long-lived serving: rotate the
        // active file aside once it crosses the size threshold.
        if let Some(journal) = self.exec.journal() {
            if self.cfg.journal_max_bytes > 0
                && journal.size_bytes() > self.cfg.journal_max_bytes
                && journal.rotate().is_ok()
            {
                self.m.journal_rotations.inc();
            }
        }

        let elapsed_nanos = u64::try_from(ticket.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.m.request_nanos.record(elapsed_nanos);
        match outcome {
            Ok(payload) => {
                if cached {
                    self.m.cache_hits.inc();
                } else {
                    self.m.executed.inc();
                }
                self.breakers.record_success(&ticket.client);
                let _ = ticket.reply.send(Response::Result {
                    id: ticket.id,
                    cached,
                    elapsed_nanos,
                    payload,
                });
            }
            Err(e) if e.kind == JobErrorKind::TimedOut => {
                // A deadline overrun is the client's budget expiring,
                // not a faulty job: it does not trip the breaker.
                self.m.failures.inc();
                self.m.deadline_cancelled.inc();
                let _ = ticket.reply.send(Response::Error {
                    id: Some(ticket.id),
                    code: ErrorCode::Deadline.as_str().to_string(),
                    message: e.message,
                });
            }
            Err(e) => {
                self.m.failures.inc();
                if self.breakers.record_failure(&ticket.client, Instant::now()) {
                    self.m.breaker_opened.inc();
                }
                let _ = ticket.reply.send(Response::Error {
                    id: Some(ticket.id),
                    code: ErrorCode::Execution.as_str().to_string(),
                    message: e.message,
                });
            }
        }
    }
}

/// Best-effort request-id recovery from a line that failed to parse as
/// a request, so error responses can still be correlated.
fn recover_id(bytes: &[u8]) -> Option<String> {
    if bytes.len() > MAX_LINE_BYTES {
        return None;
    }
    let text = std::str::from_utf8(bytes).ok()?;
    let value: Value = serde_json::from_str(text.trim()).ok()?;
    Some(value.get("id")?.as_str()?.to_string())
}

fn worker_loop(inner: Arc<Inner>, shard_idx: usize) {
    let tag = format!("serve-w{shard_idx}");
    let mut sbuf = inner.exec.spans().buffer(&tag);
    loop {
        let popped = {
            let shard = &inner.shards[shard_idx];
            let mut q = shard.queue.lock().expect("shard lock");
            loop {
                // Drain remaining work before honoring shutdown.
                if let Some(ticket) = q.pop() {
                    break Some(ticket);
                }
                if inner.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                q = shard.ready.wait(q).expect("shard lock");
            }
        };
        let Some(ticket) = popped else {
            sbuf.flush();
            return;
        };
        inner.m.queue_depth.add(-1);
        inner.handle(ticket, shard_idx, &mut sbuf);
    }
}

/// A running server: shard workers plus the shared engine state.
///
/// Submit through [`Server::client`] (in-process) or [`Server::serve_tcp`]
/// (line-delimited JSON over TCP); stop with [`Server::shutdown`], which
/// drains all queued work first.
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server with a private registry and spans disabled.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the cache or journal.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        Server::start_with(cfg, Registry::new(), SpanCollector::disabled())
    }

    /// Starts a server recording into the given registry and collector.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from opening the cache or journal.
    pub fn start_with(
        cfg: ServeConfig,
        registry: Registry,
        spans: SpanCollector,
    ) -> io::Result<Server> {
        let mut exec = Executor::sequential()
            .with_registry(&registry)
            .with_spans(&spans)
            .with_fault_plan(cfg.fault);
        if let Some(dir) = &cfg.cache_dir {
            exec = exec.with_cache(dir, CachePolicy::ReadWrite)?;
        }
        if let Some(dir) = &cfg.journal_dir {
            exec = exec.with_journal(Arc::new(RunJournal::resume(dir)?));
        }
        let groups = cfg.groups.max(1);
        let shards = (0..groups)
            .map(|_| Shard {
                queue: Mutex::new(DrrQueue::new(cfg.queue_depth, cfg.quantum)),
                ready: Condvar::new(),
            })
            .collect();
        let m = Metrics::new(&registry);
        let gate = OverloadGate::new(cfg.shed.clone());
        let breakers = Breakers::new(cfg.breaker.clone());
        let inner = Arc::new(Inner {
            cfg,
            exec,
            shards,
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            gc_tick: AtomicU64::new(0),
            gate,
            breakers,
            waits: WaitWindow::new(),
            m,
        });
        let workers = (0..groups)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-w{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn worker")
            })
            .collect();
        Ok(Server { inner, workers })
    }

    /// The metrics registry this server records into.
    pub fn registry(&self) -> &Registry {
        self.inner.exec.registry()
    }

    /// The span collector this server records into.
    pub fn spans(&self) -> &SpanCollector {
        self.inner.exec.spans()
    }

    /// Opens an in-process client with its own response channel.
    pub fn client(&self) -> InProcClient {
        let (tx, rx) = mpsc::channel();
        InProcClient {
            inner: Arc::clone(&self.inner),
            tx,
            rx,
        }
    }

    /// True once a shutdown request has been observed.
    pub fn is_shutting_down(&self) -> bool {
        self.inner.shutdown.load(Ordering::Acquire)
    }

    /// Requests shutdown without waiting for workers to finish.
    pub fn begin_shutdown(&self) {
        self.inner.begin_shutdown();
    }

    /// Drains all queued work, stops the workers, and joins them.
    pub fn shutdown(self) {
        self.inner.begin_shutdown();
        for worker in self.workers {
            let _ = worker.join();
        }
    }

    /// Accepts connections until shutdown, one reader thread per
    /// connection. The listener is polled so the loop notices shutdown
    /// requests arriving over any connection.
    ///
    /// # Errors
    ///
    /// Returns any non-retryable accept error.
    pub fn serve_tcp(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    let inner = Arc::clone(&self.inner);
                    thread::Builder::new()
                        .name("serve-conn".to_string())
                        .spawn(move || conn_loop(inner, stream))
                        .expect("spawn conn");
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.inner.shutdown.load(Ordering::Acquire) {
                        return Ok(());
                    }
                    thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// One TCP connection: a reader loop feeding the scheduler and a writer
/// thread pumping queued responses back, one JSON line each.
fn conn_loop(inner: Arc<Inner>, stream: TcpStream) {
    let (tx, rx) = mpsc::channel::<Response>();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = thread::spawn(move || {
        let mut w = BufWriter::new(write_half);
        while let Ok(resp) = rx.recv() {
            if writeln!(w, "{}", render_response(&resp)).is_err() || w.flush().is_err() {
                break;
            }
        }
    });
    let mut reader = BufReader::new(stream);
    let mut line = Vec::with_capacity(1024);
    loop {
        match read_line_bounded(&mut reader, &mut line) {
            Err(_) | Ok(LineRead::Eof) => break,
            Ok(LineRead::Oversized) => {
                inner.m.parse_errors.add(1);
                let _ = tx.send(Response::Error {
                    id: None,
                    code: ErrorCode::Oversized.as_str().to_string(),
                    message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                });
            }
            Ok(LineRead::Line) => inner.submit_line(&line, &tx),
        }
    }
    drop(tx);
    let _ = writer.join();
}

enum LineRead {
    /// `buf` holds one complete line within bounds.
    Line,
    /// The line exceeded [`MAX_LINE_BYTES`]; its remainder was discarded.
    Oversized,
    /// End of stream.
    Eof,
}

/// Reads one newline-terminated line into `buf`, never buffering more
/// than `MAX_LINE_BYTES + 1` bytes; oversized lines are consumed to
/// their terminating newline and reported as [`LineRead::Oversized`].
fn read_line_bounded<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.len() > MAX_LINE_BYTES {
        if buf.last() != Some(&b'\n') {
            // Discard the rest of the line in bounded chunks.
            let mut scratch = Vec::with_capacity(4096);
            loop {
                scratch.clear();
                let m = reader.by_ref().take(4096).read_until(b'\n', &mut scratch)?;
                if m == 0 || scratch.last() == Some(&b'\n') {
                    break;
                }
            }
        }
        return Ok(LineRead::Oversized);
    }
    Ok(LineRead::Line)
}

/// An in-process client: submits requests straight into the scheduler
/// and reads responses from a private channel. Used by tests (the load
/// harness's `--spawn` drives its in-process server over loopback TCP).
pub struct InProcClient {
    inner: Arc<Inner>,
    tx: Sender<Response>,
    rx: Receiver<Response>,
}

impl InProcClient {
    /// Submits a parsed request.
    pub fn send(&self, req: Request) {
        self.inner.submit(req, &self.tx);
    }

    /// Submits one raw protocol line (exactly what a TCP client would
    /// write, without the newline).
    pub fn send_line(&self, bytes: &[u8]) {
        self.inner.submit_line(bytes, &self.tx);
    }

    /// Receives the next response, waiting up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Response> {
        self.rx.recv_timeout(timeout).ok()
    }
}
