//! The executor: a fixed-size worker pool with deterministic result
//! merging, fault isolation, and an optional content-addressed result
//! cache.
//!
//! Jobs in a batch execute out of submission order (workers pull from a
//! shared queue), but [`Executor::run_all`] returns outputs **in
//! submission order**, so callers observe output bit-for-bit identical to
//! a serial loop regardless of worker count.
//!
//! Failure handling: every job attempt runs under `catch_unwind`, so a
//! panicking job becomes a structured [`JobError`] carrying the panic
//! message and the job's cache-key provenance instead of crashing the
//! pool. [`Executor::run_all_checked`] surfaces per-job
//! `Result<Output, JobError>` slots; the legacy [`Executor::run_all`]
//! keeps its infallible signature by panicking with a [`BatchFailure`]
//! payload that error-aware callers (`cestim-sim`'s checked suite driver)
//! catch and downcast. A [`RetryPolicy`] re-runs failed attempts with
//! deterministic backoff, a per-job deadline is enforced by a watchdog
//! thread, and queue locks recover from poisoning — one bad job can no
//! longer take the batch down with it.

use crate::cache::{CachePolicy, DiskCache};
use crate::fault::FaultPlan;
use crate::journal::RunJournal;
use crate::key::CacheKey;
use crate::retry::RetryPolicy;
use cestim_obs::cancel;
use cestim_obs::span::{self, OpenSpan, SpanBuffer, SpanCollector, SpanId};
use cestim_obs::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize, Value};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// A pure, hashable description of one unit of simulation work.
///
/// A job must be a *value*: everything `execute` does is determined by
/// the description returned from [`Job::content`], so two jobs with equal
/// content (under the same [`Job::schema_salt`]) are interchangeable and
/// one's cached output can stand in for the other's execution.
pub trait Job: Sync {
    /// What executing the job produces. Must serialize losslessly — a
    /// cached output replayed from disk stands in for a fresh execution.
    type Output: Send + Serialize + Deserialize;

    /// The job's full configuration as a JSON value. Hashed canonically
    /// (object keys sorted), so field order never affects the key.
    fn content(&self) -> Value;

    /// Fingerprint of the code producing the output; bump it whenever
    /// output semantics change (see [`crate::schema_salt`]).
    fn schema_salt(&self) -> u64;

    /// Human-readable label stored alongside cached entries.
    fn label(&self) -> String;

    /// Runs the simulation unit.
    fn execute(&self) -> Self::Output;

    /// The content-addressed key this job's result is cached under.
    fn cache_key(&self) -> CacheKey {
        CacheKey::derive(self.schema_salt(), &self.content())
    }
}

/// Reads the worker count from `CESTIM_JOBS`, defaulting to the
/// machine's available parallelism (minimum 1).
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("CESTIM_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Why a job failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobErrorKind {
    /// The job (or an injected fault) panicked on its final attempt.
    Panicked,
    /// The job exceeded the executor's per-job deadline.
    TimedOut,
}

impl JobErrorKind {
    /// The journal outcome string for this kind.
    pub fn outcome(&self) -> &'static str {
        match self {
            JobErrorKind::Panicked => "panicked",
            JobErrorKind::TimedOut => "timed-out",
        }
    }
}

/// A structured per-job failure: what failed, under which cache key, and
/// after how many attempts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobError {
    /// The job's cache-key id (32 hex chars) — its provenance.
    pub key: String,
    /// The job's human-readable label.
    pub label: String,
    /// Attempts consumed (1-based final attempt number).
    pub attempts: u32,
    /// Failure class.
    pub kind: JobErrorKind,
    /// Panic payload message (or a timeout description).
    pub message: String,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job `{}` ({}) {} after {} attempt(s): {}",
            self.label,
            self.key,
            self.kind.outcome(),
            self.attempts,
            self.message
        )
    }
}

/// The panic payload [`Executor::run_all`] raises when a batch has failed
/// jobs: error-aware callers `catch_unwind` and downcast to recover the
/// structured per-job errors.
#[derive(Debug, Clone)]
pub struct BatchFailure {
    /// Every failed job, in submission order.
    pub errors: Vec<JobError>,
    /// Batch size (failed + succeeded).
    pub total: usize,
}

impl fmt::Display for BatchFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}/{} jobs failed:", self.errors.len(), self.total)?;
        for e in &self.errors {
            writeln!(f, "  - {e}")?;
        }
        Ok(())
    }
}

thread_local! {
    /// True while a job body runs under `catch_unwind`: its panics are
    /// captured and structured, so the quiet hook suppresses the default
    /// stderr report for them.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Installs a process-wide panic hook that silences panics the executor
/// catches and structures (job-body panics and [`BatchFailure`]
/// payloads), delegating everything else to the previous hook.
/// Idempotent; binaries running chaos plans call this once at startup so
/// injected faults do not flood stderr with backtraces.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_JOB.with(Cell::get) || info.payload().downcast_ref::<BatchFailure>().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// The `outcome` label for a finished job span.
fn job_outcome<T>(res: &Result<T, JobError>) -> &'static str {
    match res {
        Ok(_) => "ok",
        Err(e) => e.kind.outcome(),
    }
}

/// Caps a panic message for use as a span label (labels travel into
/// exported traces; a page-long backtrace would bloat them).
fn truncate_message(msg: &str) -> String {
    const MAX: usize = 160;
    if msg.len() <= MAX {
        return msg.to_string();
    }
    let cut = (0..=MAX)
        .rev()
        .find(|&i| msg.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}…", &msg[..cut])
}

/// Extracts a readable message from a caught panic payload: the payload
/// itself when it is a string, otherwise "non-string panic payload".
pub fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Serializable end-of-run summary of an [`Executor`]'s counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecReport {
    /// Configured worker count.
    pub workers: u64,
    /// Jobs submitted across all batches.
    pub submitted: u64,
    /// Jobs answered from the cache.
    pub cache_hits: u64,
    /// Jobs actually executed.
    pub executed: u64,
    /// Retry attempts beyond each job's first.
    pub retries: u64,
    /// Panicking attempts converted into structured errors.
    pub panics_caught: u64,
    /// Jobs that exceeded the per-job deadline.
    pub timeouts: u64,
    /// Cache hits for jobs a resumed journal had already completed.
    pub jobs_resumed: u64,
    /// Cache store failures swallowed (result recomputed next run).
    pub cache_store_errors: u64,
    /// Cache policy in effect (`read-write` / `refresh` / `disabled` /
    /// `none` when no cache directory is attached).
    pub cache_policy: String,
}

/// Per-job watchdog state for the parallel path.
struct WatchSlot {
    /// Nanoseconds from the batch epoch at which the job started, +1
    /// (0 = not started).
    started: AtomicU64,
    timed_out: AtomicBool,
    done: AtomicBool,
}

impl WatchSlot {
    fn new() -> WatchSlot {
        WatchSlot {
            started: AtomicU64::new(0),
            timed_out: AtomicBool::new(false),
            done: AtomicBool::new(false),
        }
    }
}

/// Executes batches of [`Job`]s on a fixed-size worker pool, merging
/// results back into submission order.
pub struct Executor {
    workers: usize,
    cache: Option<DiskCache>,
    policy: CachePolicy,
    retry: RetryPolicy,
    deadline: Option<Duration>,
    /// Poll interval (in simulator cycles) for cooperative cancellation
    /// of overdue jobs; 0 disables arming the token.
    cancel_every: u64,
    fault: FaultPlan,
    journal: Option<Arc<RunJournal>>,
    /// Executor-lifetime submission sequence: assigned on the calling
    /// thread in submission order, so fault targeting is deterministic
    /// regardless of worker interleaving.
    fault_seq: AtomicU64,
    registry: Registry,
    /// Causal span sink (disabled by default): when enabled via
    /// [`Executor::with_spans`], every batch emits a root span with
    /// per-job / queue-wait / attempt / cache / journal / watchdog
    /// children, and job bodies run under an ambient span context so
    /// simulator-level spans nest underneath their attempt.
    spans: SpanCollector,
    submitted: Counter,
    hits: Counter,
    executed: Counter,
    retries: Counter,
    panics_caught: Counter,
    timeouts: Counter,
    jobs_resumed: Counter,
    store_errors: Counter,
    queue_depth: Gauge,
    inflight: Gauge,
    job_nanos: Histogram,
    attempts_hist: Histogram,
}

impl Executor {
    /// A single-worker executor with no cache: the in-process sequential
    /// path libraries use when no parallelism was asked for.
    pub fn sequential() -> Executor {
        Executor::new(1)
    }

    /// An executor with `workers` threads (clamped to at least 1) and no
    /// cache, reporting into a fresh metrics registry.
    pub fn new(workers: usize) -> Executor {
        Executor::build(
            workers.max(1),
            None,
            CachePolicy::ReadWrite,
            Registry::new(),
        )
    }

    /// Attaches a disk cache rooted at `dir` with the given policy.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the cache directory.
    pub fn with_cache(self, dir: impl Into<PathBuf>, policy: CachePolicy) -> io::Result<Executor> {
        let cache = if policy == CachePolicy::Disabled {
            None
        } else {
            Some(DiskCache::open(dir)?)
        };
        let mut e = Executor::build(self.workers, cache, policy, self.registry);
        e.retry = self.retry;
        e.deadline = self.deadline;
        e.cancel_every = self.cancel_every;
        e.fault = self.fault;
        e.journal = self.journal;
        e.spans = self.spans;
        Ok(e)
    }

    /// Reports telemetry into `registry` instead of the executor's own.
    pub fn with_registry(self, registry: &Registry) -> Executor {
        let mut e = Executor::build(self.workers, self.cache, self.policy, registry.clone());
        e.retry = self.retry;
        e.deadline = self.deadline;
        e.cancel_every = self.cancel_every;
        e.fault = self.fault;
        e.journal = self.journal;
        e.spans = self.spans;
        e
    }

    /// Records causal spans into `spans` (pass an enabled
    /// [`SpanCollector`]; the default is disabled, which costs one branch
    /// per instrumentation point).
    pub fn with_spans(mut self, spans: &SpanCollector) -> Executor {
        self.spans = spans.clone();
        self
    }

    /// The span collector this executor records into (disabled unless
    /// configured with [`Executor::with_spans`]).
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Sets the retry policy for failed job attempts.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Executor {
        self.retry = retry;
        self
    }

    /// Sets (or clears) the per-job wall-clock deadline. The budget spans
    /// all of a job's attempts, including backoff sleeps.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Executor {
        self.deadline = deadline;
        self
    }

    /// Sets the cooperative-cancellation poll interval: when a deadline
    /// is configured, each attempt runs with an armed
    /// [`cestim_obs::cancel`] token that cancellation-aware job bodies
    /// (the pipeline simulator hot loop) poll every `every` iterations,
    /// abandoning the run — and releasing the worker — once overdue.
    /// 0 disables arming (the watchdog then only *flags* overdue jobs).
    pub fn with_cancel_every(mut self, every: u64) -> Executor {
        self.cancel_every = every;
        self
    }

    /// Arms a chaos-injection plan (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, fault: FaultPlan) -> Executor {
        self.fault = fault;
        self
    }

    /// Attaches a run journal: every job outcome is recorded, and cache
    /// hits for keys the journal already completed count as resumed.
    pub fn with_journal(mut self, journal: Arc<RunJournal>) -> Executor {
        self.journal = Some(journal);
        self
    }

    fn build(
        workers: usize,
        cache: Option<DiskCache>,
        policy: CachePolicy,
        registry: Registry,
    ) -> Executor {
        Executor {
            workers,
            cache,
            policy,
            retry: RetryPolicy::default(),
            deadline: None,
            cancel_every: cancel::DEFAULT_CHECK_EVERY,
            fault: FaultPlan::none(),
            journal: None,
            fault_seq: AtomicU64::new(0),
            spans: SpanCollector::disabled(),
            submitted: registry.counter("exec.jobs.submitted", &[]),
            hits: registry.counter("exec.jobs.cache_hits", &[]),
            executed: registry.counter("exec.jobs.executed", &[]),
            retries: registry.counter("exec.retries", &[]),
            panics_caught: registry.counter("exec.panics_caught", &[]),
            timeouts: registry.counter("exec.timeouts", &[]),
            jobs_resumed: registry.counter("exec.jobs_resumed", &[]),
            store_errors: registry.counter("exec.cache.store_errors", &[]),
            queue_depth: registry.gauge("exec.queue.depth", &[]),
            inflight: registry.gauge("exec.jobs.inflight", &[]),
            job_nanos: registry.histogram("exec.job.nanos", &[]),
            attempts_hist: registry.histogram("exec.job.attempts", &[]),
            registry,
        }
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The registry this executor's telemetry lands in.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Snapshot of the executor's counters.
    pub fn report(&self) -> ExecReport {
        ExecReport {
            workers: self.workers as u64,
            submitted: self.submitted.get(),
            cache_hits: self.hits.get(),
            executed: self.executed.get(),
            retries: self.retries.get(),
            panics_caught: self.panics_caught.get(),
            timeouts: self.timeouts.get(),
            jobs_resumed: self.jobs_resumed.get(),
            cache_store_errors: self.store_errors.get(),
            cache_policy: match (&self.cache, self.policy) {
                (None, _) => "none".to_string(),
                (Some(_), CachePolicy::ReadWrite) => "read-write".to_string(),
                (Some(_), CachePolicy::Refresh) => "refresh".to_string(),
                (Some(_), CachePolicy::Disabled) => "disabled".to_string(),
            },
        }
    }

    /// Sweeps cache entries written under a different schema salt.
    /// Returns the number removed (0 without a cache).
    pub fn evict_stale(&self, schema: u64) -> usize {
        self.cache
            .as_ref()
            .and_then(|c| c.evict_stale(schema).ok())
            .unwrap_or(0)
    }

    /// Runs a batch, returning outputs in submission order.
    ///
    /// Infallible signature for the common all-success case. When any job
    /// fails, panics with a [`BatchFailure`] payload carrying every
    /// [`JobError`] — error-aware callers use [`Executor::run_all_checked`]
    /// directly or `catch_unwind` + downcast the payload.
    pub fn run_all<J: Job>(&self, jobs: &[J]) -> Vec<J::Output> {
        let results = self.run_all_checked(jobs);
        let total = results.len();
        let mut outs = Vec::with_capacity(total);
        let mut errors = Vec::new();
        for r in results {
            match r {
                Ok(v) => outs.push(v),
                Err(e) => errors.push(e),
            }
        }
        if errors.is_empty() {
            outs
        } else {
            std::panic::panic_any(BatchFailure { errors, total })
        }
    }

    /// Runs a batch, returning one `Result` per job in submission order:
    /// callers see every successful output even when siblings failed.
    ///
    /// Cache lookups happen up front on the calling thread; only misses
    /// are queued to the pool. With one worker (or one pending job) the
    /// batch runs inline without spawning threads. A panicking job is
    /// isolated into [`JobErrorKind::Panicked`] (after exhausting the
    /// retry policy); a job overrunning the deadline is recorded as
    /// [`JobErrorKind::TimedOut`] while the remaining queue is drained by
    /// the surviving workers.
    pub fn run_all_checked<J: Job>(&self, jobs: &[J]) -> Vec<Result<J::Output, JobError>> {
        self.submitted.add(jobs.len() as u64);
        // Submission sequence numbers: the deterministic axis fault plans
        // key off, assigned before any worker runs.
        let seqs: Vec<u64> = jobs
            .iter()
            .map(|_| self.fault_seq.fetch_add(1, Ordering::Relaxed))
            .collect();

        // Batch root span; per-job spans open at submission on the
        // calling thread and are closed by whichever thread finishes the
        // job (handed over through `job_spans`). All of this is inert
        // when the collector is disabled.
        let mut mbuf = self.spans.buffer("main");
        // If the caller installed an ambient context over this collector,
        // nest the batch under its current span; else it is a root.
        let batch_parent = if span::ambient_is(&self.spans) {
            span::ambient_handle().1
        } else {
            SpanId::NONE
        };
        let mut batch_span = mbuf.open("exec.batch", batch_parent, &[]);
        if batch_span.id().is_some() {
            batch_span.label("jobs", &jobs.len().to_string());
        }
        let batch_id = batch_span.id();
        let job_spans: Vec<Mutex<Option<OpenSpan>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();

        let mut slots: Vec<Option<Result<J::Output, JobError>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: Vec<usize> = Vec::new();
        for (i, job) in jobs.iter().enumerate() {
            let mut jspan = mbuf.open("exec.job", batch_id, &[]);
            if jspan.id().is_some() {
                jspan.label("key", &job.cache_key().id());
                jspan.label("label", &job.label());
                jspan.label("seq", &seqs[i].to_string());
            }
            let io_fault = self.fault.io_fires(seqs[i]);
            let mut probe = self
                .cache
                .as_ref()
                .map(|_| mbuf.open("exec.cache.probe", jspan.id(), &[]));
            let hit = if self.policy.reads() && !io_fault {
                self.cache
                    .as_ref()
                    .and_then(|c| c.load::<J::Output>(&job.cache_key()))
            } else {
                None
            };
            if let Some(mut p) = probe.take() {
                p.label("hit", if hit.is_some() { "true" } else { "false" });
                mbuf.close(p);
            }
            match hit {
                Some(out) => {
                    self.hits.inc();
                    if let Some(journal) = &self.journal {
                        let jrn = mbuf.open("exec.journal.append", jspan.id(), &[]);
                        let key = job.cache_key().id();
                        if journal.was_job_completed(&key) {
                            self.jobs_resumed.inc();
                        }
                        journal.record_job(&key, &job.label(), 0, "cached");
                        mbuf.close(jrn);
                    }
                    jspan.label("outcome", "cached");
                    mbuf.close(jspan);
                    slots[i] = Some(Ok(out));
                }
                None => {
                    pending.push(i);
                    *job_spans[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(jspan);
                }
            }
        }

        self.queue_depth.set(pending.len() as i64);
        if self.workers <= 1 || pending.len() <= 1 {
            for &i in &pending {
                let jspan = job_spans[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take();
                let jid = jspan.as_ref().map_or(SpanId::NONE, OpenSpan::id);
                let res = self.run_job(&jobs[i], seqs[i], None, &mut mbuf, jid);
                if let Some(mut js) = jspan {
                    js.label("outcome", job_outcome(&res));
                    mbuf.close(js);
                }
                slots[i] = Some(res);
                self.queue_depth.add(-1);
            }
        } else {
            let workers = self.workers.min(pending.len());
            let queue = Mutex::new(VecDeque::from(pending));
            let watch: Vec<WatchSlot> = jobs.iter().map(|_| WatchSlot::new()).collect();
            let epoch = Instant::now();
            let merging_done = AtomicBool::new(false);
            let (tx, rx) = mpsc::channel::<(usize, Result<J::Output, JobError>)>();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let queue = &queue;
                    let watch = &watch;
                    let seqs = &seqs;
                    let job_spans = &job_spans;
                    scope.spawn(move || {
                        let mut sbuf = self.spans.buffer(&format!("worker-{w}"));
                        loop {
                            let next = queue.lock().unwrap_or_else(|e| e.into_inner()).pop_front();
                            let Some(i) = next else { break };
                            self.queue_depth.add(-1);
                            // Take over the job span opened at submission;
                            // the gap between its start and now is the
                            // queue wait.
                            let jspan = job_spans[i]
                                .lock()
                                .unwrap_or_else(|e| e.into_inner())
                                .take();
                            if let Some(js) = &jspan {
                                sbuf.record_closed(
                                    "exec.queue_wait",
                                    js.id(),
                                    &[],
                                    js.start_nanos(),
                                    sbuf.now_nanos(),
                                );
                            }
                            let slot = &watch[i];
                            slot.started
                                .store(epoch.elapsed().as_nanos() as u64 + 1, Ordering::Relaxed);
                            let jid = jspan.as_ref().map_or(SpanId::NONE, OpenSpan::id);
                            let res = self.run_job(&jobs[i], seqs[i], Some(slot), &mut sbuf, jid);
                            slot.done.store(true, Ordering::Relaxed);
                            if let Some(mut js) = jspan {
                                js.label("outcome", job_outcome(&res));
                                sbuf.close(js);
                            }
                            if tx.send((i, res)).is_err() {
                                break;
                            }
                        }
                    });
                }
                if let Some(deadline) = self.deadline {
                    // Watchdog: flags overdue jobs so their eventual result
                    // is discarded as TimedOut. It cannot preempt a
                    // non-cooperative job — the straggler's thread runs its
                    // current job to completion while survivors drain the
                    // queue — but the merged result is deterministic.
                    let watch = &watch;
                    let merging_done = &merging_done;
                    scope.spawn(move || {
                        let mut wbuf = self.spans.buffer("watchdog");
                        let wspan = wbuf.open("exec.watchdog", batch_id, &[]);
                        let budget = deadline.as_nanos() as u64;
                        while !merging_done.load(Ordering::Relaxed) {
                            let now = epoch.elapsed().as_nanos() as u64;
                            for slot in watch {
                                let started = slot.started.load(Ordering::Relaxed);
                                if started > 0
                                    && !slot.done.load(Ordering::Relaxed)
                                    && now.saturating_sub(started - 1) > budget
                                    && !slot.timed_out.swap(true, Ordering::Relaxed)
                                {
                                    self.timeouts.inc();
                                }
                            }
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        wbuf.close(wspan);
                    });
                }
                drop(tx);
                for (i, res) in rx {
                    slots[i] = Some(res);
                }
                merging_done.store(true, Ordering::Relaxed);
            });
        }
        self.queue_depth.set(0);
        mbuf.close(batch_span);
        mbuf.flush();

        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                // Per-slot accounting: a lost output is a structured error,
                // never a pool-crashing expect.
                s.unwrap_or_else(|| {
                    Err(JobError {
                        key: jobs[i].cache_key().id(),
                        label: jobs[i].label(),
                        attempts: 0,
                        kind: JobErrorKind::Panicked,
                        message: "job produced no output (worker lost)".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Runs one job to completion: the attempt/retry loop, deadline
    /// accounting, journaling, and (on success) the cache store. Emits
    /// attempt / journal / cache-store child spans under `parent` (the
    /// job span) into `sbuf`.
    fn run_job<J: Job>(
        &self,
        job: &J,
        seq: u64,
        watch: Option<&WatchSlot>,
        sbuf: &mut SpanBuffer,
        parent: SpanId,
    ) -> Result<J::Output, JobError> {
        let key = job.cache_key();
        let label = job.label();
        let start = Instant::now();
        // Cooperative cancellation: arm the ambient deadline token so a
        // cancellation-aware job body abandons itself (releasing this
        // worker) instead of merely being flagged by the watchdog.
        let _cancel_guard = match (self.deadline, self.cancel_every) {
            (Some(d), every) if every > 0 => Some(cancel::arm(start + d, every)),
            _ => None,
        };
        let tag = sbuf.tag().to_string();
        self.inflight.add(1);
        let mut attempt = 1u32;
        let mut result = loop {
            let mut aspan = sbuf.open("exec.attempt", parent, &[]);
            if aspan.id().is_some() {
                aspan.label("attempt", &attempt.to_string());
            }
            match self.attempt_once(job, seq, attempt, aspan.id(), &tag) {
                Ok(out) => {
                    aspan.label("outcome", "ok");
                    sbuf.close(aspan);
                    break Ok(out);
                }
                Err(message) => {
                    if cancel::is_cancel_panic(&message) {
                        // The cooperative deadline fired inside the job
                        // body: a timeout, not a crash — never retried.
                        // Flag the watch slot ourselves (counting the
                        // timeout if the watchdog hasn't yet) so the
                        // overdue check below reports deterministically.
                        if aspan.id().is_some() {
                            aspan.label("outcome", "cancelled");
                        }
                        sbuf.close(aspan);
                        if let Some(slot) = watch {
                            if !slot.timed_out.swap(true, Ordering::Relaxed) {
                                self.timeouts.inc();
                            }
                        }
                        break Err(JobError {
                            key: key.id(),
                            label: label.clone(),
                            attempts: attempt,
                            kind: JobErrorKind::TimedOut,
                            message,
                        });
                    }
                    self.panics_caught.inc();
                    // Fault provenance rides on the attempt span: the
                    // panic message, and whether it was chaos-injected.
                    if aspan.id().is_some() {
                        aspan.label("outcome", "panicked");
                        aspan.label("error", &truncate_message(&message));
                        if message.starts_with(crate::fault::INJECTED_PANIC_PREFIX) {
                            aspan.label("injected", "true");
                        }
                    }
                    let overdue = self.is_overdue(watch, start);
                    if !overdue && self.retry.allows_retry(attempt) {
                        self.retries.inc();
                        let backoff = self.retry.backoff(attempt, &key);
                        if aspan.id().is_some() {
                            aspan.label("backoff_ms", &backoff.as_millis().to_string());
                        }
                        sbuf.close(aspan);
                        std::thread::sleep(backoff);
                        attempt += 1;
                    } else {
                        sbuf.close(aspan);
                        break Err(JobError {
                            key: key.id(),
                            label: label.clone(),
                            attempts: attempt,
                            kind: JobErrorKind::Panicked,
                            message,
                        });
                    }
                }
            }
        };

        if self.is_overdue(watch, start) {
            // Inline path counts here; the watchdog already counted for
            // the parallel path when it flagged the slot.
            if watch.is_none() {
                self.timeouts.inc();
            }
            let deadline_ms = self.deadline.map(|d| d.as_millis()).unwrap_or(0);
            result = Err(JobError {
                key: key.id(),
                label: label.clone(),
                attempts: attempt,
                kind: JobErrorKind::TimedOut,
                message: format!("exceeded {deadline_ms}ms deadline"),
            });
        }

        self.attempts_hist.record(attempt as u64);
        if let Some(journal) = &self.journal {
            let jrn = sbuf.open("exec.journal.append", parent, &[]);
            let outcome = match &result {
                Ok(_) => "ok",
                Err(e) => e.kind.outcome(),
            };
            journal.record_job(&key.id(), &label, attempt, outcome);
            sbuf.close(jrn);
        }
        if let Ok(out) = &result {
            if self.policy.writes() {
                if let Some(cache) = &self.cache {
                    // A failed (or fault-injected) cache write costs a
                    // future re-execution, not correctness; count it and
                    // move on.
                    let mut ssp = sbuf.open("exec.cache.store", parent, &[]);
                    let failed =
                        self.fault.io_fires(seq) || cache.store(&key, &label, out).is_err();
                    if failed {
                        self.store_errors.inc();
                        ssp.label("error", "true");
                    }
                    sbuf.close(ssp);
                }
            }
        }
        self.inflight.add(-1);
        result
    }

    /// One `catch_unwind`-guarded attempt, with slow/panic fault
    /// injection. Returns the panic message on failure. While the job
    /// body runs, this thread's ambient span context points at the
    /// attempt span, so spans recorded inside `execute` (`sim.job`,
    /// `sim.run`) nest under the attempt.
    fn attempt_once<J: Job>(
        &self,
        job: &J,
        seq: u64,
        attempt: u32,
        span_parent: SpanId,
        thread_tag: &str,
    ) -> Result<J::Output, String> {
        if let Some(ms) = self.fault.slow_fires(seq, attempt) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let start = Instant::now();
        IN_JOB.with(|f| f.set(true));
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ambient = self
                .spans
                .enabled()
                .then(|| span::set_ambient(&self.spans, span_parent, thread_tag));
            if self.fault.panic_fires(seq, attempt) {
                panic!("{}", FaultPlan::panic_message(seq));
            }
            job.execute()
        }));
        IN_JOB.with(|f| f.set(false));
        self.job_nanos.record(start.elapsed().as_nanos() as u64);
        match outcome {
            Ok(out) => {
                self.executed.inc();
                Ok(out)
            }
            Err(payload) => Err(payload_message(payload.as_ref())),
        }
    }

    /// Whether this job has exceeded the deadline (watchdog flag in the
    /// parallel path, a post-hoc elapsed check inline).
    fn is_overdue(&self, watch: Option<&WatchSlot>, start: Instant) -> bool {
        match watch {
            Some(slot) => slot.timed_out.load(Ordering::Relaxed),
            None => self.deadline.is_some_and(|d| start.elapsed() > d),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Map;

    struct Collatz {
        seed: u64,
    }

    impl Job for Collatz {
        type Output = Vec<u64>;

        fn content(&self) -> Value {
            let mut m = Map::new();
            m.insert("seed".into(), Value::Number(self.seed.into()));
            Value::Object(m)
        }

        fn schema_salt(&self) -> u64 {
            crate::schema_salt("test", 1)
        }

        fn label(&self) -> String {
            format!("collatz-{}", self.seed)
        }

        fn execute(&self) -> Vec<u64> {
            let mut v = vec![self.seed];
            let mut n = self.seed;
            while n > 1 && v.len() < 256 {
                n = if n.is_multiple_of(2) {
                    n / 2
                } else {
                    3 * n + 1
                };
                v.push(n);
            }
            v
        }
    }

    fn batch(n: u64) -> Vec<Collatz> {
        (1..=n).map(|seed| Collatz { seed }).collect()
    }

    #[test]
    fn parallel_results_match_serial_in_submission_order() {
        let jobs = batch(64);
        let serial = Executor::sequential().run_all(&jobs);
        let parallel = Executor::new(4).run_all(&jobs);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], vec![1]);
        assert_eq!(serial[2], vec![3, 10, 5, 16, 8, 4, 2, 1]);
    }

    #[test]
    fn warm_cache_answers_without_executing() {
        let dir = std::env::temp_dir().join(format!("cestim-exec-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = batch(8);

        let cold = Executor::new(2)
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap();
        let first = cold.run_all(&jobs);
        assert_eq!(cold.report().executed, 8);
        assert_eq!(cold.report().cache_hits, 0);

        let warm = Executor::new(2)
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap();
        let second = warm.run_all(&jobs);
        assert_eq!(first, second);
        assert_eq!(warm.report().executed, 0);
        assert_eq!(warm.report().cache_hits, 8);

        // Refresh ignores the entries but rewrites them.
        let refresh = Executor::new(2)
            .with_cache(&dir, CachePolicy::Refresh)
            .unwrap();
        assert_eq!(refresh.run_all(&jobs), first);
        assert_eq!(refresh.report().executed, 8);
        assert_eq!(refresh.report().cache_hits, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_counts_and_policy_names() {
        let exec = Executor::new(3);
        exec.run_all(&batch(5));
        let r = exec.report();
        assert_eq!(r.workers, 3);
        assert_eq!(r.submitted, 5);
        assert_eq!(r.executed, 5);
        assert_eq!(r.retries, 0);
        assert_eq!(r.panics_caught, 0);
        assert_eq!(r.cache_policy, "none");
        // Telemetry flowed into the registry too.
        let snap = exec.registry().snapshot();
        assert_eq!(snap.counter_value("exec.jobs.submitted"), Some(5));
        assert_eq!(snap.counter_value("exec.jobs.executed"), Some(5));
        assert_eq!(snap.counter_value("exec.panics_caught"), Some(0));
    }

    #[test]
    fn builders_preserve_resilience_settings() {
        let spans = SpanCollector::new();
        let exec = Executor::new(2)
            .with_retry(RetryPolicy::with_attempts(3))
            .with_deadline(Some(Duration::from_secs(5)))
            .with_fault_plan(FaultPlan::parse("panic:100").unwrap())
            .with_spans(&spans)
            .with_registry(&Registry::new());
        assert_eq!(exec.retry.max_attempts, 3);
        assert_eq!(exec.deadline, Some(Duration::from_secs(5)));
        assert_eq!(exec.fault.panic_every, 100);
        assert!(exec.spans().enabled());
    }

    /// Index span records: id → record, plus name lookup.
    fn span_children(
        recs: &[cestim_obs::span::SpanRecord],
        parent: cestim_obs::span::SpanId,
    ) -> Vec<&cestim_obs::span::SpanRecord> {
        recs.iter().filter(|r| r.parent == parent).collect()
    }

    #[test]
    fn batch_emits_causal_span_tree() {
        let spans = SpanCollector::new();
        let exec = Executor::new(4).with_spans(&spans);
        exec.run_all(&batch(8));
        let recs = spans.drain();

        let root = recs.iter().find(|r| r.name == "exec.batch").unwrap();
        assert_eq!(root.parent, SpanId::NONE);
        assert!(root.labels.contains(&("jobs".into(), "8".into())));

        let job_spans = span_children(&recs, root.id);
        assert_eq!(job_spans.len(), 8);
        for js in &job_spans {
            assert_eq!(js.name, "exec.job");
            // Cache-key label: 32 hex chars.
            let key = &js.labels.iter().find(|(k, _)| k == "key").unwrap().1;
            assert_eq!(key.len(), 32);
            assert!(key.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(js.labels.contains(&("outcome".into(), "ok".into())));
            // Child interval ⊆ parent interval.
            assert!(js.start_nanos >= root.start_nanos);
            assert!(js.end_nanos <= root.end_nanos);
            // Exactly one successful attempt, inside the job span, plus
            // a queue-wait record on the parallel path.
            let kids = span_children(&recs, js.id);
            let attempts: Vec<_> = kids.iter().filter(|r| r.name == "exec.attempt").collect();
            assert_eq!(attempts.len(), 1);
            assert!(attempts[0]
                .labels
                .contains(&("outcome".into(), "ok".into())));
            assert!(attempts[0].start_nanos >= js.start_nanos);
            assert!(attempts[0].end_nanos <= js.end_nanos);
            assert!(kids.iter().any(|r| r.name == "exec.queue_wait"));
            // Worker threads closed the job spans.
            assert!(js.thread.starts_with("worker-"));
        }
        // Acyclic: parents precede children.
        for r in &recs {
            if r.parent.is_some() {
                assert!(r.parent < r.id);
            }
        }
    }

    #[test]
    fn chaos_run_spans_show_failed_attempt_then_retry() {
        let spans = SpanCollector::new();
        let exec = Executor::sequential()
            .with_fault_plan(FaultPlan::parse("panic:2").unwrap())
            .with_retry(RetryPolicy {
                max_attempts: 2,
                base_ms: 1,
                max_ms: 2,
            })
            .with_spans(&spans);
        let jobs = batch(4);
        let out = exec.run_all(&jobs);
        assert_eq!(out.len(), 4);
        let recs = spans.drain();

        // Fault plan panic:2 hits seqs 1 and 3 (first attempt only).
        let faulted: Vec<_> = recs
            .iter()
            .filter(|r| {
                r.name == "exec.job"
                    && r.labels
                        .iter()
                        .any(|(k, v)| k == "seq" && (v == "1" || v == "3"))
            })
            .collect();
        assert_eq!(faulted.len(), 2);
        for js in faulted {
            let attempts: Vec<_> = recs
                .iter()
                .filter(|r| r.parent == js.id)
                .filter(|r| r.name == "exec.attempt")
                .collect();
            assert_eq!(attempts.len(), 2);
            let a1 = attempts
                .iter()
                .find(|a| a.labels.contains(&("attempt".into(), "1".into())))
                .unwrap();
            let a2 = attempts
                .iter()
                .find(|a| a.labels.contains(&("attempt".into(), "2".into())))
                .unwrap();
            // Failed first attempt carries provenance: injected fault +
            // backoff; the retry succeeds.
            assert!(a1.labels.contains(&("outcome".into(), "panicked".into())));
            assert!(a1.labels.contains(&("injected".into(), "true".into())));
            assert!(a1.labels.iter().any(|(k, _)| k == "backoff_ms"));
            assert!(a1
                .labels
                .iter()
                .any(|(k, v)| k == "error" && v.contains("injected fault")));
            assert!(a2.labels.contains(&("outcome".into(), "ok".into())));
            assert!(a1.end_nanos <= a2.start_nanos);
            assert!(js.labels.contains(&("outcome".into(), "ok".into())));
        }
        // No cache attached: no probe/store spans.
        assert!(!recs.iter().any(|r| r.name.starts_with("exec.cache")));
    }

    #[test]
    fn cache_and_journal_spans_appear_when_attached() {
        let dir = std::env::temp_dir().join(format!("cestim-exec-spans-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = batch(3);

        let spans = SpanCollector::new();
        let exec = Executor::sequential()
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap()
            .with_spans(&spans);
        exec.run_all(&jobs);
        let cold = spans.drain();
        let probes: Vec<_> = cold
            .iter()
            .filter(|r| r.name == "exec.cache.probe")
            .collect();
        assert_eq!(probes.len(), 3);
        assert!(probes
            .iter()
            .all(|p| p.labels.contains(&("hit".into(), "false".into()))));
        assert_eq!(
            cold.iter().filter(|r| r.name == "exec.cache.store").count(),
            3
        );

        // Warm run: probes hit, jobs resolve as cached without attempts.
        let spans = SpanCollector::new();
        let warm = Executor::sequential()
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap()
            .with_spans(&spans);
        warm.run_all(&jobs);
        let recs = spans.drain();
        let probes: Vec<_> = recs
            .iter()
            .filter(|r| r.name == "exec.cache.probe")
            .collect();
        assert_eq!(probes.len(), 3);
        assert!(probes
            .iter()
            .all(|p| p.labels.contains(&("hit".into(), "true".into()))));
        assert!(!recs.iter().any(|r| r.name == "exec.attempt"));
        assert!(recs
            .iter()
            .filter(|r| r.name == "exec.job")
            .all(|r| r.labels.contains(&("outcome".into(), "cached".into()))));

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let exec = Executor::new(2);
        exec.run_all(&batch(8));
        assert!(!exec.spans().enabled());
        assert!(exec.spans().drain().is_empty());
    }
}
