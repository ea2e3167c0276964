//! The executor: a fixed-size worker pool with deterministic result
//! merging, fault isolation, and an optional content-addressed result
//! cache.
//!
//! Jobs in a batch execute out of submission order (workers pull from a
//! shared queue), but [`Executor::run_all_checked`] returns results **in
//! submission order**, so callers observe output bit-for-bit identical to
//! a serial loop regardless of worker count.
//!
//! Failure handling: every job attempt runs under `catch_unwind`, so a
//! panicking job becomes a structured [`JobError`] carrying the panic
//! message and the job's cache-key provenance instead of crashing the
//! pool. The one batch method, [`Executor::run_all_checked`], returns a
//! `Result<Output, JobError>` per job: a failure is a value the caller
//! inspects, never a panic it has to catch. A [`RetryPolicy`] re-runs
//! failed attempts with deterministic backoff, a per-job deadline cancels
//! cooperative job bodies and discards late results, and queue locks
//! recover from poisoning — one bad job can no longer take the batch
//! down with it.
//!
//! [`Executor::run_one`] runs a single job under the same policy on the
//! calling thread; the server executes every request through it.

use crate::cache::{CachePolicy, DiskCache};
use crate::fault::FaultPlan;
use crate::journal::RunJournal;
use crate::key::CacheKey;
use crate::retry::RetryPolicy;
use cestim_obs::cancel::{self, payload_message};
use cestim_obs::span::{self, OpenSpan, SpanBuffer, SpanCollector, SpanId};
use cestim_obs::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize, Value};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
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

impl std::error::Error for JobError {}

thread_local! {
    /// True while a job body runs under `catch_unwind`: its panics are
    /// captured and structured, so the quiet hook suppresses the default
    /// stderr report for them.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Installs a process-wide panic hook that silences panics the executor
/// catches and structures (panics raised inside a job body), delegating
/// everything else to the previous hook.
/// Idempotent; binaries running chaos plans call this once at startup so
/// injected faults do not flood stderr with backtraces.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if IN_JOB.with(Cell::get) {
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
    /// Cache policy in effect (`read-write` / `refresh` /
    /// `none` when no cache directory is attached).
    pub cache_policy: String,
}

/// How [`Executor::run_one`] answered a job that did not fail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ran<T> {
    /// Served from the cache (counted in `exec.jobs.cache_hits`, and in
    /// `exec.jobs_resumed` when a resumed journal had completed the key).
    Hit(T),
    /// Executed (and stored, when the cache takes writes).
    Executed(T),
}

/// The executor's telemetry handles, registered once in one registry.
struct ExecMetrics {
    registry: Registry,
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

impl ExecMetrics {
    fn new(registry: &Registry) -> ExecMetrics {
        ExecMetrics {
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
            registry: registry.clone(),
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
    fault: FaultPlan,
    journal: Option<Arc<RunJournal>>,
    /// Executor-lifetime submission sequence: assigned on the calling
    /// thread in submission order, so fault targeting is deterministic
    /// regardless of worker interleaving.
    fault_seq: AtomicU64,
    /// Causal span sink (disabled by default): when enabled via
    /// [`Executor::with_spans`], every batch emits a root span with
    /// per-job / queue-wait / attempt / cache / journal children, and
    /// job bodies run under an ambient span context so simulator-level
    /// spans nest underneath their attempt.
    spans: SpanCollector,
    m: ExecMetrics,
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
        Executor {
            workers: workers.max(1),
            cache: None,
            policy: CachePolicy::ReadWrite,
            retry: RetryPolicy::default(),
            deadline: None,
            fault: FaultPlan::none(),
            journal: None,
            fault_seq: AtomicU64::new(0),
            spans: SpanCollector::disabled(),
            m: ExecMetrics::new(&Registry::new()),
        }
    }

    /// Attaches a disk cache rooted at `dir` with the given policy.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating the cache directory.
    pub fn with_cache(
        mut self,
        dir: impl Into<PathBuf>,
        policy: CachePolicy,
    ) -> io::Result<Executor> {
        self.cache = Some(DiskCache::open(dir)?);
        self.policy = policy;
        Ok(self)
    }

    /// Reports telemetry into `registry` instead of the executor's own.
    pub fn with_registry(mut self, registry: &Registry) -> Executor {
        self.m = ExecMetrics::new(registry);
        self
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

    /// Sets (or clears) the per-job wall-clock deadline of batch jobs,
    /// measured from when a worker starts the job. The budget spans all
    /// of a job's attempts, including backoff sleeps.
    pub fn with_deadline(mut self, deadline: Option<Duration>) -> Executor {
        self.deadline = deadline;
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

    /// The attached run journal, if any.
    pub fn journal(&self) -> Option<&RunJournal> {
        self.journal.as_deref()
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The registry this executor's telemetry lands in.
    pub fn registry(&self) -> &Registry {
        &self.m.registry
    }

    /// Snapshot of the executor's counters.
    pub fn report(&self) -> ExecReport {
        ExecReport {
            workers: self.workers as u64,
            submitted: self.m.submitted.get(),
            cache_hits: self.m.hits.get(),
            executed: self.m.executed.get(),
            retries: self.m.retries.get(),
            panics_caught: self.m.panics_caught.get(),
            timeouts: self.m.timeouts.get(),
            jobs_resumed: self.m.jobs_resumed.get(),
            cache_store_errors: self.m.store_errors.get(),
            cache_policy: match (&self.cache, self.policy) {
                (None, _) => "none".to_string(),
                (Some(_), CachePolicy::ReadWrite) => "read-write".to_string(),
                (Some(_), CachePolicy::Refresh) => "refresh".to_string(),
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

    /// Runs a batch, returning one `Result` per job in submission order:
    /// callers see every successful output even when siblings failed.
    ///
    /// Cache lookups happen up front on the calling thread; only misses
    /// are queued to the pool. With one worker (or one pending job) the
    /// calling thread drains the queue itself without spawning threads.
    /// A panicking job is isolated into [`JobErrorKind::Panicked`] (after
    /// exhausting the retry policy); a job overrunning the deadline is
    /// recorded as [`JobErrorKind::TimedOut`] while the remaining queue
    /// is drained by the surviving workers.
    pub fn run_all_checked<J: Job>(&self, jobs: &[J]) -> Vec<Result<J::Output, JobError>> {
        self.m.submitted.add(jobs.len() as u64);
        // Each key is a canonical serialization plus a hash: derive it
        // once per job and hand it to every step that needs it.
        let keys: Vec<CacheKey> = jobs.iter().map(Job::cache_key).collect();
        // Submission sequence numbers: the deterministic axis fault plans
        // key off, assigned before any worker runs.
        let seqs: Vec<u64> = jobs.iter().map(|_| self.next_seq()).collect();

        // Batch root span; per-job spans open at submission on the
        // calling thread and are closed by whichever thread finishes the
        // job (they travel with the job through the queue). All of this
        // is inert when the collector is disabled.
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

        let mut slots: Vec<Option<Result<J::Output, JobError>>> =
            jobs.iter().map(|_| None).collect();
        let mut pending: VecDeque<(usize, OpenSpan)> = VecDeque::new();
        for (i, job) in jobs.iter().enumerate() {
            let mut jspan = mbuf.open("exec.job", batch_id, &[]);
            if jspan.id().is_some() {
                jspan.label("key", &keys[i].id());
                jspan.label("label", &job.label());
                jspan.label("seq", &seqs[i].to_string());
            }
            match self.probe(job, &keys[i], seqs[i], &mut mbuf, jspan.id()) {
                Some(out) => {
                    jspan.label("outcome", "cached");
                    mbuf.close(jspan);
                    slots[i] = Some(Ok(out));
                }
                None => pending.push_back((i, jspan)),
            }
        }

        self.m.queue_depth.set(pending.len() as i64);
        let inline = self.workers <= 1 || pending.len() <= 1;
        let workers = self.workers.min(pending.len());
        let queue = Mutex::new(pending);
        // The one loop body every draining thread runs: pop a job, run
        // it, close its span. Workers also record the job's queue wait.
        let run_next = |sbuf: &mut SpanBuffer, worker: bool| {
            let (i, mut jspan) = queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front()?;
            self.m.queue_depth.add(-1);
            if worker {
                sbuf.record_closed(
                    "exec.queue_wait",
                    jspan.id(),
                    &[],
                    jspan.start_nanos(),
                    sbuf.now_nanos(),
                );
            }
            let due = self.deadline.map(|d| Instant::now() + d);
            let res = self.run_job(&jobs[i], &keys[i], seqs[i], due, sbuf, jspan.id());
            jspan.label("outcome", job_outcome(&res));
            sbuf.close(jspan);
            Some((i, res))
        };
        if inline {
            while let Some((i, res)) = run_next(&mut mbuf, false) {
                slots[i] = Some(res);
            }
        } else {
            let (tx, rx) = mpsc::channel::<(usize, Result<J::Output, JobError>)>();
            std::thread::scope(|scope| {
                for w in 0..workers {
                    let tx = tx.clone();
                    let run_next = &run_next;
                    scope.spawn(move || {
                        let mut sbuf = self.spans.buffer(&format!("worker-{w}"));
                        while let Some(done) = run_next(&mut sbuf, true) {
                            if tx.send(done).is_err() {
                                break;
                            }
                        }
                    });
                }
                drop(tx);
                for (i, res) in rx {
                    slots[i] = Some(res);
                }
            });
        }
        self.m.queue_depth.set(0);
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
                        key: keys[i].id(),
                        label: jobs[i].label(),
                        attempts: 0,
                        kind: JobErrorKind::Panicked,
                        message: "job produced no output (worker lost)".to_string(),
                    })
                })
            })
            .collect()
    }

    /// Runs one job on the calling thread under the same policy as a
    /// batch job: the cache probe, then (on a miss) the attempt loop,
    /// journaling and the cache store. `key` must be `job.cache_key()`;
    /// `due` is the deadline, measured however the caller chooses (a
    /// batch starts it when a worker picks the job up). Spans nest under
    /// `parent` in `sbuf`.
    ///
    /// # Errors
    ///
    /// Returns the job's [`JobError`] when it panicked on its final
    /// attempt or finished past `due`.
    pub fn run_one<J: Job>(
        &self,
        job: &J,
        key: &CacheKey,
        due: Option<Instant>,
        sbuf: &mut SpanBuffer,
        parent: SpanId,
    ) -> Result<Ran<J::Output>, JobError> {
        self.m.submitted.inc();
        let seq = self.next_seq();
        if let Some(output) = self.probe(job, key, seq, sbuf, parent) {
            return Ok(Ran::Hit(output));
        }
        self.run_job(job, key, seq, due, sbuf, parent)
            .map(Ran::Executed)
    }

    /// The next fault-plan sequence number.
    fn next_seq(&self) -> u64 {
        self.fault_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Probes the cache for `job` (skipped when the policy does not read
    /// or an io fault fires for `seq`). A hit is counted and journaled;
    /// one for a key a resumed journal had already completed is also
    /// counted as resumed.
    fn probe<J: Job>(
        &self,
        job: &J,
        key: &CacheKey,
        seq: u64,
        sbuf: &mut SpanBuffer,
        parent: SpanId,
    ) -> Option<J::Output> {
        let cache = self.cache.as_ref()?;
        let mut probe = sbuf.open("exec.cache.probe", parent, &[]);
        let hit = if self.policy.reads() && !self.fault.io_fires(seq) {
            cache.load::<J::Output>(key)
        } else {
            None
        };
        probe.label("hit", if hit.is_some() { "true" } else { "false" });
        sbuf.close(probe);
        let out = hit?;
        self.m.hits.inc();
        if let Some(journal) = &self.journal {
            let jrn = sbuf.open("exec.journal.append", parent, &[]);
            let id = key.id();
            if journal.was_job_completed(&id) {
                self.m.jobs_resumed.inc();
            }
            journal.record_job(&id, &job.label(), 0, "cached");
            sbuf.close(jrn);
        }
        Some(out)
    }

    /// Runs one job to completion: the attempt/retry loop, deadline
    /// accounting, journaling, and (on success) the cache store. Emits
    /// attempt / journal / cache-store child spans under `parent` (the
    /// job span) into `sbuf`.
    ///
    /// The deadline is enforced one way: an armed [`cestim_obs::cancel`]
    /// token lets a cancellation-aware job body abandon itself once
    /// `due` passes, and a job that finishes (or fails) past `due` is a
    /// [`JobErrorKind::TimedOut`] whose result is discarded.
    fn run_job<J: Job>(
        &self,
        job: &J,
        key: &CacheKey,
        seq: u64,
        due: Option<Instant>,
        sbuf: &mut SpanBuffer,
        parent: SpanId,
    ) -> Result<J::Output, JobError> {
        let label = job.label();
        let _cancel_guard = due.map(|due| cancel::arm(due, cancel::DEFAULT_CHECK_EVERY));
        let overdue = || due.is_some_and(|due| Instant::now() > due);
        let failed = |attempts, kind, message| JobError {
            key: key.id(),
            label: label.clone(),
            attempts,
            kind,
            message,
        };
        let tag = sbuf.tag().to_string();
        self.m.inflight.add(1);
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
                Err(message) if cancel::is_cancel_panic(&message) => {
                    // The cooperative deadline fired inside the job body:
                    // a timeout, not a crash — never retried.
                    aspan.label("outcome", "cancelled");
                    sbuf.close(aspan);
                    break Err(failed(attempt, JobErrorKind::TimedOut, message));
                }
                Err(message) => {
                    self.m.panics_caught.inc();
                    // Fault provenance rides on the attempt span: the
                    // panic message, and whether it was chaos-injected.
                    if aspan.id().is_some() {
                        aspan.label("outcome", "panicked");
                        aspan.label("error", &truncate_message(&message));
                        if message.starts_with(crate::fault::INJECTED_PANIC_PREFIX) {
                            aspan.label("injected", "true");
                        }
                    }
                    if !overdue() && self.retry.allows_retry(attempt) {
                        self.m.retries.inc();
                        let backoff = self.retry.backoff(attempt, key);
                        if aspan.id().is_some() {
                            aspan.label("backoff_ms", &backoff.as_millis().to_string());
                        }
                        sbuf.close(aspan);
                        std::thread::sleep(backoff);
                        attempt += 1;
                    } else {
                        sbuf.close(aspan);
                        break Err(failed(attempt, JobErrorKind::Panicked, message));
                    }
                }
            }
        };

        let cancelled = matches!(&result, Err(e) if e.kind == JobErrorKind::TimedOut);
        let late = !cancelled && overdue();
        if late {
            let by = due.map_or(Duration::ZERO, |due| due.elapsed());
            let message = format!("finished {}ms past its deadline", by.as_millis());
            result = Err(failed(attempt, JobErrorKind::TimedOut, message));
        }
        if cancelled || late {
            self.m.timeouts.inc();
        }

        self.m.attempts_hist.record(attempt as u64);
        if let Some(journal) = &self.journal {
            let jrn = sbuf.open("exec.journal.append", parent, &[]);
            journal.record_job(&key.id(), &label, attempt, job_outcome(&result));
            sbuf.close(jrn);
        }
        if let (Ok(out), Some(cache)) = (&result, &self.cache) {
            // A failed (or fault-injected) cache write costs a future
            // re-execution, not correctness; count it and move on.
            let mut ssp = sbuf.open("exec.cache.store", parent, &[]);
            let store_failed = self.fault.io_fires(seq) || cache.store(key, &label, out).is_err();
            if store_failed {
                self.m.store_errors.inc();
                ssp.label("error", "true");
            }
            sbuf.close(ssp);
        }
        self.m.inflight.add(-1);
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
        self.m.job_nanos.record(start.elapsed().as_nanos() as u64);
        match outcome {
            Ok(out) => {
                self.m.executed.inc();
                Ok(out)
            }
            Err(payload) => Err(payload_message(payload.as_ref())),
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
        let serial = Executor::sequential().run_all_checked(&jobs);
        let parallel = Executor::new(4).run_all_checked(&jobs);
        assert_eq!(serial, parallel);
        assert_eq!(serial[0], Ok(vec![1]));
        assert_eq!(serial[2], Ok(vec![3, 10, 5, 16, 8, 4, 2, 1]));
    }

    #[test]
    fn warm_cache_answers_without_executing() {
        let dir = std::env::temp_dir().join(format!("cestim-exec-pool-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jobs = batch(8);

        let cold = Executor::new(2)
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap();
        let first = cold.run_all_checked(&jobs);
        assert_eq!(cold.report().executed, 8);
        assert_eq!(cold.report().cache_hits, 0);

        let warm = Executor::new(2)
            .with_cache(&dir, CachePolicy::ReadWrite)
            .unwrap();
        let second = warm.run_all_checked(&jobs);
        assert_eq!(first, second);
        assert_eq!(warm.report().executed, 0);
        assert_eq!(warm.report().cache_hits, 8);

        // Refresh ignores the entries but rewrites them.
        let refresh = Executor::new(2)
            .with_cache(&dir, CachePolicy::Refresh)
            .unwrap();
        assert_eq!(refresh.run_all_checked(&jobs), first);
        assert_eq!(refresh.report().executed, 8);
        assert_eq!(refresh.report().cache_hits, 0);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn report_counts_and_policy_names() {
        let exec = Executor::new(3);
        exec.run_all_checked(&batch(5));
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
        exec.run_all_checked(&batch(8));
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
        assert!(exec.run_all_checked(&jobs).iter().all(Result::is_ok));
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
        exec.run_all_checked(&jobs);
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
        warm.run_all_checked(&jobs);
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
        exec.run_all_checked(&batch(8));
        assert!(!exec.spans().enabled());
        assert!(exec.spans().drain().is_empty());
    }
}
