//! # cestim-exec
//!
//! Parallel, cache-aware execution engine for simulation jobs — the
//! workspace's first scalability layer.
//!
//! The paper suite is a large sweep: experiments fan out over workloads ×
//! predictors × estimator configurations, and every cell is a pure
//! function of its configuration. This crate exploits that purity three
//! ways:
//!
//! * [`Job`] — a value describing one simulation unit. Its canonical
//!   serialization ([`canonical_string`]) hashes to a deterministic
//!   64-bit content key ([`CacheKey`]) that also folds in a
//!   crate-version/schema salt ([`schema_salt`]), so equal configurations
//!   share results and code changes invalidate them.
//! * [`Executor`] — a fixed-size worker pool (`std::thread::scope` +
//!   `mpsc`) that runs a batch out of order but merges results back into
//!   submission order: callers see bit-for-bit the serial answer. Its one
//!   batch method, [`Executor::run_all_checked`], returns a `Result` per
//!   job, so a failed job is a value, never a panic.
//! * [`Executor::run_one`] — the same probe / run / journal / store
//!   policy for a single job on the calling thread, which is how the
//!   server executes requests.
//! * [`DiskCache`] — a content-addressed JSON store (atomic rename
//!   writes) replaying previously computed outputs across process runs,
//!   governed by a [`CachePolicy`].
//!
//! Failure handling (the resilience layer, see `docs/RESILIENCE.md`):
//!
//! * every job attempt runs under `catch_unwind`, so a panicking job
//!   becomes a structured [`JobError`] in its result slot instead of a
//!   pool crash;
//! * a deterministic [`RetryPolicy`] re-runs failed attempts with
//!   key-derived exponential backoff;
//! * an optional per-job deadline cancels cooperative job bodies and
//!   discards results that finish late ([`JobErrorKind::TimedOut`]);
//! * a [`FaultPlan`] chaos matrix (`CESTIM_EXEC_FAULT`) deterministically
//!   injects panics, slow jobs, and cache I/O errors for testing;
//! * a [`RunJournal`] records per-job outcomes append-only (JSONL) so a
//!   killed run can resume, skipping completed work.
//!
//! Telemetry flows through `cestim-obs`: `exec.jobs.submitted` /
//! `exec.jobs.cache_hits` / `exec.jobs.executed` / `exec.retries` /
//! `exec.panics_caught` / `exec.timeouts` / `exec.jobs_resumed` /
//! `exec.cache.store_errors` counters, an `exec.queue.depth` gauge, and
//! `exec.job.nanos` / `exec.job.attempts` histograms, plus a serializable
//! [`ExecReport`] summary.
//!
//! Everything is std-only; no external crates beyond the vendored serde.

#![warn(missing_docs)]

mod cache;
mod fault;
mod journal;
mod key;
mod pool;
mod retry;

pub use cache::{CachePolicy, DiskCache};
pub use fault::{FaultPlan, FaultPlanError, INJECTED_PANIC_PREFIX};
pub use journal::{JournalEntry, RunJournal, JOURNAL_FILE, JOURNAL_PREV_FILE};
pub use key::{canonical_string, content_hash, fnv1a, schema_salt, CacheKey};
pub use pool::{
    default_workers, install_quiet_panic_hook, ExecReport, Executor, Job, JobError, JobErrorKind,
    Ran,
};
pub use retry::RetryPolicy;
