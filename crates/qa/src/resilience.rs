//! The resilience oracle: chaos-tests the executor's fault handling.
//!
//! Where the differential oracles check that independent
//! *implementations* agree, this oracle checks that the executor's
//! *failure paths* preserve the differential contract. For each generated
//! program it asserts four properties over the same predictor-sweep batch
//! the exec oracle uses:
//!
//! 1. **isolation** — an injected panic plan fails exactly the targeted
//!    jobs; every survivor's output is byte-identical to the fault-free
//!    run;
//! 2. **convergence** — with a retry policy armed, the same transient
//!    plan heals: the full batch is byte-identical to the fault-free run;
//! 3. **timeout** — a job overrunning the per-job deadline is recorded as
//!    `TimedOut` (checked with synthetic sleep jobs and generous margins,
//!    not simulator timings, so the check is load-tolerant);
//! 4. **resume** — a run killed mid-batch and resumed from its journal +
//!    warm cache reproduces byte-identical outputs while executing zero
//!    already-journaled jobs.
//!
//! Because the timeout sub-check sleeps and the resume sub-check touches
//! disk, this oracle is opt-in (`--oracle resilience`), not part of
//! [`crate::oracle::OracleKind::ALL`].

use crate::gen::QaProgram;
use crate::oracle::{run_texts, sweep_jobs, OracleFailure, OracleKind, QaJob};
use cestim_exec::{
    install_quiet_panic_hook, CachePolicy, Executor, FaultPlan, Job, JobErrorKind, RetryPolicy,
    RunJournal,
};
use serde::{Map, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sleep-job delay for the timeout sub-check, far above the deadline so
/// a loaded machine cannot flip the verdict.
const SLOW_MS: u64 = 150;
/// Per-job deadline for the timeout sub-check.
const DEADLINE_MS: u64 = 25;

fn fail(detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        oracle: OracleKind::Resilience,
        detail: detail.into(),
    }
}

/// A synthetic job that just sleeps: deterministic-output filler for the
/// timeout sub-check.
struct SleepJob {
    id: u64,
    ms: u64,
}

impl Job for SleepJob {
    type Output = u64;

    fn content(&self) -> Value {
        let mut m = Map::new();
        m.insert("id".into(), Value::Number(self.id.into()));
        m.insert("ms".into(), Value::Number(self.ms.into()));
        Value::Object(m)
    }

    fn schema_salt(&self) -> u64 {
        cestim_exec::schema_salt("qa-resilience-sleep", 1)
    }

    fn label(&self) -> String {
        format!("sleep-{}", self.id)
    }

    fn execute(&self) -> u64 {
        std::thread::sleep(Duration::from_millis(self.ms));
        self.id
    }
}

/// A unique scratch directory per check, cleaned up by the caller.
fn scratch_dir(tag: &str) -> PathBuf {
    static NONCE: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "cestim-qa-resilience-{tag}-{}-{}",
        std::process::id(),
        NONCE.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Runs all four resilience properties on one program.
pub fn check_resilience(p: &QaProgram) -> Result<(), OracleFailure> {
    install_quiet_panic_hook();
    let jobs = sweep_jobs(p);
    let clean_text = run_texts(&Executor::sequential(), &jobs)
        .map_err(|e| fail(format!("fault-free sweep: {e}")))?;

    check_isolation(&jobs, &clean_text)?;
    check_convergence(&jobs, &clean_text)?;
    check_timeout()?;
    check_resume(&jobs, &clean_text)
}

/// Property 1: a panic plan fails exactly the targeted submission
/// sequences; survivors match the fault-free output byte-for-byte.
fn check_isolation(jobs: &[QaJob], clean_text: &[String]) -> Result<(), OracleFailure> {
    let plan = FaultPlan::parse("panic:2").map_err(|e| fail(e.to_string()))?;
    let exec = Executor::new(2).with_fault_plan(plan);
    let results = exec.run_all_checked(jobs);
    for (i, r) in results.iter().enumerate() {
        let targeted = (i as u64 + 1).is_multiple_of(2);
        match r {
            Ok(out) => {
                if targeted {
                    return Err(fail(format!("job {i}: injected panic did not fire")));
                }
                let text = serde_json::to_string(out).unwrap_or_default();
                if text != clean_text[i] {
                    return Err(fail(format!(
                        "job {i}: survivor output differs from fault-free run"
                    )));
                }
            }
            Err(e) => {
                if !targeted {
                    return Err(fail(format!("job {i}: unexpected failure: {e}")));
                }
                if e.kind != JobErrorKind::Panicked {
                    return Err(fail(format!("job {i}: wrong failure kind: {e}")));
                }
            }
        }
    }
    let expected = jobs.len() as u64 / 2;
    if exec.report().panics_caught != expected {
        return Err(fail(format!(
            "expected {expected} caught panics, saw {}",
            exec.report().panics_caught
        )));
    }
    Ok(())
}

/// Property 2: the same transient plan plus one retry converges to the
/// fault-free output.
fn check_convergence(jobs: &[QaJob], clean_text: &[String]) -> Result<(), OracleFailure> {
    let plan = FaultPlan::parse("panic:2").map_err(|e| fail(e.to_string()))?;
    let exec = Executor::new(2)
        .with_fault_plan(plan)
        .with_retry(RetryPolicy {
            max_attempts: 2,
            base_ms: 1,
            max_ms: 5,
        });
    let texts = run_texts(&exec, jobs).map_err(|e| fail(format!("retry did not converge: {e}")))?;
    if let Some(i) = texts.iter().zip(clean_text).position(|(t, c)| t != c) {
        return Err(fail(format!(
            "job {i}: retried output differs from fault-free run"
        )));
    }
    let report = exec.report();
    let expected = jobs.len() as u64 / 2;
    if report.retries != expected {
        return Err(fail(format!(
            "expected {expected} retries, saw {}",
            report.retries
        )));
    }
    Ok(())
}

/// Property 3: the per-job deadline fires on an overdue job and spares
/// its fast siblings.
fn check_timeout() -> Result<(), OracleFailure> {
    let jobs: Vec<SleepJob> = (0..4)
        .map(|id| SleepJob {
            id,
            ms: if id == 1 { SLOW_MS } else { 1 },
        })
        .collect();
    let exec = Executor::new(2).with_deadline(Some(Duration::from_millis(DEADLINE_MS)));
    let results = exec.run_all_checked(&jobs);
    match &results[1] {
        Err(e) if e.kind == JobErrorKind::TimedOut => {}
        Err(e) => return Err(fail(format!("slow job failed with wrong kind: {e}"))),
        Ok(_) => return Err(fail("slow job beat a deadline 6x shorter than its sleep")),
    }
    for i in [0usize, 2, 3] {
        if results[i].is_err() {
            return Err(fail(format!("fast job {i} was not spared by the deadline")));
        }
    }
    if exec.report().timeouts < 1 {
        return Err(fail("exec.timeouts did not count the overdue job"));
    }
    Ok(())
}

/// Property 4: a killed-and-resumed run is byte-identical to an
/// uninterrupted one and re-executes nothing the journal completed.
fn check_resume(jobs: &[QaJob], clean_text: &[String]) -> Result<(), OracleFailure> {
    let cache_dir = scratch_dir("cache");
    let journal_dir = scratch_dir("journal");
    let outcome = (|| {
        // First run "dies" after the first half of the batch.
        {
            let journal = Arc::new(
                RunJournal::start(&journal_dir).map_err(|e| fail(format!("journal: {e}")))?,
            );
            let exec = Executor::new(2)
                .with_cache(&cache_dir, CachePolicy::ReadWrite)
                .map_err(|e| fail(format!("cache: {e}")))?
                .with_journal(journal);
            run_texts(&exec, &jobs[..2])
                .map_err(|e| fail(format!("fault-free partial run: {e}")))?;
        }
        // Resume: prior jobs must come back from cache, counted as resumed.
        let journal = Arc::new(
            RunJournal::resume(&journal_dir).map_err(|e| fail(format!("journal resume: {e}")))?,
        );
        if journal.prior_job_count() != 2 {
            return Err(fail(format!(
                "journal replayed {} prior jobs, expected 2",
                journal.prior_job_count()
            )));
        }
        let exec = Executor::new(2)
            .with_cache(&cache_dir, CachePolicy::ReadWrite)
            .map_err(|e| fail(format!("cache: {e}")))?
            .with_journal(journal);
        let texts = run_texts(&exec, jobs).map_err(|e| fail(format!("resumed run: {e}")))?;
        if let Some(i) = texts.iter().zip(clean_text).position(|(t, c)| t != c) {
            return Err(fail(format!(
                "job {i}: resumed output differs from uninterrupted run"
            )));
        }
        let report = exec.report();
        if report.jobs_resumed != 2 {
            return Err(fail(format!(
                "expected 2 resumed jobs, saw {}",
                report.jobs_resumed
            )));
        }
        if report.executed != jobs.len() as u64 - 2 {
            return Err(fail(format!(
                "resumed run executed {} jobs, expected {}",
                report.executed,
                jobs.len() - 2
            )));
        }
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use crate::oracle::{check, FaultSpec};
    use crate::rng::XorShift64Star;

    #[test]
    fn resilience_oracle_passes_on_generated_programs() {
        let mut rng = XorShift64Star::new(7);
        let p = generate(&mut rng, &GenConfig::default());
        assert_eq!(check(OracleKind::Resilience, &p, FaultSpec::none()), Ok(()));
    }

    #[test]
    fn resilience_is_nameable_but_not_in_all() {
        assert_eq!(
            OracleKind::from_name("resilience"),
            Some(OracleKind::Resilience)
        );
        assert!(!OracleKind::ALL.contains(&OracleKind::Resilience));
    }
}
