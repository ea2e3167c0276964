//! A simultaneous-multithreading front-end built on confidence estimation.
//!
//! The paper's motivating application (§1, §2.2): "if a particular branch
//! in a Simultaneous Multithreading processor is of low confidence, it may
//! be more cost effective to switch threads than speculatively evaluate the
//! branch." This module provides the substrate to test that claim: several
//! single-thread pipelines share one fetch port, and a [`FetchPolicy`]
//! decides which thread fetches each cycle. Back ends (resolution,
//! recovery, commit) always proceed in parallel, SMT-style.
//!
//! Model simplifications (documented in DESIGN.md): per-thread L1 caches
//! and predictors (no inter-thread aliasing), whole-cycle fetch grants, and
//! thread contexts that never share memory.

use crate::{NullObserver, PipelineStats, Simulator};
use serde::{Deserialize, Serialize};

/// How the shared fetch port is arbitrated between threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FetchPolicy {
    /// Strict alternation between ready threads (the confidence-blind
    /// baseline).
    RoundRobin,
    /// Keep fetching the current thread until its most recent branch was
    /// estimated low confidence, then yield — the paper's "switch threads
    /// instead of speculating" policy. Uses estimator 0 of each thread.
    SwitchOnLowConfidence,
    /// Each cycle, grant the thread with the fewest outstanding
    /// low-confidence branches (ties round-robin) — a confidence-weighted
    /// ICOUNT analog.
    FewestLowConfidence,
    /// Each cycle, grant the thread with the fewest outstanding branches
    /// of any confidence (ties round-robin) — an ICOUNT-style baseline
    /// that is speculation-aware but confidence-blind.
    FewestOutstanding,
}

impl FetchPolicy {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FetchPolicy::RoundRobin => "round-robin",
            FetchPolicy::SwitchOnLowConfidence => "switch-on-lc",
            FetchPolicy::FewestLowConfidence => "fewest-lc",
            FetchPolicy::FewestOutstanding => "fewest-outstanding",
        }
    }
}

/// Aggregate results of an SMT run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SmtStats {
    /// Total cycles until every thread finished.
    pub cycles: u64,
    /// Per-thread pipeline statistics.
    pub per_thread: Vec<PipelineStats>,
}

impl SmtStats {
    /// Combined committed instructions across threads.
    pub fn total_committed(&self) -> u64 {
        self.per_thread.iter().map(|s| s.committed_insts).sum()
    }

    /// Combined committed IPC over the shared front end.
    pub fn throughput(&self) -> f64 {
        self.total_committed() as f64 / self.cycles as f64
    }

    /// Combined wrong-path (squashed) instructions — wasted fetch work.
    pub fn total_squashed(&self) -> u64 {
        self.per_thread.iter().map(|s| s.squashed_insts).sum()
    }
}

/// Several single-thread pipelines sharing one fetch port.
///
/// Build each thread as a normal [`Simulator`] (attach at least one
/// estimator when using a confidence-driven policy), then hand them to the
/// arbiter.
///
/// # Example
///
/// ```no_run
/// use cestim_pipeline::{FetchPolicy, PipelineConfig, Simulator, SmtSimulator};
/// # fn mk() -> Simulator { unimplemented!() }
/// let threads = vec![mk(), mk()];
/// let mut smt = SmtSimulator::new(threads, FetchPolicy::FewestLowConfidence);
/// let stats = smt.run(1_000_000);
/// println!("throughput {:.2} IPC", stats.throughput());
/// ```
pub struct SmtSimulator {
    threads: Vec<Simulator>,
    policy: FetchPolicy,
    current: usize,
    cycles: u64,
}

impl SmtSimulator {
    /// Creates the arbiter over the given threads.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is empty, or a confidence-driven policy is used
    /// with a thread that has no estimator attached.
    pub fn new(threads: Vec<Simulator>, policy: FetchPolicy) -> SmtSimulator {
        assert!(!threads.is_empty(), "need at least one thread");
        if matches!(
            policy,
            FetchPolicy::SwitchOnLowConfidence | FetchPolicy::FewestLowConfidence
        ) {
            for (i, t) in threads.iter().enumerate() {
                assert!(
                    !t.estimator_names().is_empty(),
                    "thread {i} needs an estimator for policy {}",
                    policy.name()
                );
            }
        }
        SmtSimulator {
            threads,
            policy,
            current: 0,
            cycles: 0,
        }
    }

    /// The arbitration policy.
    pub fn policy(&self) -> FetchPolicy {
        self.policy
    }

    fn ready(&self, i: usize) -> bool {
        !self.threads[i].done()
    }

    fn next_ready_after(&self, i: usize) -> Option<usize> {
        let n = self.threads.len();
        (1..=n).map(|d| (i + d) % n).find(|&j| self.ready(j))
    }

    fn choose(&mut self) -> Option<usize> {
        let candidates: Vec<usize> = (0..self.threads.len()).filter(|&i| self.ready(i)).collect();
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            FetchPolicy::RoundRobin => self.next_ready_after(self.current)?,
            FetchPolicy::SwitchOnLowConfidence => {
                let stay = self.ready(self.current)
                    && self.threads[self.current]
                        .last_estimate(0)
                        .is_none_or(|c| c.is_high());
                if stay {
                    self.current
                } else {
                    self.next_ready_after(self.current)?
                }
            }
            FetchPolicy::FewestLowConfidence => *candidates
                .iter()
                .min_by_key(|&&i| {
                    (
                        self.threads[i].outstanding_low_confidence(0),
                        self.threads[i].outstanding_branches(),
                        // round-robin tiebreak: distance from current
                        (i + self.threads.len() - self.current) % self.threads.len(),
                    )
                })
                .expect("candidates nonempty"),
            FetchPolicy::FewestOutstanding => *candidates
                .iter()
                .min_by_key(|&&i| {
                    (
                        self.threads[i].outstanding_branches(),
                        (i + self.threads.len() - self.current) % self.threads.len(),
                    )
                })
                .expect("candidates nonempty"),
        };
        Some(chosen)
    }

    /// Runs until every thread completes (or `max_cycles`), returning the
    /// aggregate statistics.
    pub fn run(&mut self, max_cycles: u64) -> SmtStats {
        while self.cycles < max_cycles && self.threads.iter().any(|t| !t.done()) {
            let grant = self.choose();
            if let Some(g) = grant {
                self.current = g;
            }
            for (i, t) in self.threads.iter_mut().enumerate() {
                if !t.done() {
                    t.step_cycle(grant == Some(i), &mut NullObserver);
                }
            }
            self.cycles += 1;
        }
        SmtStats {
            cycles: self.cycles,
            per_thread: self.threads.iter_mut().map(|t| t.finish()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PipelineConfig;
    use cestim_bpred::Gshare;
    use cestim_core::SaturatingConfidence;
    use cestim_isa::{Program, ProgramBuilder, Reg};

    /// A loop with an unpredictable branch (LCG bit) plus filler work.
    fn noisy(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 99);
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.muli(Reg::S0, Reg::S0, 1664525);
        b.addi(Reg::S0, Reg::S0, 1013904223);
        b.srli(Reg::T2, Reg::S0, 17);
        b.andi(Reg::T2, Reg::T2, 1);
        b.beqz(Reg::T2, skip);
        b.addi(Reg::T3, Reg::T3, 1);
        b.bind(skip);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    /// A predictable counted loop.
    fn steady(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T2, Reg::T2, 3);
        b.xori(Reg::T2, Reg::T2, 5);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    fn thread(p: &Program) -> Simulator {
        let mut s = Simulator::new(p, PipelineConfig::paper(), Gshare::new(12));
        s.add_estimator(SaturatingConfidence::selected());
        s
    }

    #[test]
    fn both_threads_complete_under_every_policy() {
        let a = noisy(2000);
        let b = steady(2000);
        for policy in [
            FetchPolicy::RoundRobin,
            FetchPolicy::SwitchOnLowConfidence,
            FetchPolicy::FewestLowConfidence,
            FetchPolicy::FewestOutstanding,
        ] {
            let mut smt = SmtSimulator::new(vec![thread(&a), thread(&b)], policy);
            let stats = smt.run(10_000_000);
            assert_eq!(stats.per_thread.len(), 2, "{}", policy.name());
            // noisy() has two branch sites per iteration, steady() one.
            assert_eq!(stats.per_thread[0].committed_branches, 4000);
            assert_eq!(stats.per_thread[1].committed_branches, 2000);
            assert!(stats.throughput() > 0.5, "{}", policy.name());
        }
    }

    #[test]
    fn smt_results_match_single_thread_semantics() {
        // Arbitration must not change what each thread computes.
        let a = noisy(1000);
        let mut solo = thread(&a);
        let solo_stats = solo.run_to_completion();

        let b = steady(1000);
        let mut smt = SmtSimulator::new(
            vec![thread(&a), thread(&b)],
            FetchPolicy::FewestLowConfidence,
        );
        let stats = smt.run(10_000_000);
        assert_eq!(
            stats.per_thread[0].committed_insts,
            solo_stats.committed_insts
        );
        assert_eq!(
            stats.per_thread[0].committed_branches,
            solo_stats.committed_branches
        );
    }

    #[test]
    fn confidence_policy_wastes_less_fetch_than_round_robin() {
        // The predictable thread outlives the noisy one, so arbitration is
        // active for the noisy thread's whole run: with confidence-aware
        // arbitration, the noisy thread only gets the port while it has no
        // doubtful branches in flight, so it speculates far less deeply.
        let a = noisy(4000);
        let b = steady(40_000);
        let run_policy = |policy| {
            let mut smt = SmtSimulator::new(vec![thread(&a), thread(&b)], policy);
            smt.run(10_000_000)
        };
        let rr = run_policy(FetchPolicy::RoundRobin);
        let lc = run_policy(FetchPolicy::FewestLowConfidence);
        assert!(
            lc.total_squashed() < rr.total_squashed(),
            "confidence arbitration should cut wrong-path work: {} vs {}",
            lc.total_squashed(),
            rr.total_squashed()
        );
        // Wasted-fetch fraction is the figure of merit: the port does more
        // useful work per fetched instruction.
        let waste = |s: &SmtStats| {
            s.total_squashed() as f64
                / s.per_thread.iter().map(|t| t.fetched_insts).sum::<u64>() as f64
        };
        assert!(
            waste(&lc) < waste(&rr),
            "wasted-fetch fraction: lc {} vs rr {}",
            waste(&lc),
            waste(&rr)
        );
    }

    #[test]
    fn single_thread_smt_equals_plain_pipeline() {
        let a = steady(500);
        let mut solo = thread(&a);
        let solo_stats = solo.run_to_completion();
        let mut smt = SmtSimulator::new(vec![thread(&a)], FetchPolicy::RoundRobin);
        let stats = smt.run(1_000_000);
        assert_eq!(stats.per_thread[0], solo_stats);
        assert_eq!(stats.cycles, solo_stats.cycles);
    }

    #[test]
    #[should_panic(expected = "needs an estimator")]
    fn confidence_policy_requires_estimators() {
        let a = steady(10);
        let s = Simulator::new(&a, PipelineConfig::paper(), Gshare::new(10));
        let _ = SmtSimulator::new(vec![s], FetchPolicy::SwitchOnLowConfidence);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = SmtSimulator::new(Vec::new(), FetchPolicy::RoundRobin);
    }

    #[test]
    fn max_cycles_cuts_the_run_short() {
        let a = steady(100_000);
        let mut smt = SmtSimulator::new(vec![thread(&a), thread(&a)], FetchPolicy::RoundRobin);
        let stats = smt.run(50);
        assert_eq!(stats.cycles, 50, "must stop at the cycle budget");
        assert!(
            stats.total_committed() < 2 * 100_000,
            "neither thread can have finished in 50 cycles"
        );
    }

    #[test]
    fn mixed_confidence_gating_favors_the_confident_thread() {
        // Thread 0 reports every branch low confidence, thread 1 every
        // branch high confidence. Under SwitchOnLowConfidence the port
        // yields away from thread 0 after each of its branches but sticks
        // with thread 1, so the confident thread must finish first even
        // though both programs are identical.
        use cestim_core::{AlwaysHigh, AlwaysLow};
        let p = steady(3000);
        let mk = |hi: bool| {
            let mut s = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
            if hi {
                s.add_estimator(AlwaysHigh);
            } else {
                s.add_estimator(AlwaysLow);
            }
            s
        };
        let mut smt = SmtSimulator::new(
            vec![mk(false), mk(true)],
            FetchPolicy::SwitchOnLowConfidence,
        );
        let stats = smt.run(10_000_000);
        assert_eq!(stats.per_thread[0].committed_branches, 3000);
        assert_eq!(stats.per_thread[1].committed_branches, 3000);
        assert!(
            stats.per_thread[1].cycles < stats.per_thread[0].cycles,
            "high-confidence thread should finish first: hc {} vs lc {} cycles",
            stats.per_thread[1].cycles,
            stats.per_thread[0].cycles
        );
    }
}
