//! The pipeline timing core shared by both front ends.
//!
//! [`Core`] owns everything between fetch and commit: the predictor, the
//! estimator [`Roster`], the speculative global history, the register
//! scoreboard, the I/D caches, the in-flight branch window with its resolve
//! track, and the cycle, stall and cycle-skip bookkeeping. It times
//! whatever instruction stream a [`FetchSource`] supplies:
//!
//! * the live front end ([`Simulator`](crate::Simulator)) executes the
//!   program on the interpreter, following predictions down wrong paths
//!   and rewinding at recovery (or, in replay fetch mode, following the
//!   actual path);
//! * the trace front end ([`TraceSimulator`](crate::TraceSimulator)) walks
//!   an imported `&[TraceRecord]`.
//!
//! Sources describe instructions as [`TraceRecord`]s, so the latency table,
//! the scoreboard and branch timing exist once. Dispatch to the source is
//! static: every core entry point is generic over it.

use crate::cache::NO_LINE;
use crate::ring::{Ring, RESOLVED};
use crate::roster::Roster;
use crate::{Cache, PipelineConfig, PipelineStats};
use crate::{FetchEvent, GateEvent, OutcomeEvent, PredictEvent, RecoveryEvent};
use crate::{ResolveEvent, SimObserver};
use cestim_bpred::{AnyPredictor, BranchPredictor, HistoryRegister, Prediction, PredictorInfo};
use cestim_core::AnyEstimator;
use cestim_isa::Reg;
use cestim_trace_io::{TraceClass, TraceRecord};

/// One fetched, not-yet-committed conditional branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Inflight {
    pub(crate) seq: u64,
    pub(crate) pc: u32,
    pub(crate) pred: Prediction,
    pub(crate) actual_taken: bool,
    pub(crate) mispredicted: bool,
    pub(crate) ghr_at_predict: u32,
    /// Row of the core's estimate slab holding this branch's
    /// per-estimator confidence estimates: its physical slot in the
    /// in-flight ring.
    pub(crate) est_slot: u32,
    /// Estimator 0's estimate was low confidence (cached here so gating
    /// never touches the slab).
    pub(crate) est0_low: bool,
    pub(crate) fetch_cycle: u64,
    /// Set once the branch resolves.
    pub(crate) resolve_cycle: Option<u64>,
}

impl Inflight {
    /// What an in-flight ring slot holds before its first branch.
    const EMPTY: Inflight = Inflight {
        seq: 0,
        pc: 0,
        pred: Prediction {
            taken: false,
            info: PredictorInfo::Bimodal {
                counter: 0,
                index: 0,
            },
        },
        actual_taken: false,
        mispredicted: false,
        ghr_at_predict: 0,
        est_slot: 0,
        est0_low: false,
        fetch_cycle: 0,
        resolve_cycle: None,
    };

    #[inline]
    pub(crate) fn resolved(&self) -> bool {
        self.resolve_cycle.is_some()
    }
}

/// An instruction stream the core can time.
///
/// The default methods are the *replay stall policy*, shared by every
/// source that follows the actual path: the speculative history receives
/// each branch's actual outcome at fetch, a misprediction stalls fetch
/// until `resolve + 1 + mispredict_penalty` (the cycle fetch would resume
/// at after a live recovery, charged at fetch because resolution fires
/// exactly at `resolve`), and its resolution counts a recovery with zero
/// squashed work. The live speculative front end overrides them to follow
/// predictions and rewind.
pub(crate) trait FetchSource {
    /// The record of the instruction at the fetch PC, if one is
    /// fetchable: `None` once the program halted or left its image (on a
    /// wrong path, until recovery) or the trace is consumed. Fetch reads
    /// only what decoding fixes (`pc`, `class`, the registers); a source
    /// that executes at [`take`](FetchSource::take) may leave `target` and
    /// `taken` unset here.
    fn peek(&self) -> Option<TraceRecord>;

    /// Consumes the instruction `peek` just returned as `peeked` and
    /// returns its complete record. A load's or store's `target` is its
    /// memory address.
    fn take(&mut self, peeked: TraceRecord) -> TraceRecord;

    /// Consumes the peeked conditional branch `peeked`, predicted `pred`
    /// (with estimator 0 saying `est0_low`) and resolving at `resolve_at`,
    /// and steers fetch past it: speculative history and fetch stall.
    /// Returns its actual direction and whether the fetch group ends there.
    fn take_branch(
        &mut self,
        core: &mut Core,
        peeked: TraceRecord,
        pred: bool,
        _est0_low: bool,
        resolve_at: u64,
    ) -> (bool, bool) {
        let actual = self.take(peeked).taken;
        core.ghr.push(actual);
        let mispredicted = pred != actual;
        if mispredicted {
            core.fetch_stall_until = core
                .fetch_stall_until
                .max(resolve_at + 1 + core.cfg.mispredict_penalty);
        }
        // The group ends on an actual-taken redirect or on the stall a
        // misprediction just charged.
        (actual, actual || mispredicted)
    }

    /// Fetch slots this cycle.
    fn fetch_width(&mut self, core: &mut Core) -> u32 {
        core.cfg.fetch_width
    }

    /// The mispredicted branch at in-flight index `idx` just resolved.
    fn on_mispredict<O: SimObserver + ?Sized>(&mut self, core: &mut Core, idx: usize, obs: &mut O) {
        // The path was never wrong, so nothing is squashed or rewound.
        core.stats.recoveries += 1;
        core.emit_recovery(idx, 0, core.cfg.mispredict_penalty, obs);
    }

    /// The oldest in-flight branch just committed.
    fn on_commit(&mut self) {}

    /// Whether to corrupt the reported outcome of the branch committing
    /// now (a test-support fault hook).
    fn commit_fault(&mut self) -> bool {
        false
    }

    /// Scoreboard slot `reg` was overwritten; `old` is its previous
    /// ready cycle.
    fn scoreboard_written(&mut self, _reg: u8, _old: u64) {}
}

/// The timing state and phases shared by every front end (see the
/// [module docs](self)).
pub(crate) struct Core {
    pub(crate) cfg: PipelineConfig,
    predictor: AnyPredictor,
    pub(crate) roster: Roster,
    pub(crate) ghr: HistoryRegister,
    /// Ready cycle per register byte. Only real registers are ever
    /// written, so every other byte (`NO_REG` among them) reads an
    /// always-zero slot and operand readiness needs no clamp or branch.
    pub(crate) scoreboard: [u64; 256],
    icache: Cache,
    dcache: Cache,
    /// The speculation window: in-flight branches in fetch order, each
    /// with its resolve deadline ([`RESOLVED`] once resolved) in the ring's
    /// parallel array, which the per-cycle resolution scan walks instead
    /// of the full `Inflight` payloads.
    pub(crate) inflight: Ring<Inflight>,
    /// Scratch `(deadline, index)` list of due resolutions, reused across
    /// scans.
    due_buf: Vec<(u64, u32)>,
    pub(crate) now: u64,
    pub(crate) fetch_stall_until: u64,
    /// Earliest `resolve_at` among unresolved in-flight branches (stale-low
    /// is allowed; `u64::MAX` when none). Lets the per-cycle resolution scan
    /// exit without touching the in-flight queue on most cycles.
    resolve_soonest: u64,
    branch_seq: u64,
    pub(crate) arch_insts: u64,
    pub(crate) arch_branches: u64,
    pub(crate) stats: PipelineStats,
}

impl Core {
    /// # Panics
    ///
    /// Panics if `cfg` is invalid (see [`PipelineConfig::validate`]).
    pub(crate) fn new(cfg: PipelineConfig, predictor: AnyPredictor) -> Core {
        if let Err(e) = cfg.validate() {
            panic!("invalid pipeline config: {e}");
        }
        let window = cfg.max_unresolved_branches;
        let inflight = Ring::new(window, Inflight::EMPTY);
        Core {
            ghr: HistoryRegister::new(cfg.ghr_width),
            icache: Cache::new(cfg.icache),
            dcache: Cache::new(cfg.dcache),
            cfg,
            predictor,
            // One estimate row per ring slot: a branch's row is its slot.
            roster: Roster::new(inflight.capacity()),
            scoreboard: [0; 256],
            inflight,
            due_buf: Vec::with_capacity(window),
            now: 0,
            fetch_stall_until: 0,
            resolve_soonest: u64::MAX,
            branch_seq: 0,
            arch_insts: 0,
            arch_branches: 0,
            stats: PipelineStats::default(),
        }
    }

    /// # Panics
    ///
    /// Panics if branches are already in flight.
    pub(crate) fn add_estimator(&mut self, estimator: AnyEstimator) -> usize {
        assert!(
            self.inflight.is_empty(),
            "estimators must be attached before branches are in flight"
        );
        self.roster.add(estimator)
    }

    /// `true` once the source is exhausted and the pipeline has drained.
    pub(crate) fn done(&self, src: &impl FetchSource) -> bool {
        self.inflight.is_empty() && src.peek().is_none()
    }

    /// Runs to completion (source exhausted with an empty pipeline, or
    /// `max_cycles`) and returns the final stats.
    ///
    /// If a cooperative deadline is armed on this thread
    /// ([`cestim_obs::cancel::arm`]), the loop polls the wall clock every
    /// `check_every` simulated cycles and abandons the run via
    /// [`cestim_obs::cancel::fire`] once the deadline passes — so an
    /// overdue job releases its worker instead of running to completion.
    /// The poll is alloc-free and costs one thread-local read when no
    /// token is armed.
    pub(crate) fn run<S, O>(&mut self, src: &mut S, obs: &mut O) -> PipelineStats
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        let cancel = cestim_obs::cancel::current();
        let mut cancel_at = cancel.map(|c| self.now.saturating_add(c.check_every));
        while !self.done(src) && self.now < self.cfg.max_cycles {
            if let (Some(at), Some(token)) = (cancel_at, &cancel) {
                if self.now >= at {
                    if token.expired() {
                        cestim_obs::cancel::fire();
                    }
                    cancel_at = Some(self.now.saturating_add(token.check_every));
                }
            }
            self.step(src, true, obs);
            // While fetch is stalled (I-cache miss, mispredict penalty)
            // nothing can happen until the stall ends or a branch resolves:
            // resolutions before `resolve_soonest` are impossible, commit
            // drained every resolved head this cycle, and a stalled fetch
            // returns before it counts gated cycles. Jump straight to the
            // first cycle with work; every skipped cycle would have been a
            // no-op, so the cycle count is unchanged.
            if self.now < self.fetch_stall_until {
                let target = self
                    .fetch_stall_until
                    .min(self.resolve_soonest)
                    .min(self.cfg.max_cycles);
                self.now = self.now.max(target);
            }
        }
        self.finish()
    }

    /// Finalizes and returns the statistics.
    pub(crate) fn finish(&mut self) -> PipelineStats {
        self.stats.cycles = self.now;
        self.stats.committed_insts = self.arch_insts;
        // `arch + squashed` is invariant under recovery (it moves counts
        // from one to the other), so the fetched totals need no per-fetch
        // increments.
        self.stats.fetched_insts = self.arch_insts + self.stats.squashed_insts;
        self.stats.fetched_branches = self.arch_branches + self.stats.squashed_branches;
        self.stats.icache_accesses = self.icache.accesses();
        self.stats.icache_misses = self.icache.misses();
        self.stats.dcache_accesses = self.dcache.accesses();
        self.stats.dcache_misses = self.dcache.misses();
        self.stats
    }

    /// Advances the pipeline by one cycle, fetching only when `allow_fetch`
    /// is true. Resolution, recovery, and commit always proceed.
    pub(crate) fn step<S, O>(&mut self, src: &mut S, allow_fetch: bool, obs: &mut O)
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        // A head can only be newly resolved — and therefore newly
        // committable — in a cycle where a resolution fires, so both phases
        // sit behind the resolution wake-up check.
        if self.now >= self.resolve_soonest {
            self.process_resolutions(src, obs);
            self.process_commits(src, obs);
        }
        if allow_fetch {
            self.fetch(src, obs);
        }
        self.now += 1;
    }

    // ---- resolution ------------------------------------------------------

    fn process_resolutions<S, O>(&mut self, src: &mut S, obs: &mut O)
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        // Fast path: nothing can resolve yet. `resolve_soonest` may be
        // stale-low (pointing at a branch that was squashed), which only
        // costs one wasted scan — it is never stale-high.
        if self.now < self.resolve_soonest {
            return;
        }
        // One scan collects every due entry and the earliest not-yet-due
        // deadline (the window's next wake-up; resolved entries carry a
        // `u64::MAX` sentinel). Resolutions fire in (deadline, seq) order —
        // the queue is in fetch (= seq) order, so sorting (deadline, index)
        // pairs gives exactly that. No rescan is needed even across
        // recoveries: a recovery only pops entries *younger* than the
        // mispredicted branch, deadlines never change, and no entry is
        // pushed while resolving — so each queued firing stays valid unless
        // its entry was squashed, which the deadline recheck detects.
        let mut soonest = u64::MAX;
        self.due_buf.clear();
        for i in 0..self.inflight.len() {
            let at = self.inflight.deadline(i);
            if at <= self.now {
                self.due_buf.push((at, i as u32));
            } else if at != RESOLVED {
                soonest = soonest.min(at);
            }
        }
        if self.due_buf.len() > 1 {
            self.due_buf.sort_unstable();
        }
        let mut due_buf = std::mem::take(&mut self.due_buf);
        for &(at, idx) in &due_buf {
            let idx = idx as usize;
            if idx < self.inflight.len() && self.inflight.deadline(idx) == at {
                self.resolve_one(src, idx, obs);
            }
        }
        due_buf.clear();
        self.due_buf = due_buf;
        // Stale-low is fine (squashed entries may make the true next
        // deadline later); it costs one wasted scan, never a missed one.
        self.resolve_soonest = soonest;
    }

    fn resolve_one<S, O>(&mut self, src: &mut S, idx: usize, obs: &mut O)
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        let (seq, pc, mispredicted) = {
            let e = &mut self.inflight[idx];
            e.resolve_cycle = Some(self.now);
            (e.seq, e.pc, e.mispredicted)
        };
        self.inflight.set_deadline(idx, RESOLVED);
        self.roster.resolved(mispredicted);
        obs.on_branch_resolved(&ResolveEvent {
            seq,
            pc,
            mispredicted,
            cycle: self.now,
        });
        if mispredicted {
            src.on_mispredict(self, idx, obs);
        }
    }

    /// Squashes every in-flight branch younger than `idx` (they were
    /// fetched down a wrong path); returns how many.
    pub(crate) fn squash_after<O: SimObserver + ?Sized>(&mut self, idx: usize, obs: &mut O) -> u32 {
        let squashed = (self.inflight.len() - idx - 1) as u32;
        while self.inflight.len() > idx + 1 {
            self.record_outcome(self.inflight.len() - 1, false, false, obs);
            self.inflight.pop_back();
        }
        squashed
    }

    /// Reports the recovery of the mispredicted branch at `idx`.
    pub(crate) fn emit_recovery<O: SimObserver + ?Sized>(
        &mut self,
        idx: usize,
        squashed: u32,
        penalty: u64,
        obs: &mut O,
    ) {
        let e = &self.inflight[idx];
        let (seq, pc) = (e.seq, e.pc);
        obs.on_recovery(&RecoveryEvent {
            seq,
            pc,
            cycle: self.now,
            squashed,
            penalty,
        });
    }

    // ---- commit ----------------------------------------------------------

    fn process_commits<S, O>(&mut self, src: &mut S, obs: &mut O)
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        // The head commits in place: it leaves the ring only after its
        // outcome is recorded.
        while self.inflight.front().is_some_and(Inflight::resolved) {
            let head = &self.inflight[0];
            let correct = !head.mispredicted;
            self.predictor
                .update(head.pc, head.actual_taken, &head.pred);
            self.roster
                .train(head.pc, head.ghr_at_predict, &head.pred, correct);
            self.stats.committed_branches += 1;
            if head.mispredicted {
                self.stats.mispredicted_committed += 1;
            }
            let fault = src.commit_fault();
            self.record_outcome(0, true, fault, obs);
            self.inflight.pop_front();
            src.on_commit();
        }
    }

    /// Records the committed or squashed branch at in-flight index `idx`
    /// in the quadrants and streams its outcome; `fault` flips the
    /// *reported* direction only.
    fn record_outcome<O: SimObserver + ?Sized>(
        &mut self,
        idx: usize,
        committed: bool,
        fault: bool,
        obs: &mut O,
    ) {
        let e = &self.inflight[idx];
        let correct = !e.mispredicted;
        if e.mispredicted {
            self.stats.mispredicted_all += 1;
        }
        let estimates = self.roster.record(e.est_slot, correct, committed);
        let actual_taken = e.actual_taken != fault;
        let mispredicted = e.pred.taken != actual_taken;
        obs.on_branch_outcome(&OutcomeEvent {
            seq: e.seq,
            pc: e.pc,
            predicted_taken: e.pred.taken,
            actual_taken,
            mispredicted,
            committed,
            fetch_cycle: e.fetch_cycle,
            resolve_cycle: e.resolve_cycle,
            ghr: e.ghr_at_predict,
            estimates,
        });
    }

    // ---- fetch -----------------------------------------------------------

    /// When gating is enabled and the threshold is met, returns the number
    /// of low-confidence unresolved branches in flight.
    fn gated(&self) -> Option<u32> {
        let threshold = self.cfg.gate_threshold?;
        let lc = self
            .inflight
            .iter()
            .filter(|e| !e.resolved() && e.est0_low)
            .count() as u32;
        (lc >= threshold).then_some(lc)
    }

    fn fetch<S, O>(&mut self, src: &mut S, obs: &mut O)
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        if self.now < self.fetch_stall_until {
            return;
        }
        if let Some(low_confidence) = self.gated() {
            self.stats.gated_cycles += 1;
            obs.on_fetch_gated(&GateEvent {
                cycle: self.now,
                low_confidence,
            });
            return;
        }
        let width = src.fetch_width(self);
        let mut burst_pc = None;
        let arch_before = self.arch_insts;
        // I-cache accesses for a sequential run on one line are batched
        // into a single counter update at the end of the run (fetch is the
        // I-cache's only client, so no access can interleave).
        let mut run_line = NO_LINE;
        let mut run_hits = 0u64;
        for _ in 0..width {
            let Some(next) = src.peek() else {
                break;
            };
            burst_pc.get_or_insert(next.pc);
            let line = self.icache.line_of(next.pc);
            if u64::from(line) == run_line {
                // Repeat access to the most recent line: guaranteed hit
                // (only another access could evict it); account it at the
                // end of the run.
                run_hits += 1;
            } else {
                if run_hits > 0 {
                    self.icache.repeat_hits(run_hits);
                    run_hits = 0;
                }
                let access = self.icache.access(next.pc);
                run_line = u64::from(line);
                if !access.hit {
                    self.fetch_stall_until = self.now + access.latency;
                    break;
                }
            }

            if next.class == TraceClass::CondBranch {
                if self.inflight.len() >= self.cfg.max_unresolved_branches {
                    break;
                }
                if self.fetch_branch(src, next, obs) {
                    break;
                }
            } else if !self.fetch_straightline(src, next) {
                break;
            }
        }
        if run_hits > 0 {
            self.icache.repeat_hits(run_hits);
        }
        // Every fetched instruction bumps `arch_insts` exactly once, and no
        // recovery can run mid-burst.
        let count = (self.arch_insts - arch_before) as u32;
        if count > 0 {
            obs.on_fetch(&FetchEvent {
                cycle: self.now,
                pc: burst_pc.unwrap_or(0),
                count,
            });
        }
    }

    /// Fetches a conditional branch; returns `true` when the fetch group
    /// ends.
    fn fetch_branch<S, O>(&mut self, src: &mut S, peeked: TraceRecord, obs: &mut O) -> bool
    where
        S: FetchSource,
        O: SimObserver + ?Sized,
    {
        let pc = peeked.pc;
        let ghr_val = self.ghr.value();
        let pred = self.predictor.predict(pc, ghr_val);
        // Resolution timing is known at fetch from the scoreboard (branches
        // write no registers). The roster feeds the modeled latency to the
        // estimators that take it before they estimate.
        let resolve_at =
            self.operands_ready(peeked.s1, peeked.s2) + self.cfg.branch_resolve_latency;
        let resolve_latency = resolve_at - self.now;
        // The branch's estimate row is the ring slot it is about to take.
        let est_slot = self.inflight.slot(self.inflight.len()) as u32;
        let est0_low = self
            .roster
            .estimate(est_slot, pc, ghr_val, &pred, resolve_latency);

        let (actual_taken, group_ends) =
            src.take_branch(self, peeked, pred.taken, est0_low, resolve_at);
        let mispredicted = actual_taken != pred.taken;
        let seq = self.branch_seq;
        self.branch_seq += 1;
        self.arch_insts += 1;
        self.arch_branches += 1;
        self.resolve_soonest = self.resolve_soonest.min(resolve_at);

        let estimates = self.roster.row(est_slot);
        obs.on_branch_predicted(&PredictEvent {
            seq,
            pc,
            predicted_taken: pred.taken,
            actual_taken,
            mispredicted,
            cycle: self.now,
            ghr: ghr_val,
            estimates,
        });

        *self.inflight.push_back(resolve_at) = Inflight {
            seq,
            pc,
            pred,
            actual_taken,
            mispredicted,
            ghr_at_predict: ghr_val,
            est_slot,
            est0_low,
            fetch_cycle: self.now,
            resolve_cycle: None,
        };
        group_ends
    }

    /// Fetches a non-branch instruction; returns `false` when the fetch
    /// group ends (control redirect or halt).
    fn fetch_straightline<S: FetchSource>(&mut self, src: &mut S, peeked: TraceRecord) -> bool {
        let rec = src.take(peeked);
        let operands_ready = self.operands_ready(rec.s1, rec.s2);
        self.arch_insts += 1;
        let latency = match rec.class {
            TraceClass::Load => self.dcache.access(rec.target).latency,
            TraceClass::Store => {
                // Stores retire through a store buffer; they cost a D-cache
                // access but do not stall dependents.
                let _ = self.dcache.access(rec.target);
                1
            }
            TraceClass::Alu | TraceClass::Jump | TraceClass::Call | TraceClass::Ret => 1,
            TraceClass::Mul => 3,
            TraceClass::Div => 12,
            // Counted as fetched; ends the group.
            TraceClass::Halt => return false,
            TraceClass::CondBranch => unreachable!("handled before straightline fetch"),
        };
        if (rec.dst as usize) < Reg::COUNT {
            let slot = &mut self.scoreboard[rec.dst as usize];
            let old = std::mem::replace(slot, operands_ready + latency);
            src.scoreboard_written(rec.dst, old);
        }
        !matches!(
            rec.class,
            TraceClass::Jump | TraceClass::Call | TraceClass::Ret
        )
    }

    /// Earliest cycle at which source registers `s1`/`s2` are ready
    /// (`NO_REG` reads an always-zero slot).
    #[inline]
    fn operands_ready(&self, s1: u8, s2: u8) -> u64 {
        let ready = |r: u8| self.scoreboard[r as usize];
        self.now.max(ready(s1)).max(ready(s2))
    }
}
