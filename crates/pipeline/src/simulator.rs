//! The live front end: the speculative pipeline simulator.

use crate::timing::{Core, FetchSource, Peek};
use crate::{NullObserver, PipelineConfig, PipelineStats, SimObserver};
use cestim_bpred::AnyPredictor;
use cestim_core::{AnyEstimator, Confidence};
use cestim_isa::{Checkpoint, Inst, Machine, Program, Step};
use cestim_obs::Registry;
use cestim_trace_io::TraceRecord;
use std::collections::VecDeque;

// Names the unit tests below reach through `use super::*`.
#[cfg(test)]
use crate::{OutcomeEvent, PredictEvent, ResolveEvent};
#[cfg(test)]
use cestim_isa::Reg;

/// What the live front end needs to rewind to an in-flight branch: kept
/// per branch, in lockstep with the core's in-flight window.
#[derive(Debug)]
struct BranchCheckpoint {
    machine: Checkpoint,
    /// Scoreboard undo-log position at fetch (see `LiveFront::sb_undo`).
    sb_mark: u64,
    arch_insts: u64,
    arch_branches: u64,
    /// Eager execution forked both paths of this branch.
    forked: bool,
}

/// The live front end's state besides the machine: the program, the
/// per-branch checkpoints, the scoreboard undo log, trace capture and the
/// commit-fault hook.
struct LiveFront<'p> {
    program: &'p Program,
    /// Each instruction with its record as far as decoding fixes it,
    /// indexed by PC, so fetch never re-decodes (see
    /// [`TraceRecord::decode`]).
    decoded: Vec<(Inst, TraceRecord)>,
    checkpoints: VecDeque<BranchCheckpoint>,
    /// Scoreboard undo log, mirroring the machine's register undo log:
    /// `(register, overwritten ready-cycle)` per scoreboard write. Branch
    /// checkpoints record a position instead of copying the whole
    /// scoreboard; recovery replays the log backwards, commit releases
    /// from the front.
    sb_undo: VecDeque<(u8, u64)>,
    sb_undo_base: u64,
    /// When `Some`, every fetched instruction is appended as a
    /// [`TraceRecord`] and wrong-path records are truncated away on
    /// recovery, so the buffer always holds exactly the architectural
    /// stream (`len == arch_insts`).
    trace_capture: Option<Vec<TraceRecord>>,
    fault_commit_every: u64,
    fault_commit_seen: u64,
}

impl LiveFront<'_> {
    #[inline]
    fn peek(&self, machine: &Machine) -> Option<Peek> {
        if machine.halted() {
            return None;
        }
        let (_, rec) = self.decoded.get(machine.pc() as usize)?;
        Some(Peek::of(rec))
    }

    /// Executes the instruction at the PC (a branch follows `force`, or its
    /// actual direction when `None`) and captures its record.
    #[inline]
    fn take(&mut self, machine: &mut Machine, force: Option<bool>) -> TraceRecord {
        let (inst, decoded) = self.decoded[machine.pc() as usize];
        let rec = decoded.with_step(&machine.step_decoded(inst, force));
        if let Some(buf) = &mut self.trace_capture {
            buf.push(rec);
        }
        rec
    }

    /// Counts a committed branch for the injected commit-stream fault (see
    /// [`Simulator::inject_commit_fault`]); `true` flips its reported
    /// direction.
    fn commit_fault(&mut self) -> bool {
        if self.fault_commit_every == 0 {
            return false;
        }
        self.fault_commit_seen += 1;
        self.fault_commit_seen
            .is_multiple_of(self.fault_commit_every)
    }

    /// Unresolved in-flight branches that eager execution forked.
    fn active_forks(&self, core: &Core) -> u32 {
        core.inflight
            .iter()
            .zip(&self.checkpoints)
            .filter(|(e, cp)| !e.resolved() && cp.forked)
            .count() as u32
    }
}

/// The speculative fetch source: follows every prediction, right or
/// wrong, and rewinds to the branch's checkpoint when it resolves
/// mispredicted.
struct Speculative<'a, 'p> {
    machine: &'a mut Machine,
    front: &'a mut LiveFront<'p>,
}

impl FetchSource for Speculative<'_, '_> {
    #[inline]
    fn peek(&self) -> Option<Peek> {
        self.front.peek(self.machine)
    }

    #[inline]
    fn take(&mut self) -> TraceRecord {
        self.front.take(self.machine, None)
    }

    fn take_branch(
        &mut self,
        core: &mut Core,
        pred: bool,
        est0_low: bool,
        _resolve_at: u64,
    ) -> (bool, bool) {
        // Eager execution: fork both paths of a low-confidence branch
        // (decided by estimator 0) while fork capacity remains.
        let forked = core
            .cfg
            .eager_max_forks
            .is_some_and(|max| est0_low && self.front.active_forks(core) < max);
        if forked {
            core.stats.eager_forks += 1;
        }
        // Checkpoint *before* executing the branch: restoring must land on
        // the branch so the correct direction can be re-executed.
        self.front.checkpoints.push_back(BranchCheckpoint {
            machine: self.machine.checkpoint(),
            sb_mark: self.front.sb_undo_base + self.front.sb_undo.len() as u64,
            arch_insts: core.arch_insts,
            arch_branches: core.arch_branches,
            forked,
        });
        // Follow the prediction, right or wrong.
        let actual = self.front.take(self.machine, Some(pred)).taken;
        core.ghr.push(pred);
        (actual, pred)
    }

    fn fetch_width(&mut self, core: &mut Core) -> u32 {
        // Active eager forks consume half the fetch slots for the
        // alternate paths.
        let mut width = core.cfg.fetch_width;
        if core.cfg.eager_max_forks.is_some() && self.front.active_forks(core) > 0 {
            let alt = width / 2;
            core.stats.eager_alt_slots += alt as u64;
            width -= alt;
        }
        width
    }

    /// Rewinds to the checkpoint of the mispredicted branch at `idx`,
    /// squashing everything younger.
    fn on_mispredict<O: SimObserver + ?Sized>(&mut self, core: &mut Core, idx: usize, obs: &mut O) {
        core.stats.recoveries += 1;
        let squashed = core.squash_after(idx, obs);
        let front = &mut *self.front;
        front.checkpoints.truncate(idx + 1);
        let cp = &front.checkpoints[idx];
        // Wrong-path work after this branch, excluding the branch itself
        // (which commits once re-steered).
        core.stats.squashed_insts += core.arch_insts - (cp.arch_insts + 1);
        core.stats.squashed_branches += core.arch_branches - (cp.arch_branches + 1);
        core.arch_insts = cp.arch_insts + 1;
        core.arch_branches = cp.arch_branches + 1;
        if let Some(buf) = &mut front.trace_capture {
            // Drop the captured wrong-path records; the mispredicted branch
            // itself stays (it commits once re-steered).
            buf.truncate(core.arch_insts as usize);
        }

        // Architectural rewind, then re-execute the branch down its correct
        // direction.
        self.machine.restore(&cp.machine);
        while front.sb_undo_base + front.sb_undo.len() as u64 > cp.sb_mark {
            let (r, old) = front.sb_undo.pop_back().expect("sb undo underflow");
            core.scoreboard[r as usize] = old;
        }
        let e = &core.inflight[idx];
        let actual = e.actual_taken;
        let step = self.machine.step_forced(front.program, actual);
        debug_assert!(matches!(
            step,
            Step::Branch { taken, followed, .. } if taken == actual && followed == actual
        ));

        // Repair the speculative history: outcomes up to the branch, then
        // the branch's actual direction.
        core.ghr.set(e.ghr_at_predict);
        core.ghr.push(actual);

        // Flush: fetch resumes after the extra recovery penalty — unless
        // this branch had an eager fork, in which case the alternate path
        // is already warm and the re-steer is free.
        let penalty = if cp.forked {
            core.stats.eager_covered += 1;
            0
        } else {
            core.fetch_stall_until = core
                .fetch_stall_until
                .max(core.now + 1 + core.cfg.mispredict_penalty);
            core.cfg.mispredict_penalty
        };
        core.emit_recovery(idx, squashed, penalty, obs);
    }

    fn on_commit(&mut self) {
        let front = &mut *self.front;
        let cp = front
            .checkpoints
            .pop_front()
            .expect("checkpoint per branch");
        // The oldest checkpoint is gone; undo entries older than it can
        // never be needed again. Dropped in one bulk drain — commit is
        // on the per-branch hot path and the entry type is trivial.
        let n = (cp.sb_mark.saturating_sub(front.sb_undo_base) as usize).min(front.sb_undo.len());
        if n > 0 {
            front.sb_undo.drain(..n);
            front.sb_undo_base += n as u64;
        }
        self.machine.release(&cp.machine);
    }

    fn commit_fault(&mut self) -> bool {
        self.front.commit_fault()
    }

    fn scoreboard_written(&mut self, reg: u8, old: u64) {
        self.front.sb_undo.push_back((reg, old));
    }
}

/// The replay fetch source: the interpreter follows the actual path and
/// feeds its records to the core's replay stall policy (the trait
/// defaults), exactly as [`TraceSimulator`](crate::TraceSimulator) feeds
/// an imported trace.
struct Replaying<'a, 'p> {
    machine: &'a mut Machine,
    front: &'a mut LiveFront<'p>,
}

impl FetchSource for Replaying<'_, '_> {
    #[inline]
    fn peek(&self) -> Option<Peek> {
        self.front.peek(self.machine)
    }

    #[inline]
    fn take(&mut self) -> TraceRecord {
        self.front.take(self.machine, None)
    }

    fn on_commit(&mut self) {
        // Nothing is ever rewound: drop the machine's undo history.
        let now = self.machine.checkpoint();
        self.machine.release(&now);
    }

    fn commit_fault(&mut self) -> bool {
        self.front.commit_fault()
    }
}

/// Pipeline-level simulator with wrong-path execution.
///
/// The model is the measurement vehicle of the paper: a 5-stage,
/// `fetch_width`-wide pipeline in which
///
/// * instructions execute architecturally at decode (so the true outcome of
///   every branch — even a wrong-path one — is known immediately, exactly
///   like the paper's "speculative trace"),
/// * every predicted conditional branch takes a full checkpoint and the
///   machine *follows the prediction*, right or wrong,
/// * branches resolve when their operands are ready (register scoreboard;
///   loads add D-cache latency), so resolution is out of order and takes a
///   variable number of cycles — the effect behind the paper's "perceived"
///   misprediction distance (Figs 8–9),
/// * a resolving misprediction rewinds the machine to its checkpoint,
///   squashes younger work, repairs the speculative global history, and
///   charges the configured extra penalty; wrong-path branches can
///   themselves mispredict and recover (nested recovery),
/// * predictor and estimator tables train at commit, in program order;
///   estimators additionally hear every *resolution* via
///   [`ConfidenceEstimator::on_branch_resolved`].
///
/// The timing model itself is the crate's shared core, the one
/// [`TraceSimulator`](crate::TraceSimulator) also runs; this type is its
/// live front end (interpreter, checkpoints, wrong-path fetch, recovery,
/// eager forks, trace capture).
///
/// Any number of confidence estimators can be attached
/// ([`Simulator::add_estimator`]); each is queried at every branch fetch and
/// gets its own all/committed [`EstimatorQuadrants`](crate::EstimatorQuadrants)
/// — one pipeline pass evaluates a whole sweep of estimator configurations.
///
/// # Example
///
/// ```
/// use cestim_bpred::Gshare;
/// use cestim_core::Jrs;
/// use cestim_isa::{ProgramBuilder, Reg};
/// use cestim_pipeline::{PipelineConfig, Simulator};
///
/// # fn main() -> Result<(), cestim_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// b.li(Reg::T0, 0);
/// b.li(Reg::T1, 1000);
/// let top = b.label();
/// b.bind(top);
/// b.addi(Reg::T0, Reg::T0, 1);
/// b.blt(Reg::T0, Reg::T1, top);
/// b.halt();
/// let prog = b.build()?;
///
/// let mut sim = Simulator::new(&prog, PipelineConfig::paper(), Gshare::new(12));
/// sim.add_estimator(Jrs::paper_enhanced());
/// let stats = sim.run_to_completion();
/// assert_eq!(stats.committed_branches, 1000);
/// assert!(stats.fetched_insts >= stats.committed_insts);
/// # Ok(())
/// # }
/// ```
///
/// [`ConfidenceEstimator::on_branch_resolved`]: cestim_core::ConfidenceEstimator::on_branch_resolved
pub struct Simulator<'p> {
    core: Core,
    machine: Machine,
    front: LiveFront<'p>,
    /// Replay fetch mode (see [`Simulator::set_replay_fetch`]).
    replay_fetch: bool,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator over `program` with the given predictor.
    ///
    /// Accepts a concrete predictor (`Gshare::new(12)`) or an
    /// [`AnyPredictor`].
    ///
    /// # Panics
    ///
    /// Panics if `cfg.fetch_width == 0`, `cfg.max_unresolved_branches == 0`,
    /// or `cfg.gate_threshold == Some(0)` (which would gate fetch forever).
    pub fn new(
        program: &'p Program,
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> Simulator<'p> {
        let window = cfg.max_unresolved_branches;
        Simulator {
            core: Core::new(cfg, predictor.into()),
            machine: Machine::new(program),
            front: LiveFront {
                program,
                decoded: (0..program.len() as u32)
                    .map(|pc| {
                        let inst = *program.inst(pc).expect("pc in range");
                        (inst, TraceRecord::decode(pc, &inst))
                    })
                    .collect(),
                checkpoints: VecDeque::with_capacity(window),
                sb_undo: VecDeque::new(),
                sb_undo_base: 0,
                trace_capture: None,
                fault_commit_every: 0,
                fault_commit_seen: 0,
            },
            replay_fetch: false,
        }
    }

    /// Switches the front end into *replay* fetch mode, the reference
    /// semantics for trace replay: the interpreter follows the **actual**
    /// path and feeds the same replay stall policy that
    /// [`TraceSimulator`](crate::TraceSimulator) applies to an imported
    /// trace (see its docs). Nothing is squashed — a misprediction
    /// stalls fetch until the cycle a live recovery would resume at — so
    /// committed-stream statistics, committed quadrants, and estimator
    /// training match the normal mode, while the all-branches population
    /// collapses onto the committed one.
    ///
    /// # Panics
    ///
    /// Panics if eager execution is configured (forking both paths
    /// contradicts not fetching wrong paths) or branches are in flight.
    pub fn set_replay_fetch(&mut self, on: bool) {
        assert!(
            !(on && self.core.cfg.eager_max_forks.is_some()),
            "replay fetch mode is incompatible with eager execution"
        );
        assert!(
            self.core.inflight.is_empty(),
            "switch fetch modes before branches are in flight"
        );
        self.replay_fetch = on;
    }

    /// Enables (or disables) trace capture: every *architectural*
    /// instruction fetched from now on is recorded as a [`TraceRecord`];
    /// wrong-path work is truncated away at recovery, so after a completed
    /// run the buffer is exactly the committed stream — byte-for-byte what
    /// [`cestim_trace_io::export_program`] produces for the same program.
    pub fn set_trace_capture(&mut self, on: bool) {
        self.front.trace_capture = on.then(Vec::new);
    }

    /// Takes the captured trace, leaving capture disabled.
    pub fn take_captured_trace(&mut self) -> Vec<TraceRecord> {
        self.front.trace_capture.take().unwrap_or_default()
    }

    /// Test-support hook: corrupt the *reported* outcome of every
    /// `every`-th committed branch (its `actual_taken` direction is flipped
    /// in the observer/trace commit stream, while architectural state,
    /// statistics and training stay untouched). `0` disables the fault.
    ///
    /// This simulates a commit-stream bug for the differential-testing
    /// harness in `cestim-qa`: oracle 1 (interpreter vs. pipeline commit
    /// stream) must catch it and shrink the triggering program. The hook is
    /// only ever enabled explicitly — by QA tooling, typically behind the
    /// `CESTIM_QA_FAULT` environment variable — and has zero cost when off.
    #[doc(hidden)]
    pub fn inject_commit_fault(&mut self, every: u64) {
        self.front.fault_commit_every = every;
        self.front.fault_commit_seen = 0;
    }

    /// Exports the run's statistics and per-estimator quadrants into
    /// `registry` under the given base labels. Call after the
    /// run completes (counters like `pipeline.cycles` are finalized by
    /// [`run`](Simulator::run) / [`finish`](Simulator::finish)).
    pub fn export_metrics(&self, registry: &Registry, labels: &[(&str, &str)]) {
        let s = &self.core.stats;
        for (name, v) in [
            ("pipeline.cycles", s.cycles),
            ("pipeline.fetched_insts", s.fetched_insts),
            ("pipeline.committed_insts", s.committed_insts),
            ("pipeline.squashed_insts", s.squashed_insts),
            ("pipeline.fetched_branches", s.fetched_branches),
            ("pipeline.committed_branches", s.committed_branches),
            ("pipeline.squashed_branches", s.squashed_branches),
            ("pipeline.mispredicted_committed", s.mispredicted_committed),
            ("pipeline.mispredicted_all", s.mispredicted_all),
            ("pipeline.recoveries", s.recoveries),
            ("pipeline.gated_cycles", s.gated_cycles),
            ("pipeline.icache_accesses", s.icache_accesses),
            ("pipeline.icache_misses", s.icache_misses),
            ("pipeline.dcache_accesses", s.dcache_accesses),
            ("pipeline.dcache_misses", s.dcache_misses),
        ] {
            registry.counter(name, labels).set(v);
        }
        for (name, v) in [
            ("pipeline.ipc", s.ipc()),
            ("pipeline.accuracy_committed", s.accuracy_committed()),
            (
                "pipeline.mispredict_rate_committed",
                s.mispredict_rate_committed(),
            ),
            ("pipeline.icache_miss_rate", s.icache_miss_rate()),
            ("pipeline.speculation_ratio", s.speculation_ratio()),
        ] {
            registry.float_gauge(name, labels).set(v);
        }
        let names = self.estimator_names();
        for (name, q) in names.iter().zip(self.core.roster.quadrants()) {
            for (population, quad) in [("all", &q.all), ("committed", &q.committed)] {
                for (cell, v) in [
                    ("c_hc", quad.c_hc),
                    ("i_hc", quad.i_hc),
                    ("c_lc", quad.c_lc),
                    ("i_lc", quad.i_lc),
                ] {
                    let mut l = labels.to_vec();
                    l.push(("estimator", name.as_str()));
                    l.push(("population", population));
                    l.push(("cell", cell));
                    registry.counter("estimator.quadrant", &l).set(v);
                }
            }
        }
    }

    /// Attaches a confidence estimator; returns its index (the order of
    /// [`estimator_quadrants`](Simulator::estimator_quadrants) and of the
    /// `estimates` slices in events). Estimator 0 drives pipeline gating
    /// when enabled.
    ///
    /// Accepts a concrete estimator (`Jrs::paper_enhanced()`) or an
    /// [`AnyEstimator`].
    ///
    /// # Panics
    ///
    /// Panics if branches are already in flight (attach all estimators
    /// before running).
    pub fn add_estimator(&mut self, estimator: impl Into<AnyEstimator>) -> usize {
        self.core.add_estimator(estimator.into())
    }

    /// Names of the attached estimators, in index order (computed once at
    /// [`add_estimator`](Simulator::add_estimator) time).
    pub fn estimator_names(&self) -> &[String] {
        self.core.roster.labels()
    }

    /// Per-estimator quadrants accumulated so far.
    pub fn estimator_quadrants(&self) -> &[crate::EstimatorQuadrants] {
        self.core.roster.quadrants()
    }

    /// Statistics accumulated so far (finalized counts only after the run
    /// completes).
    pub fn stats(&self) -> &PipelineStats {
        &self.core.stats
    }

    /// Runs to completion with no observer.
    pub fn run_to_completion(&mut self) -> PipelineStats {
        self.run(&mut NullObserver)
    }

    /// Runs to completion (program halt with an empty pipeline, or
    /// `max_cycles`), streaming events to `obs`. Returns the final stats.
    ///
    /// If a cooperative deadline is armed on this thread
    /// ([`cestim_obs::cancel::arm`]), the run polls it and abandons an
    /// overdue job via [`cestim_obs::cancel::fire`] (see the shared core's
    /// run loop).
    pub fn run<O: SimObserver + ?Sized>(&mut self, obs: &mut O) -> PipelineStats {
        let (machine, front) = (&mut self.machine, &mut self.front);
        if self.replay_fetch {
            self.core.run(&mut Replaying { machine, front }, obs)
        } else {
            self.core.run(&mut Speculative { machine, front }, obs)
        }
    }

    /// `true` once the architectural program has finished and the pipeline
    /// has drained.
    pub fn done(&self) -> bool {
        self.core.inflight.is_empty() && self.front.peek(&self.machine).is_none()
    }

    /// Advances the pipeline by one cycle, fetching only when `allow_fetch`
    /// is true. Resolution, recovery, and commit always proceed.
    ///
    /// This is the building block for multi-threaded front-ends: an
    /// arbiter (e.g. [`SmtSimulator`](crate::SmtSimulator)) grants the
    /// shared fetch bandwidth to one thread per cycle, while every
    /// thread's back end keeps draining.
    pub fn step_cycle<O: SimObserver + ?Sized>(&mut self, allow_fetch: bool, obs: &mut O) {
        let (machine, front) = (&mut self.machine, &mut self.front);
        if self.replay_fetch {
            self.core
                .step(&mut Replaying { machine, front }, allow_fetch, obs);
        } else {
            self.core
                .step(&mut Speculative { machine, front }, allow_fetch, obs);
        }
    }

    /// Finalizes and returns the statistics without requiring
    /// [`run`](Simulator::run) (for externally driven cycling).
    pub fn finish(&mut self) -> PipelineStats {
        self.core.finish()
    }

    /// Number of fetched-but-unresolved branches currently in flight.
    pub fn outstanding_branches(&self) -> usize {
        self.core.inflight.iter().filter(|e| !e.resolved()).count()
    }

    /// Number of in-flight unresolved branches whose estimate from the
    /// estimator at `index` was low confidence.
    pub fn outstanding_low_confidence(&self, index: usize) -> usize {
        self.core
            .inflight
            .iter()
            .filter(|e| {
                !e.resolved()
                    && self
                        .core
                        .roster
                        .row(e.est_slot)
                        .get(index)
                        .is_some_and(|c| c.is_low())
            })
            .count()
    }

    /// The estimate (from estimator `index`) of the most recently fetched
    /// branch, if any branch is still in flight.
    pub fn last_estimate(&self, index: usize) -> Option<Confidence> {
        self.core
            .inflight
            .back()
            .and_then(|e| self.core.roster.row(e.est_slot).get(index))
            .copied()
    }

    /// Current simulated cycle of this pipeline.
    pub fn now(&self) -> u64 {
        self.core.now
    }

    #[cfg(test)]
    fn active_forks(&self) -> u32 {
        self.front.active_forks(&self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_bpred::{Bimodal, Gshare};
    use cestim_core::{AlwaysLow, DistanceEstimator, Jrs, SaturatingConfidence};
    use cestim_isa::ProgramBuilder;

    /// A counted loop: N-1 taken + 1 not-taken branch at the same site.
    fn counted_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    /// A data-dependent branch stream: branch on an LCG bit each iteration.
    fn noisy_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 12345); // lcg state
        b.li(Reg::T0, 0);
        b.li(Reg::T1, n);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.muli(Reg::S0, Reg::S0, 1664525);
        b.addi(Reg::S0, Reg::S0, 1013904223);
        b.srli(Reg::T2, Reg::S0, 19);
        b.andi(Reg::T2, Reg::T2, 1);
        b.beqz(Reg::T2, skip);
        b.addi(Reg::T3, Reg::T3, 1);
        b.bind(skip);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        b.build().unwrap()
    }

    fn sim<'p>(p: &'p Program) -> Simulator<'p> {
        Simulator::new(p, PipelineConfig::paper(), Gshare::new(12))
    }

    #[test]
    fn committed_counts_match_functional_execution() {
        let p = counted_loop(500);
        // Functional reference.
        let mut m = Machine::new(&p);
        let reference = m.run(&p, 1_000_000);
        // Pipeline.
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        // `run` does not count the halt instruction; the pipeline counts the
        // fetched halt. Allow that off-by-one.
        assert_eq!(stats.committed_insts, reference + 1);
        assert_eq!(stats.committed_branches, 500);
        assert_eq!(
            stats.fetched_insts,
            stats.committed_insts + stats.squashed_insts
        );
        assert_eq!(
            stats.fetched_branches,
            stats.committed_branches + stats.squashed_branches
        );
    }

    #[test]
    fn loop_branch_is_learned() {
        let p = counted_loop(2000);
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        // One cold/exit misprediction region; accuracy near 1.
        assert!(
            stats.accuracy_committed() > 0.99,
            "accuracy {}",
            stats.accuracy_committed()
        );
        assert!(stats.recoveries >= 1, "loop exit must mispredict");
    }

    #[test]
    fn wrong_path_work_is_fetched_and_squashed() {
        let p = noisy_loop(2000);
        let mut s = sim(&p);
        let stats = s.run_to_completion();
        assert!(
            stats.squashed_insts > 0,
            "random branch must cause squashes"
        );
        assert!(stats.speculation_ratio() > 1.0);
        assert!(
            stats.mispredicted_committed > 100,
            "LCG branch is unpredictable, got {}",
            stats.mispredicted_committed
        );
    }

    #[test]
    fn architectural_results_are_unaffected_by_speculation() {
        // The pipeline must compute exactly what the pure interpreter does.
        let p = noisy_loop(300);
        let mut m = Machine::new(&p);
        m.run(&p, 1_000_000);
        let t3_ref = m.reg(Reg::T3);

        let mut s = sim(&p);
        s.run_to_completion();
        assert_eq!(s.machine.reg(Reg::T3), t3_ref);
        assert!(s.machine.halted());
    }

    #[test]
    fn estimator_quadrants_cover_all_branches() {
        let p = noisy_loop(1000);
        let mut s = sim(&p);
        s.add_estimator(Jrs::paper_enhanced());
        s.add_estimator(SaturatingConfidence::selected());
        let stats = s.run_to_completion();
        for q in s.estimator_quadrants() {
            assert_eq!(q.all.total(), stats.fetched_branches);
            assert_eq!(q.committed.total(), stats.committed_branches);
        }
    }

    #[test]
    fn always_low_estimator_has_unit_spec() {
        let p = noisy_loop(500);
        let mut s = sim(&p);
        s.add_estimator(AlwaysLow);
        s.run_to_completion();
        let q = s.estimator_quadrants()[0];
        assert_eq!(q.committed.spec(), 1.0);
        assert!((q.committed.pvn() - q.committed.misprediction_rate()).abs() < 1e-12);
    }

    #[test]
    fn distance_estimator_receives_resolutions() {
        let p = noisy_loop(500);
        let mut s = sim(&p);
        s.add_estimator(DistanceEstimator::new(2));
        s.run_to_completion();
        let q = s.estimator_quadrants()[0];
        // Both confidence classes must be populated: resolutions reset the
        // counter, correct runs push it up.
        assert!(q.committed.c_hc + q.committed.i_hc > 0, "some HC");
        assert!(q.committed.c_lc + q.committed.i_lc > 0, "some LC");
    }

    #[test]
    fn deterministic_across_runs() {
        let p = noisy_loop(800);
        let run = || {
            let mut s = sim(&p);
            s.add_estimator(Jrs::paper_enhanced());
            let st = s.run_to_completion();
            (st, s.estimator_quadrants()[0])
        };
        let (s1, q1) = run();
        let (s2, q2) = run();
        assert_eq!(s1, s2);
        assert_eq!(q1, q2);
    }

    #[test]
    fn bimodal_predictor_works_too() {
        let p = counted_loop(300);
        let mut s = Simulator::new(&p, PipelineConfig::paper(), Bimodal::new(10));
        let stats = s.run_to_completion();
        assert_eq!(stats.committed_branches, 300);
        assert!(stats.accuracy_committed() > 0.97);
    }

    #[test]
    fn gating_reduces_wrong_path_work() {
        let p = noisy_loop(2000);
        let mut base = sim(&p);
        base.add_estimator(SaturatingConfidence::selected());
        let b = base.run_to_completion();

        let mut gated = Simulator::new(&p, PipelineConfig::paper().with_gating(1), Gshare::new(12));
        gated.add_estimator(SaturatingConfidence::selected());
        let g = gated.run_to_completion();

        assert_eq!(
            g.committed_insts, b.committed_insts,
            "gating must not change architectural work"
        );
        assert!(g.gated_cycles > 0);
        assert!(
            g.squashed_insts < b.squashed_insts,
            "gating should cut wrong-path work: {} vs {}",
            g.squashed_insts,
            b.squashed_insts
        );
    }

    #[test]
    fn eager_execution_waives_covered_penalties() {
        let p = noisy_loop(3000);
        let mk = |cfg: PipelineConfig| {
            let mut s = Simulator::new(&p, cfg, Gshare::new(12));
            s.add_estimator(SaturatingConfidence::selected());
            s
        };
        let base = mk(PipelineConfig::paper()).run_to_completion();
        let eager = mk(PipelineConfig::paper().with_eager(1)).run_to_completion();

        assert_eq!(
            eager.committed_insts, base.committed_insts,
            "eager execution must not change architectural work"
        );
        assert!(eager.eager_forks > 100, "forks {}", eager.eager_forks);
        assert!(
            eager.eager_covered > 0 && eager.eager_covered <= eager.eager_forks,
            "covered {} of {}",
            eager.eager_covered,
            eager.eager_forks
        );
        assert!(eager.eager_alt_slots > 0);
        // Covered mispredictions skip the +3 penalty; with a noisy branch
        // the cycle count should not regress catastrophically and usually
        // improves. Allow slack for the halved fetch width.
        assert!(
            (eager.cycles as f64) < base.cycles as f64 * 1.10,
            "eager {} vs base {}",
            eager.cycles,
            base.cycles
        );
    }

    #[test]
    fn eager_fork_capacity_is_respected() {
        let p = noisy_loop(1000);
        let mut s = Simulator::new(&p, PipelineConfig::paper().with_eager(1), Gshare::new(12));
        s.add_estimator(SaturatingConfidence::selected());
        // Run manually and check the invariant each cycle.
        while !s.done() {
            s.step_cycle(true, &mut cestim_pipeline_null());
            assert!(s.active_forks() <= 1);
        }
    }

    fn cestim_pipeline_null() -> crate::NullObserver {
        crate::NullObserver
    }

    #[test]
    fn observer_sees_consistent_event_stream() {
        #[derive(Default)]
        struct Check {
            predicted: u64,
            resolved: u64,
            outcomes: u64,
            committed: u64,
            out_of_order_resolutions: u64,
            last_resolved_seq: Option<u64>,
        }
        impl SimObserver for Check {
            fn on_branch_predicted(&mut self, _: &PredictEvent<'_>) {
                self.predicted += 1;
            }
            fn on_branch_resolved(&mut self, ev: &ResolveEvent) {
                if let Some(prev) = self.last_resolved_seq {
                    if ev.seq < prev {
                        self.out_of_order_resolutions += 1;
                    }
                }
                self.last_resolved_seq = Some(ev.seq);
                self.resolved += 1;
            }
            fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
                self.outcomes += 1;
                self.committed += ev.committed as u64;
            }
        }

        let p = noisy_loop(1500);
        let mut s = sim(&p);
        let mut chk = Check::default();
        let stats = s.run(&mut chk);
        assert_eq!(chk.predicted, stats.fetched_branches);
        assert_eq!(chk.outcomes, stats.fetched_branches);
        assert_eq!(chk.committed, stats.committed_branches);
        assert!(chk.resolved <= chk.predicted);
        assert!(
            chk.resolved >= stats.committed_branches,
            "committed implies resolved"
        );
    }

    #[test]
    fn injected_commit_fault_flips_only_the_reported_stream() {
        #[derive(Default)]
        struct Directions(Vec<bool>);
        impl SimObserver for Directions {
            fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
                if ev.committed {
                    self.0.push(ev.actual_taken);
                }
            }
        }
        let p = counted_loop(100);
        let mut clean = sim(&p);
        let mut c = Directions::default();
        let clean_stats = clean.run(&mut c);

        let mut faulty = sim(&p);
        faulty.inject_commit_fault(10);
        let mut f = Directions::default();
        let faulty_stats = faulty.run(&mut f);

        // Architectural statistics are untouched; only the observer-visible
        // commit stream diverges, on exactly every 10th committed branch.
        assert_eq!(clean_stats, faulty_stats);
        assert_eq!(c.0.len(), f.0.len());
        let flips = c.0.iter().zip(&f.0).filter(|(a, b)| a != b).count();
        assert_eq!(flips, c.0.len() / 10);
    }

    #[test]
    fn max_cycles_bounds_runaway_programs() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.j(top); // infinite loop
        let p = b.build().unwrap();
        let mut cfg = PipelineConfig::paper();
        cfg.max_cycles = 1000;
        let mut s = Simulator::new(&p, cfg, Gshare::new(10));
        let stats = s.run_to_completion();
        assert_eq!(stats.cycles, 1000);
    }

    #[test]
    fn cooperative_cancel_abandons_an_overdue_run() {
        use std::time::{Duration, Instant};
        // An infinite loop bounded only by a huge max_cycles: without
        // cancellation this would spin for a very long time.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.j(top);
        let p = b.build().unwrap();
        let mut cfg = PipelineConfig::paper();
        cfg.max_cycles = u64::MAX;
        let mut s = Simulator::new(&p, cfg, Gshare::new(10));
        // Deadline already expired: the first poll window must fire.
        let _g = cestim_obs::cancel::arm(Instant::now() - Duration::from_millis(1), 1024);
        let t0 = Instant::now();
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.run_to_completion()))
                .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap();
        assert!(cestim_obs::cancel::is_cancel_panic(&msg), "{msg}");
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "cancel must fire promptly"
        );
    }

    #[test]
    fn unarmed_runs_are_unaffected_by_the_cancel_poll() {
        let p = counted_loop(50);
        let mut a = sim(&p);
        let sa = a.run_to_completion();
        let _g = cestim_obs::cancel::arm(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
            1,
        );
        let mut b = sim(&p);
        let sb = b.run_to_completion();
        assert_eq!(sa, sb, "an unexpired token must not perturb the run");
    }

    #[test]
    #[should_panic(expected = "stall fetch forever")]
    fn zero_gate_threshold_rejected() {
        let p = counted_loop(1);
        let _ = Simulator::new(&p, PipelineConfig::paper().with_gating(0), Gshare::new(10));
    }
}
