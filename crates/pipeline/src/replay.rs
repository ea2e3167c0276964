//! The trace front end: [`TraceSimulator`], the crate's timing core fed by
//! an imported `&[TraceRecord]`.

use crate::timing::{Core, FetchSource, Peek};
use crate::{EstimatorQuadrants, NullObserver, PipelineConfig, PipelineStats, SimObserver};
use cestim_bpred::AnyPredictor;
use cestim_core::AnyEstimator;
use cestim_trace_io::TraceRecord;

// Named by the unit tests below through `use super::*`.
#[cfg(test)]
use cestim_isa::Reg;
#[cfg(test)]
use cestim_trace_io::TraceClass;

/// The fetch source over an imported trace: a cursor into the records.
struct TraceFetch<'t> {
    records: &'t [TraceRecord],
    cursor: usize,
}

impl FetchSource for TraceFetch<'_> {
    #[inline]
    fn peek(&self) -> Option<Peek> {
        self.records.get(self.cursor).map(Peek::of)
    }

    #[inline]
    fn take(&mut self) -> TraceRecord {
        let rec = self.records[self.cursor];
        self.cursor += 1;
        rec
    }
}

/// Replays a branch trace through the pipeline timing model.
///
/// The trace ([`TraceRecord`] stream) is re-timed by the crate's one timing
/// core, driving the same predictors and confidence estimators as the live
/// [`Simulator`](crate::Simulator). The core has two fetch sources: the
/// live interpreter and this one, which walks the records and never touches
/// an interpreter, checkpoints, or undo logs. The trace and the live
/// simulator's *replay fetch mode* feed the same replay stall policy, so
/// they agree by construction; the independence still under test is the
/// trace itself — the interpreter exporter versus the live simulator's
/// fetch-time capture hook — and the conformance suite in the workspace
/// root pins replayed imports to live replay bit for bit.
///
/// Replay semantics:
///
/// * fetch walks the trace — the actual path — with the live front end's
///   I-cache line batching, fetch width, speculation window, and
///   confidence gating;
/// * every conditional branch is predicted and confidence-estimated with
///   the actual outcome pushed into the speculative history at fetch;
/// * branches resolve out of order when their recorded source operands are
///   ready (register scoreboard; loads add D-cache latency at the recorded
///   address); a misprediction stalls fetch until
///   `resolve + 1 + mispredict_penalty` and counts a recovery with zero
///   squashed work;
/// * predictors and estimators train at commit, in trace order, exactly as
///   live.
///
/// Eager execution is not supported (there is no wrong path to fork
/// down); gating is.
pub struct TraceSimulator<'t> {
    core: Core,
    trace: TraceFetch<'t>,
}

impl<'t> TraceSimulator<'t> {
    /// Creates a replay over `records` with the given predictor.
    ///
    /// # Panics
    ///
    /// Panics on the same degenerate configurations as the live simulator
    /// (`fetch_width == 0`, empty speculation window, gate threshold 0) and
    /// if eager execution is configured.
    pub fn new(
        records: &'t [TraceRecord],
        cfg: PipelineConfig,
        predictor: impl Into<AnyPredictor>,
    ) -> TraceSimulator<'t> {
        assert!(
            cfg.eager_max_forks.is_none(),
            "trace replay cannot fork wrong paths (eager execution)"
        );
        TraceSimulator {
            core: Core::new(cfg, predictor.into()),
            trace: TraceFetch { records, cursor: 0 },
        }
    }

    /// Attaches a confidence estimator; same contract as
    /// [`Simulator::add_estimator`](crate::Simulator::add_estimator)
    /// (estimator 0 drives gating).
    ///
    /// # Panics
    ///
    /// Panics if branches are already in flight.
    pub fn add_estimator(&mut self, estimator: impl Into<AnyEstimator>) -> usize {
        self.core.add_estimator(estimator.into())
    }

    /// Names of the attached estimators, in index order.
    pub fn estimator_names(&self) -> &[String] {
        self.core.roster.labels()
    }

    /// Per-estimator quadrants accumulated so far.
    pub fn estimator_quadrants(&self) -> &[EstimatorQuadrants] {
        self.core.roster.quadrants()
    }

    /// Statistics accumulated so far (finalized only after the run).
    pub fn stats(&self) -> &PipelineStats {
        &self.core.stats
    }

    /// Runs to completion with no observer.
    pub fn run_to_completion(&mut self) -> PipelineStats {
        self.run(&mut NullObserver)
    }

    /// Replays the whole trace (or up to `max_cycles`), streaming events to
    /// `obs`. Returns the final stats. Honours a cooperative deadline armed
    /// on this thread exactly like [`Simulator::run`](crate::Simulator::run).
    pub fn run<O: SimObserver + ?Sized>(&mut self, obs: &mut O) -> PipelineStats {
        self.core.run(&mut self.trace, obs)
    }

    /// `true` once the trace is exhausted and the pipeline has drained.
    pub fn done(&self) -> bool {
        self.core.done(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use cestim_bpred::Gshare;
    use cestim_core::{Jrs, SaturatingConfidence};
    use cestim_isa::{Program, ProgramBuilder};
    use cestim_trace_io::export_program;

    fn noisy_loop(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.li(Reg::S0, 12345);
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

    fn replay_pair(p: &Program, cfg: PipelineConfig) -> (PipelineStats, PipelineStats) {
        let trace = export_program(p, 10_000_000).unwrap();
        let mut live = Simulator::new(p, cfg.clone(), Gshare::new(12));
        live.set_replay_fetch(true);
        live.add_estimator(Jrs::paper_enhanced());
        live.add_estimator(SaturatingConfidence::selected());
        let live_stats = live.run_to_completion();

        let mut replay = TraceSimulator::new(&trace, cfg, Gshare::new(12));
        replay.add_estimator(Jrs::paper_enhanced());
        replay.add_estimator(SaturatingConfidence::selected());
        let replay_stats = replay.run_to_completion();

        assert_eq!(live.estimator_quadrants(), replay.estimator_quadrants());
        (live_stats, replay_stats)
    }

    #[test]
    fn replay_matches_replay_mode_live_bit_for_bit() {
        let p = noisy_loop(2000);
        let (live, replay) = replay_pair(&p, PipelineConfig::paper());
        assert_eq!(live, replay);
        assert!(replay.recoveries > 100, "noisy branch must mispredict");
        assert_eq!(replay.squashed_insts, 0);
        assert_eq!(replay.fetched_insts, replay.committed_insts);
    }

    #[test]
    fn replay_matches_gated_replay_mode_live() {
        let p = noisy_loop(1500);
        let (live, replay) = replay_pair(&p, PipelineConfig::paper().with_gating(1));
        assert_eq!(live, replay);
        assert!(replay.gated_cycles > 0, "gating must engage");
    }

    #[test]
    fn replay_commits_the_architectural_stream() {
        let p = noisy_loop(500);
        let trace = export_program(&p, 10_000_000).unwrap();
        let mut replay = TraceSimulator::new(&trace, PipelineConfig::paper(), Gshare::new(12));
        let stats = replay.run_to_completion();
        assert_eq!(stats.committed_insts, trace.len() as u64);
        assert_eq!(
            stats.committed_branches,
            trace
                .iter()
                .filter(|r| r.class == TraceClass::CondBranch)
                .count() as u64
        );
        assert_eq!(stats.mispredicted_all, stats.mispredicted_committed);
    }

    #[test]
    fn truncated_traces_replay_without_a_halt() {
        let p = noisy_loop(500);
        let trace = export_program(&p, 10_000_000).unwrap();
        let cut = &trace[..trace.len() / 2];
        let mut replay = TraceSimulator::new(cut, PipelineConfig::paper(), Gshare::new(12));
        let stats = replay.run_to_completion();
        assert_eq!(stats.committed_insts, cut.len() as u64);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn capture_hook_matches_interpreter_export() {
        // The simulator-hooked exporter (fetch-time push + rewind-time
        // truncate) and the interpreter-driven exporter are independent
        // implementations; they must emit the identical record stream even
        // when recoveries rewind the capture buffer.
        let p = noisy_loop(800);
        let mut live = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
        live.set_trace_capture(true);
        let stats = live.run_to_completion();
        assert!(stats.recoveries > 0, "capture must survive rewinds");
        let captured = live.take_captured_trace();
        assert_eq!(captured, export_program(&p, 10_000_000).unwrap());
        assert_eq!(captured.len(), stats.committed_insts as usize);
    }

    #[test]
    fn replay_mode_preserves_the_committed_population() {
        // Wrong-path branches only ever see wrong-path GHR bits, so for the
        // committed stream, normal (squash) mode and replay (stall) mode
        // feed predictors and estimators identical inputs in identical
        // order: the committed-population results must agree exactly.
        let p = noisy_loop(1500);
        let run = |replay: bool| {
            let mut sim = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
            sim.set_replay_fetch(replay);
            sim.add_estimator(Jrs::paper_enhanced());
            sim.add_estimator(SaturatingConfidence::selected());
            let stats = sim.run_to_completion();
            let quads = sim.estimator_quadrants().to_vec();
            (stats, quads)
        };
        let (normal, nq) = run(false);
        let (replay, rq) = run(true);
        assert_eq!(normal.committed_insts, replay.committed_insts);
        assert_eq!(normal.committed_branches, replay.committed_branches);
        assert_eq!(normal.mispredicted_committed, replay.mispredicted_committed);
        for (n, r) in nq.iter().zip(&rq) {
            assert_eq!(n.committed, r.committed);
        }
        // The replay never fetches a wrong path.
        assert_eq!(replay.squashed_insts, 0);
        assert!(normal.squashed_insts > 0);
    }

    #[test]
    fn cooperative_cancel_abandons_an_overdue_replay() {
        use std::time::{Duration, Instant};
        let p = noisy_loop(100_000);
        let trace = export_program(&p, 100_000_000).unwrap();
        let mut replay = TraceSimulator::new(&trace, PipelineConfig::paper(), Gshare::new(12));
        // Deadline already expired: the first poll window must fire.
        let _g = cestim_obs::cancel::arm(Instant::now() - Duration::from_millis(1), 1024);
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| replay.run_to_completion()))
                .unwrap_err();
        let msg = caught
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| caught.downcast_ref::<&str>().map(|m| m.to_string()))
            .unwrap();
        assert!(cestim_obs::cancel::is_cancel_panic(&msg), "{msg}");
        assert!(
            !replay.done(),
            "the replay must stop short of the trace end"
        );
    }

    #[test]
    fn unarmed_replays_are_unaffected_by_the_cancel_poll() {
        let p = noisy_loop(500);
        let trace = export_program(&p, 10_000_000).unwrap();
        let run = || {
            TraceSimulator::new(&trace, PipelineConfig::paper(), Gshare::new(12))
                .run_to_completion()
        };
        let sa = run();
        let _g = cestim_obs::cancel::arm(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
            1,
        );
        let sb = run();
        assert_eq!(sa, sb, "an unexpired token must not perturb the replay");
    }

    #[test]
    #[should_panic(expected = "eager execution")]
    fn eager_configuration_is_rejected() {
        let trace: Vec<TraceRecord> = Vec::new();
        let _ = TraceSimulator::new(
            &trace,
            PipelineConfig::paper().with_eager(1),
            Gshare::new(12),
        );
    }
}
