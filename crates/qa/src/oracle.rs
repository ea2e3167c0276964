//! The six differential oracles.
//!
//! Every generated program is pushed through several independent
//! implementations of the same semantics, which must agree bit-for-bit:
//!
//! 1. **arch** — the architectural interpreter and the pipeline commit
//!    stream retire the same branch/instruction sequence,
//! 2. **replay** — live analyses and a `cestim-trace` JSONL replay produce
//!    bit-identical histograms,
//! 3. **exec** — serial and multi-worker executor batches produce
//!    bit-identical output,
//! 4. **quadrant** — estimator quadrant counts satisfy the closed-form
//!    SENS/SPEC/PVP/PVN identities of the paper's §2 (Fig. 1),
//! 5. **trace** — the two independent branch-trace exporters
//!    (interpreter-driven and simulator-hooked) agree record-for-record,
//!    both `cestim-trace-io` encodings round-trip bit-exactly, and a
//!    trace-driven replay reproduces the live replay-mode run,
//! 6. **composition** — attaching a roster of estimators (leaves plus a
//!    nested vote or boost) leaves the pipeline statistics unchanged, and
//!    each entry gets the quadrants it gets alone.

use crate::gen::{assemble, QaProgram};
use crate::rng::XorShift64Star;
use cestim_bpred::{AnyPredictor, Bimodal, Gshare, McFarling, Perceptron, SAg, Tage};
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, ConfidenceEstimator, DistanceEstimator, Jrs,
    PatternHistory, Quadrant, SaturatingConfidence, TimingEstimator, Voting,
};
use cestim_exec::{fnv1a, Executor, Job};
use cestim_isa::{Machine, Program, Step};
use cestim_obs::{read_trace_jsonl, Tracer};
use cestim_pipeline::{
    replay, MultiObserver, OutcomeEvent, PipelineConfig, PipelineStats, SimObserver, Simulator,
};
use cestim_trace::{DistanceAnalysis, DistanceSeries};
use serde::{Deserialize, Map, Serialize, Value};
use std::fmt;

/// Interpreter step budget; generated programs halt well under it.
const MAX_ARCH_STEPS: u64 = 5_000_000;
/// Pipeline cycle budget (safety net only).
const MAX_CYCLES: u64 = 50_000_000;

/// Which differential oracle to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OracleKind {
    /// Interpreter vs. pipeline commit stream.
    Arch,
    /// Live analyses vs. JSONL trace replay.
    Replay,
    /// Serial vs. parallel executor output.
    Exec,
    /// Quadrant-count identities.
    Quadrant,
    /// Branch-trace export/import/replay equivalence.
    Trace,
    /// Roster composition leaves timing and every entry's quadrants alone.
    Composition,
    /// Executor fault handling: isolation, retry convergence, timeouts,
    /// and journal resume (see [`crate::resilience`]).
    Resilience,
}

impl OracleKind {
    /// The six differential oracles, in canonical order. The resilience
    /// oracle is deliberately excluded — it sleeps (timeout sub-check) and
    /// touches disk, so it is opt-in via `--oracle resilience` rather than
    /// part of every fuzz iteration.
    pub const ALL: [OracleKind; 6] = [
        OracleKind::Arch,
        OracleKind::Replay,
        OracleKind::Exec,
        OracleKind::Quadrant,
        OracleKind::Trace,
        OracleKind::Composition,
    ];

    /// Stable CLI/metrics name.
    pub fn name(self) -> &'static str {
        match self {
            OracleKind::Arch => "arch",
            OracleKind::Replay => "replay",
            OracleKind::Exec => "exec",
            OracleKind::Quadrant => "quadrant",
            OracleKind::Trace => "trace",
            OracleKind::Composition => "composition",
            OracleKind::Resilience => "resilience",
        }
    }

    /// Parses a CLI/metrics name.
    pub fn from_name(name: &str) -> Option<OracleKind> {
        if name == OracleKind::Resilience.name() {
            return Some(OracleKind::Resilience);
        }
        OracleKind::ALL.into_iter().find(|k| k.name() == name)
    }
}

impl fmt::Display for OracleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deliberately injected defect, used to exercise the oracle + shrinker
/// machinery end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Flip the reported direction of every Nth committed branch in the
    /// pipeline commit stream (0 = no fault). See
    /// `Simulator::inject_commit_fault`.
    pub commit_flip_every: u64,
}

impl FaultSpec {
    /// No injected fault.
    pub fn none() -> FaultSpec {
        FaultSpec::default()
    }

    /// A fault flipping every `n`-th committed branch.
    pub fn flip_every(n: u64) -> FaultSpec {
        FaultSpec {
            commit_flip_every: n,
        }
    }

    /// `true` when any fault is armed.
    pub fn is_active(&self) -> bool {
        self.commit_flip_every > 0
    }

    /// Reads the `CESTIM_QA_FAULT` environment hook (`flip-commit:N`).
    /// Returns [`FaultSpec::none`] when unset or unparseable.
    pub fn from_env() -> FaultSpec {
        match std::env::var("CESTIM_QA_FAULT") {
            Ok(v) => match v.trim().strip_prefix("flip-commit:") {
                Some(n) => FaultSpec::flip_every(n.parse().unwrap_or(0)),
                None => FaultSpec::none(),
            },
            Err(_) => FaultSpec::none(),
        }
    }
}

/// A failed oracle check, with a human-readable mismatch description.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleFailure {
    /// The oracle that failed.
    pub oracle: OracleKind,
    /// What disagreed, and where.
    pub detail: String,
}

impl fmt::Display for OracleFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle {} failed: {}", self.oracle, self.detail)
    }
}

fn fail(oracle: OracleKind, detail: impl Into<String>) -> OracleFailure {
    OracleFailure {
        oracle,
        detail: detail.into(),
    }
}

/// Runs one oracle on a program. `Ok(())` means every layer agreed.
///
/// Under an ambient span context (e.g. `fuzz --trace-perfetto`), each
/// check records a `qa.oracle` span labelled with the oracle name and
/// program size.
pub fn check(kind: OracleKind, p: &QaProgram, fault: FaultSpec) -> Result<(), OracleFailure> {
    let ops = p.ops.len().to_string();
    let _span = cestim_obs::span::AmbientSpan::enter(
        "qa.oracle",
        &[("oracle", kind.name()), ("ops", &ops)],
    );
    match kind {
        OracleKind::Arch => check_arch(p, fault),
        OracleKind::Replay => check_replay(p),
        OracleKind::Exec => check_exec(p),
        OracleKind::Quadrant => check_quadrant(p),
        OracleKind::Trace => check_trace(p),
        OracleKind::Composition => check_composition(p),
        OracleKind::Resilience => crate::resilience::check_resilience(p),
    }
}

fn pipeline_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::paper();
    cfg.max_cycles = MAX_CYCLES;
    cfg
}

// ---- oracle 1: interpreter vs. pipeline commit stream --------------------

/// Architectural reference execution: the retired branch sequence and the
/// non-halt step count.
struct ArchRef {
    steps: u64,
    branches: Vec<(u32, bool)>,
}

fn arch_reference(prog: &Program) -> ArchRef {
    let mut m = Machine::new(prog);
    let mut branches = Vec::new();
    let mut steps = 0u64;
    for _ in 0..MAX_ARCH_STEPS {
        if m.halted() {
            break;
        }
        let pc = m.pc();
        match m.step(prog) {
            Step::Branch { taken, .. } => {
                branches.push((pc, taken));
                steps += 1;
            }
            Step::Halt | Step::OutOfRange => break,
            _ => steps += 1,
        }
    }
    ArchRef { steps, branches }
}

#[derive(Default)]
struct CommitStream {
    branches: Vec<(u32, bool)>,
}

impl SimObserver for CommitStream {
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        if ev.committed {
            self.branches.push((ev.pc, ev.actual_taken));
        }
    }
}

fn check_arch(p: &QaProgram, fault: FaultSpec) -> Result<(), OracleFailure> {
    let kind = OracleKind::Arch;
    let prog = assemble(p);
    let arch = arch_reference(&prog);

    // TAGE here rather than gshare: its allocate-on-mispredict recovery is
    // the most state-heavy predictor path, and the arch contract must hold
    // regardless of how much speculation the predictor provokes.
    let mut sim = Simulator::new(&prog, pipeline_config(), Tage::default_config());
    if fault.is_active() {
        sim.inject_commit_fault(fault.commit_flip_every);
    }
    let mut stream = CommitStream::default();
    let stats = sim.run(&mut stream);

    // The pipeline counts the fetched halt; Machine's step count does not.
    if stats.committed_insts != arch.steps + 1 {
        return Err(fail(
            kind,
            format!(
                "committed_insts {} != interpreter steps {} + 1",
                stats.committed_insts, arch.steps
            ),
        ));
    }
    if stats.committed_branches != arch.branches.len() as u64 {
        return Err(fail(
            kind,
            format!(
                "committed_branches {} != interpreter branches {}",
                stats.committed_branches,
                arch.branches.len()
            ),
        ));
    }
    if stream.branches.len() != arch.branches.len() {
        return Err(fail(
            kind,
            format!(
                "commit stream has {} branches, interpreter {}",
                stream.branches.len(),
                arch.branches.len()
            ),
        ));
    }
    for (i, (got, want)) in stream.branches.iter().zip(&arch.branches).enumerate() {
        if got != want {
            return Err(fail(
                kind,
                format!(
                    "retired branch {i}: pipeline committed (pc={:#x}, taken={}) \
                     but interpreter retired (pc={:#x}, taken={})",
                    got.0, got.1, want.0, want.1
                ),
            ));
        }
    }
    Ok(())
}

// ---- oracle 2: live analyses vs. JSONL replay ----------------------------

fn check_replay(p: &QaProgram) -> Result<(), OracleFailure> {
    let kind = OracleKind::Replay;
    let prog = assemble(p);
    let mut sim = Simulator::new(&prog, pipeline_config(), Perceptron::default_config());
    sim.add_estimator(Jrs::paper_enhanced());
    let mut live = DistanceAnalysis::new(64);
    let mut tracer = Tracer::unbounded();
    sim.run(&mut MultiObserver::new(vec![&mut live, &mut tracer]));

    let mut jsonl = Vec::new();
    tracer
        .export_jsonl(&mut jsonl)
        .map_err(|e| fail(kind, format!("trace export failed: {e}")))?;
    let events = read_trace_jsonl(jsonl.as_slice())
        .map_err(|e| fail(kind, format!("JSONL replay failed: {e}")))?;
    let mut replayed = DistanceAnalysis::new(64);
    replay(&events, &mut replayed);

    for series in [
        DistanceSeries::PreciseAll,
        DistanceSeries::PreciseCommitted,
        DistanceSeries::PerceivedAll,
        DistanceSeries::PerceivedCommitted,
    ] {
        if live.histogram(series) != replayed.histogram(series) {
            return Err(fail(
                kind,
                format!("{series:?} histogram differs between live run and JSONL replay"),
            ));
        }
    }
    Ok(())
}

// ---- oracle 3: serial vs. parallel executor ------------------------------

/// Predictor sweep each exec-oracle batch runs the program under.
pub(crate) const EXEC_PREDICTORS: [&str; 6] = [
    "gshare",
    "mcfarling",
    "sag",
    "bimodal",
    "tage",
    "perceptron",
];

fn build_predictor(name: &str) -> AnyPredictor {
    match name {
        "gshare" => Gshare::new(12).into(),
        "mcfarling" => McFarling::new(12).into(),
        "sag" => SAg::paper_config().into(),
        "tage" => Tage::default_config().into(),
        "perceptron" => Perceptron::default_config().into(),
        _ => Bimodal::new(12).into(),
    }
}

/// One program × predictor simulation unit for the executor oracle (and
/// the resilience oracle, which chaos-tests the same batch shape).
pub(crate) struct QaJob {
    pub(crate) program: QaProgram,
    pub(crate) predictor: &'static str,
}

/// Output of a [`QaJob`]: the full pipeline statistics plus the committed
/// quadrant of a JRS estimator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct QaJobOutput {
    stats: PipelineStats,
    quadrant: Quadrant,
}

impl Job for QaJob {
    type Output = QaJobOutput;

    fn content(&self) -> Value {
        let mut m = Map::new();
        m.insert("program".into(), serde::to_value(&self.program));
        m.insert("predictor".into(), Value::String(self.predictor.into()));
        Value::Object(m)
    }

    fn schema_salt(&self) -> u64 {
        cestim_exec::schema_salt("qa-differential", 1)
    }

    fn label(&self) -> String {
        format!("qa-{}", self.predictor)
    }

    fn execute(&self) -> QaJobOutput {
        let prog = assemble(&self.program);
        let mut sim = Simulator::new(&prog, pipeline_config(), build_predictor(self.predictor));
        sim.add_estimator(Jrs::paper_enhanced());
        let stats = sim.run_to_completion();
        QaJobOutput {
            stats,
            quadrant: sim.estimator_quadrants()[0].committed,
        }
    }
}

/// The exec oracle's batch (and the resilience oracle's): the program
/// under every predictor of [`EXEC_PREDICTORS`].
pub(crate) fn sweep_jobs(p: &QaProgram) -> Vec<QaJob> {
    EXEC_PREDICTORS
        .iter()
        .map(|&predictor| QaJob {
            program: p.clone(),
            predictor,
        })
        .collect()
}

/// Runs `jobs` on `exec`: every output in serialized form (the
/// bit-identity contract cached and merged results are held to), or the
/// first failed job.
pub(crate) fn run_texts(exec: &Executor, jobs: &[QaJob]) -> Result<Vec<String>, String> {
    let results = exec.run_all_checked(jobs).into_iter().enumerate();
    results
        .map(|(i, r)| match r {
            Ok(out) => Ok(serde_json::to_string(&out).unwrap_or_default()),
            Err(e) => Err(format!("job {i} failed: {e}")),
        })
        .collect()
}

fn check_exec(p: &QaProgram) -> Result<(), OracleFailure> {
    let kind = OracleKind::Exec;
    let jobs = sweep_jobs(p);
    let serial = run_texts(&Executor::sequential(), &jobs).map_err(|e| fail(kind, e))?;
    let parallel = run_texts(&Executor::new(4), &jobs).map_err(|e| fail(kind, e))?;
    match serial.iter().zip(&parallel).position(|(s, par)| s != par) {
        Some(i) => Err(fail(
            kind,
            format!(
                "job {i} ({}) differs between serial and 4-worker runs",
                jobs[i].predictor
            ),
        )),
        None => Ok(()),
    }
}

// ---- oracle 5: trace export / import / replay ----------------------------

fn check_trace(p: &QaProgram) -> Result<(), OracleFailure> {
    use cestim_pipeline::TraceSimulator;
    use cestim_trace_io as tio;

    let kind = OracleKind::Trace;
    let prog = assemble(p);

    // Exporter agreement: the interpreter-driven exporter and the
    // simulator capture hook are independent implementations of "the
    // committed instruction stream".
    let exported = tio::export_program(&prog, MAX_ARCH_STEPS)
        .map_err(|e| fail(kind, format!("interpreter export failed: {e}")))?;
    let mut sim = Simulator::new(&prog, pipeline_config(), Gshare::new(12));
    sim.set_trace_capture(true);
    sim.run_to_completion();
    let captured = sim.take_captured_trace();
    if captured != exported {
        let at = exported
            .iter()
            .zip(&captured)
            .position(|(a, b)| a != b)
            .unwrap_or(exported.len().min(captured.len()));
        return Err(fail(
            kind,
            format!(
                "capture hook diverges from interpreter export at record {at} \
                 (exported {} records, captured {})",
                exported.len(),
                captured.len()
            ),
        ));
    }

    // Both encodings round-trip bit-exactly, including across each other.
    let bin = tio::to_binary(&exported);
    let from_bin = tio::from_binary(&bin)
        .map_err(|e| fail(kind, format!("binary round-trip import failed: {e}")))?;
    if from_bin != exported {
        return Err(fail(kind, "binary encoding does not round-trip"));
    }
    let jsonl = tio::to_jsonl(&exported);
    let from_jsonl = tio::from_jsonl(&jsonl)
        .map_err(|e| fail(kind, format!("JSONL round-trip import failed: {e}")))?;
    if from_jsonl != exported {
        return Err(fail(kind, "JSONL encoding does not round-trip"));
    }
    let cross = tio::from_jsonl(&tio::to_jsonl(&from_bin))
        .and_then(|r| tio::from_binary(&tio::to_binary(&r)))
        .map_err(|e| fail(kind, format!("cross-encoding import failed: {e}")))?;
    if cross != exported {
        return Err(fail(kind, "binary->JSONL->binary does not round-trip"));
    }
    if tio::content_hash(&from_bin) != tio::content_hash(&from_jsonl) {
        return Err(fail(kind, "content hash differs across encodings"));
    }

    // Replay equivalence: a trace-driven replay must reproduce the live
    // replay-mode (stall-on-mispredict) run bit-for-bit — stats and every
    // estimator quadrant.
    let mut live = Simulator::new(&prog, pipeline_config(), Gshare::new(12));
    live.set_replay_fetch(true);
    live.add_estimator(Jrs::paper_enhanced());
    live.add_estimator(SaturatingConfidence::selected());
    live.add_estimator(DistanceEstimator::new(4));
    let live_stats = live.run(&mut cestim_pipeline::NullObserver);

    let mut replay = TraceSimulator::new(&from_bin, pipeline_config(), Gshare::new(12));
    replay.add_estimator(Jrs::paper_enhanced());
    replay.add_estimator(SaturatingConfidence::selected());
    replay.add_estimator(DistanceEstimator::new(4));
    let replay_stats = replay.run_to_completion();

    let live_text = serde_json::to_string(&(&live_stats, live.estimator_quadrants()))
        .map_err(|e| fail(kind, format!("stats serialization failed: {e}")))?;
    let replay_text = serde_json::to_string(&(&replay_stats, replay.estimator_quadrants()))
        .map_err(|e| fail(kind, format!("stats serialization failed: {e}")))?;
    if live_text != replay_text {
        return Err(fail(
            kind,
            format!(
                "trace replay diverges from live replay-mode run: \
                 live {live_text} vs replay {replay_text}"
            ),
        ));
    }

    // The same identity over the modern families: TAGE with the timing and
    // voting estimators. The timing estimator consumes resolve latencies
    // the pipeline computes at fetch, so this proves the latency plumbing
    // is identical in the live and trace-driven fetch paths.
    let modern_vote = || {
        Voting::new(
            vec![
                AnyEstimator::from(SaturatingConfidence::selected()),
                AnyEstimator::from(TimingEstimator::new(4)),
            ],
            1,
        )
    };
    let mut live = Simulator::new(&prog, pipeline_config(), Tage::default_config());
    live.set_replay_fetch(true);
    live.add_estimator(TimingEstimator::new(4));
    live.add_estimator(modern_vote());
    let live_stats = live.run(&mut cestim_pipeline::NullObserver);

    let mut replay = TraceSimulator::new(&from_bin, pipeline_config(), Tage::default_config());
    replay.add_estimator(TimingEstimator::new(4));
    replay.add_estimator(modern_vote());
    let replay_stats = replay.run_to_completion();

    let live_text = serde_json::to_string(&(&live_stats, live.estimator_quadrants()))
        .map_err(|e| fail(kind, format!("stats serialization failed: {e}")))?;
    let replay_text = serde_json::to_string(&(&replay_stats, replay.estimator_quadrants()))
        .map_err(|e| fail(kind, format!("stats serialization failed: {e}")))?;
    if live_text != replay_text {
        return Err(fail(
            kind,
            format!(
                "trace replay diverges from live replay-mode run for the \
                 modern families: live {live_text} vs replay {replay_text}"
            ),
        ));
    }
    Ok(())
}

// ---- oracle 4: quadrant identities ---------------------------------------

fn check_quadrant(p: &QaProgram) -> Result<(), OracleFailure> {
    let kind = OracleKind::Quadrant;
    let prog = assemble(p);
    let mut sim = Simulator::new(&prog, pipeline_config(), Gshare::new(12));
    sim.add_estimator(Jrs::paper_enhanced());
    sim.add_estimator(SaturatingConfidence::selected());
    sim.add_estimator(DistanceEstimator::new(4));
    sim.add_estimator(TimingEstimator::new(4));
    sim.add_estimator(Voting::new(
        vec![
            AnyEstimator::from(SaturatingConfidence::selected()),
            AnyEstimator::from(DistanceEstimator::new(4)),
            AnyEstimator::from(TimingEstimator::new(4)),
        ],
        2,
    ));
    // The degenerate votes below have closed-form quadrants: with the
    // constant estimators as components, quorum 1 is satisfied by
    // always-high alone, and quorum 2 is vetoed by always-low alone — so
    // their tables (and hence PVP/PVN) must equal the constants' exactly.
    let hi = sim.add_estimator(AlwaysHigh);
    let lo = sim.add_estimator(AlwaysLow);
    let vote_any = sim.add_estimator(Voting::new(
        vec![
            AnyEstimator::from(AlwaysHigh),
            AnyEstimator::from(AlwaysLow),
        ],
        1,
    ));
    let vote_all = sim.add_estimator(Voting::new(
        vec![
            AnyEstimator::from(AlwaysHigh),
            AnyEstimator::from(AlwaysLow),
        ],
        2,
    ));
    let names = sim.estimator_names().to_vec();
    let stats = sim.run_to_completion();

    let quads = sim.estimator_quadrants();
    if quads[vote_any] != quads[hi] {
        return Err(fail(
            kind,
            "vote1(always-high,always-low) quadrants differ from always-high",
        ));
    }
    if quads[vote_all] != quads[lo] {
        return Err(fail(
            kind,
            "vote2(always-high,always-low) quadrants differ from always-low",
        ));
    }
    for (v, base) in [(vote_any, hi), (vote_all, lo)] {
        let (vq, bq) = (&quads[v].committed, &quads[base].committed);
        if vq.c_hc + vq.i_hc > 0 && vq.pvp() != bq.pvp() {
            return Err(fail(kind, "degenerate vote PVP diverges from closed form"));
        }
        if vq.c_lc + vq.i_lc > 0 && vq.pvn() != bq.pvn() {
            return Err(fail(kind, "degenerate vote PVN diverges from closed form"));
        }
    }

    for (name, q) in names.iter().zip(sim.estimator_quadrants()) {
        if q.all.total() != stats.fetched_branches {
            return Err(fail(
                kind,
                format!(
                    "{name}: all-population total {} != fetched branches {}",
                    q.all.total(),
                    stats.fetched_branches
                ),
            ));
        }
        if q.committed.total() != stats.committed_branches {
            return Err(fail(
                kind,
                format!(
                    "{name}: committed total {} != committed branches {}",
                    q.committed.total(),
                    stats.committed_branches
                ),
            ));
        }
        let (a, c) = (&q.all, &q.committed);
        if c.c_hc > a.c_hc || c.i_hc > a.i_hc || c.c_lc > a.c_lc || c.i_lc > a.i_lc {
            return Err(fail(
                kind,
                format!("{name}: committed cells exceed all-population cells"),
            ));
        }
        for (population, quad) in [("all", a), ("committed", c)] {
            quadrant_identities(quad)
                .map_err(|detail| fail(kind, format!("{name}/{population}: {detail}")))?;
        }
    }
    Ok(())
}

// ---- oracle 6: roster composition ----------------------------------------

/// The composition oracle's roster for `seed`: 1..=4 leaves, then one vote
/// or boost over them (nesting allowed). A pure function of the seed, so
/// any entry can be rebuilt fresh (estimators own their tables) to run
/// alone.
fn roster(seed: u64) -> Vec<AnyEstimator> {
    let mut rng = XorShift64Star::new(seed);
    let draws: Vec<u64> = (0..1 + rng.below(4)).map(|_| rng.next_u64()).collect();
    let mut roster: Vec<AnyEstimator> = draws.iter().map(|&d| leaf(d)).collect();
    roster.push(composite(&mut rng, &draws, 2));
    roster
}

/// One leaf estimator: `draw % 10` picks the kind, the rest its
/// threshold (1..=15).
fn leaf(draw: u64) -> AnyEstimator {
    let t = 1 + (draw / 10) % 15;
    match draw % 10 {
        0 => Jrs::new(10, 4, t as u8, true).into(),
        1 => Jrs::new(6, 4, t as u8, false).into(),
        2 => SaturatingConfidence::selected().into(),
        3 => SaturatingConfidence::both_strong().into(),
        4 => SaturatingConfidence::either_strong().into(),
        5 => DistanceEstimator::new(t).into(),
        6 => TimingEstimator::new(t).into(),
        7 => Cir::new(8, 16, t as u32, t.is_multiple_of(2)).into(),
        8 => PatternHistory::new(1 + t as u32).into(),
        _ if t.is_multiple_of(2) => AlwaysHigh.into(),
        _ => AlwaysLow.into(),
    }
}

/// A vote or boost over leaves drawn from `draws`, nesting composites up
/// to `depth` more levels.
fn composite(rng: &mut XorShift64Star, draws: &[u64], depth: u32) -> AnyEstimator {
    let part = |rng: &mut XorShift64Star| {
        if depth > 0 && rng.chance(1, 4) {
            composite(rng, draws, depth - 1)
        } else {
            leaf(draws[rng.below(draws.len() as u64) as usize])
        }
    };
    if rng.chance(1, 2) {
        let inner = part(rng);
        Boosted::new(inner, 1 + rng.below(4) as u32).into()
    } else {
        let n = 1 + rng.below(3);
        let parts: Vec<AnyEstimator> = (0..n).map(|_| part(rng)).collect();
        Voting::new(parts, 1 + rng.below(n) as u32).into()
    }
}

fn check_composition(p: &QaProgram) -> Result<(), OracleFailure> {
    let kind = OracleKind::Composition;
    // Seeded from the program, so a shrunk corpus entry reproduces its
    // failure on its own.
    let seed = fnv1a(serde_json::to_string(p).unwrap_or_default().as_bytes());
    let predictor = EXEC_PREDICTORS[(seed % EXEC_PREDICTORS.len() as u64) as usize];
    let prog = assemble(p);
    let run = |roster: Vec<AnyEstimator>| {
        let mut sim = Simulator::new(&prog, pipeline_config(), build_predictor(predictor));
        for e in roster {
            sim.add_estimator(e);
        }
        let stats = sim.run_to_completion();
        (stats, sim.estimator_quadrants().to_vec())
    };
    let names: Vec<String> = roster(seed).iter().map(AnyEstimator::name).collect();
    let (stats, quads) = run(roster(seed));
    if stats != run(Vec::new()).0 {
        let detail = format!("[{}] on {predictor} changed the stats", names.join(", "));
        return Err(fail(kind, detail));
    }
    for (i, (q, name)) in quads.iter().zip(&names).enumerate() {
        let (_, alone) = run(vec![roster(seed).swap_remove(i)]);
        if alone[0] != *q {
            return Err(fail(
                kind,
                format!("{name} on {predictor}: quadrants in the roster differ from alone"),
            ));
        }
    }
    Ok(())
}

/// Checks the §2/Fig. 1 closed-form identities on one table. Guards every
/// metric whose denominator is empty (the paper's metrics are undefined
/// there).
fn quadrant_identities(q: &Quadrant) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    if q.total() == 0 {
        return Ok(());
    }
    let sum: f64 = q.fractions().iter().sum();
    if (sum - 1.0).abs() > EPS {
        return Err(format!("cell fractions sum to {sum}, not 1"));
    }
    if (q.accuracy() + q.misprediction_rate() - 1.0).abs() > EPS {
        return Err("accuracy + misprediction rate != 1".into());
    }
    let correct = q.c_hc + q.c_lc;
    let incorrect = q.i_hc + q.i_lc;
    if correct > 0 && incorrect > 0 {
        let (sens, spec, p) = (q.sens(), q.spec(), q.accuracy());
        if q.c_hc + q.i_hc > 0 {
            let pvp = sens * p / (sens * p + (1.0 - spec) * (1.0 - p));
            if (q.pvp() - pvp).abs() > EPS {
                return Err(format!("pvp {} != closed form {pvp}", q.pvp()));
            }
        }
        if q.c_lc + q.i_lc > 0 {
            let pvn = spec * (1.0 - p) / (spec * (1.0 - p) + (1.0 - sens) * p);
            if (q.pvn() - pvn).abs() > EPS {
                return Err(format!("pvn {} != closed form {pvn}", q.pvn()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};

    fn sample(seed: u64) -> QaProgram {
        let mut rng = XorShift64Star::new(seed);
        generate(&mut rng, &GenConfig::default())
    }

    #[test]
    fn all_oracles_pass_on_clean_programs() {
        for seed in 0..25 {
            let p = sample(seed);
            for kind in OracleKind::ALL {
                assert_eq!(
                    check(kind, &p, FaultSpec::none()),
                    Ok(()),
                    "seed {seed}, oracle {kind}"
                );
            }
        }
    }

    #[test]
    fn arch_oracle_catches_injected_commit_fault() {
        // A fault on every committed branch is caught as long as the
        // program retires at least one conditional branch.
        let mut caught = 0;
        for seed in 0..10 {
            let p = sample(seed);
            if check(OracleKind::Arch, &p, FaultSpec::flip_every(1)).is_err() {
                caught += 1;
            }
        }
        assert!(caught >= 8, "only {caught}/10 faults caught");
    }

    #[test]
    fn oracle_names_round_trip() {
        for kind in OracleKind::ALL {
            assert_eq!(OracleKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(OracleKind::from_name("nope"), None);
    }

    #[test]
    fn fault_env_hook_parses() {
        assert!(!FaultSpec::none().is_active());
        assert!(FaultSpec::flip_every(3).is_active());
        // from_env with the variable unset:
        assert_eq!(FaultSpec::from_env(), FaultSpec::none());
    }

    #[test]
    fn quadrant_identities_reject_inconsistent_metrics() {
        // A consistent table passes.
        let q = Quadrant {
            c_hc: 61,
            i_hc: 2,
            c_lc: 19,
            i_lc: 18,
        };
        assert!(quadrant_identities(&q).is_ok());
        // The identity checker itself cannot be fooled by an empty table.
        assert!(quadrant_identities(&Quadrant::default()).is_ok());
    }
}
