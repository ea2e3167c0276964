//! # cestim-qa
//!
//! Seeded differential-testing and fuzzing subsystem for the cestim
//! workspace.
//!
//! The simulator reproduces the measurement machinery of "Confidence
//! Estimation for Speculation Control" (Klauser, Grunwald, Morrey, Paithankar;
//! ISCA 1998); this crate stresses it end to end with randomly generated —
//! but valid-by-construction — programs and six independent *differential
//! oracles*:
//!
//! 1. [`OracleKind::Arch`] — the architectural interpreter and the pipeline
//!    commit stream must retire identical branch/instruction sequences;
//! 2. [`OracleKind::Replay`] — live analyses must be bit-identical to a
//!    `cestim-trace` JSONL replay of the same run;
//! 3. [`OracleKind::Exec`] — serial and multi-worker `cestim-exec` batches
//!    must produce bit-identical output;
//! 4. [`OracleKind::Quadrant`] — estimator quadrant counts must satisfy the
//!    paper's closed-form SENS/SPEC/PVP/PVN identities (§2, Fig. 1);
//! 5. [`OracleKind::Trace`] — the branch-trace exporters, both encodings
//!    and trace-driven replay must agree with the live run;
//! 6. [`OracleKind::Composition`] — attaching a roster of estimators must
//!    leave the pipeline statistics unchanged and give every entry the
//!    quadrants it gets alone.
//!
//! A seventh, opt-in [resilience oracle](resilience::check_resilience)
//! (`--oracle resilience`) chaos-tests the executor's fault handling —
//! isolation, retry convergence, timeouts, and journal resume — against
//! the same predictor-sweep batches.
//!
//! Failures are minimised by an automatic [shrinker](shrink::shrink)
//! (delete blocks, unroll loops, rebias branches) into small reproducers
//! persisted with their seed under `results/qa/corpus/` and replayable via
//! `repro --qa-replay`. Everything is driven by a deterministic
//! [xorshift64*](rng::XorShift64Star) stream — same seed, same programs,
//! same report, same telemetry.

#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod resilience;
pub mod rng;
pub mod shrink;

pub use corpus::{
    load_dir as load_corpus, replay as replay_entry, CorpusEntry, DEFAULT_CORPUS_DIR,
};
pub use gen::{assemble, generate, inst_count, node_count, GenConfig, QaOp, QaProgram};
pub use harness::{replay_corpus, run_fuzz, FailureSummary, FuzzConfig, FuzzReport, OracleTally};
pub use oracle::{check, FaultSpec, OracleFailure, OracleKind};
pub use rng::XorShift64Star;
pub use shrink::{shrink, weight, ShrinkOutcome};
