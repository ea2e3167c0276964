//! Recorded outputs: per-cell work counts and quadrant digests for the
//! `live` and `replay` cells, and text+json hashes of the `suite`
//! experiments. Any drift from them counts as a failed operation.
//!
//! `expected.txt` holds one record per line:
//!
//! ```text
//! cell <live|replay> <scale> <seed> <workload>/<predictor> <branches> <insts> <cycles> <mispredicts> <quadrants>
//! suite <scale> <experiment> <hash>
//! ```
//!
//! Regenerate it with `--bless` after an intended change of simulated
//! output.

use crate::{cells, suite, Opts, Size, Workload};
use cestim_exec::{canonical_string, fnv1a};
use cestim_sim::suite::ExperimentResult;
use cestim_sim::RunOutcome;
use std::collections::HashMap;
use std::fmt::Write as _;

/// Seeds whose `live`/`replay` cell counts are recorded.
const BLESS_SEEDS: std::ops::RangeInclusive<u64> = 0..=16;

/// The deterministic facts of one cell's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellDigest {
    /// Committed conditional branches.
    pub branches: u64,
    /// Committed instructions.
    pub insts: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Mispredicted committed branches.
    pub mispredicts: u64,
    /// FNV-1a hash of every estimator's committed quadrant, canonical JSON.
    pub quadrants: u64,
}

impl CellDigest {
    /// Digest of a run outcome.
    pub fn of(out: &RunOutcome) -> CellDigest {
        let quadrants: Vec<_> = out
            .estimators
            .iter()
            .map(|e| e.quadrants.committed)
            .collect();
        CellDigest {
            branches: out.stats.committed_branches,
            insts: out.stats.committed_insts,
            cycles: out.stats.cycles,
            mispredicts: out.stats.mispredicted_committed,
            quadrants: fnv1a(canonical_string(&serde::to_value(&quadrants)).as_bytes()),
        }
    }
}

/// Hash of an experiment's text and canonical json.
pub fn suite_digest(r: &ExperimentResult) -> String {
    let mut bytes = r.text.clone().into_bytes();
    bytes.push(b'\n');
    bytes.extend_from_slice(canonical_string(&r.json).as_bytes());
    format!("{:016x}", fnv1a(&bytes))
}

/// The recorded outputs a run is checked against.
#[derive(Debug, Clone, Default)]
pub struct Expected {
    cells: HashMap<String, CellDigest>,
    suite: HashMap<String, String>,
    /// Corrupt the direct-execution payloads `serve` compares against
    /// (self-test only).
    pub tamper_serve: bool,
}

fn cell_key(workload: Workload, scale: u32, seed: u64, cell: &str) -> String {
    format!("{} {scale} {seed} {cell}", workload.name())
}

impl Expected {
    /// The outputs recorded in `expected.txt`.
    pub fn recorded() -> Expected {
        let mut e = Expected::default();
        for line in include_str!("../expected.txt").lines() {
            let f: Vec<&str> = line.split_whitespace().collect();
            match f.as_slice() {
                ["cell", kind, scale, seed, cell, b, i, c, m, q] => {
                    let n = |s: &str| s.parse::<u64>().expect("expected.txt: count");
                    e.cells.insert(
                        format!("{kind} {scale} {seed} {cell}"),
                        CellDigest {
                            branches: n(b),
                            insts: n(i),
                            cycles: n(c),
                            mispredicts: n(m),
                            quadrants: u64::from_str_radix(q, 16).expect("expected.txt: digest"),
                        },
                    );
                }
                ["suite", scale, id, hash] => {
                    e.suite.insert(format!("{scale} {id}"), hash.to_string());
                }
                _ => {}
            }
        }
        e
    }

    /// The recorded digest of a cell, if this seed was recorded.
    pub fn cell(
        &self,
        workload: Workload,
        scale: u32,
        seed: u64,
        cell: &str,
    ) -> Option<CellDigest> {
        self.cells
            .get(&cell_key(workload, scale, seed, cell))
            .copied()
    }

    /// The recorded hash of an experiment at a scale.
    pub fn suite(&self, scale: u32, id: &str) -> Option<&str> {
        self.suite.get(&format!("{scale} {id}")).map(String::as_str)
    }

    /// A copy with a deliberately wrong expectation for every output
    /// `opts` checks (self-test only).
    #[cfg(test)]
    pub fn corrupted(&self, opts: &Opts) -> Expected {
        let mut e = self.clone();
        let wrong = CellDigest {
            branches: u64::MAX,
            insts: 0,
            cycles: 0,
            mispredicts: 0,
            quadrants: 0,
        };
        for kind in opts.size.analogs() {
            for p in cestim_sim::PredictorKind::all() {
                let cell = format!("{}/{}", kind.name(), p.name());
                e.cells.insert(
                    cell_key(opts.workload, opts.size.scale, opts.seed, &cell),
                    wrong,
                );
            }
        }
        for id in suite::EXPERIMENTS {
            e.suite.insert(format!("{} {id}", suite::SCALE), "0".into());
        }
        e.tamper_serve = true;
        e
    }
}

/// Records the outputs of the `live`/`replay` cells for [`BLESS_SEEDS`]
/// and of the `suite` experiments into `expected.txt`.
pub fn bless(opts: &Opts) -> std::io::Result<()> {
    let size = Size::FULL;
    let mut text = String::from(
        "# Recorded benchmark outputs; regenerate with `perfbench --bless`.\n\
         # cell <workload> <scale> <seed> <cell> <branches> <insts> <cycles> <mispredicts> <quadrants>\n\
         # suite <scale> <experiment> <hash>\n",
    );
    for workload in [Workload::Live, Workload::Replay] {
        for seed in BLESS_SEEDS {
            let o = Opts {
                workload,
                seed,
                ..opts.clone()
            };
            for (cell, out) in cells::outcomes(&o) {
                let d = CellDigest::of(&out);
                writeln!(
                    text,
                    "cell {} {} {seed} {cell} {} {} {} {} {:016x}",
                    workload.name(),
                    size.scale,
                    d.branches,
                    d.insts,
                    d.cycles,
                    d.mispredicts,
                    d.quadrants
                )
                .expect("write to string");
            }
            eprintln!("blessed {} seed {seed}", workload.name());
        }
    }
    for (id, result) in suite::outcomes(suite::SCALE) {
        writeln!(
            text,
            "suite {} {id} {}",
            suite::SCALE,
            suite_digest(&result)
        )
        .expect("write to string");
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.txt");
    std::fs::write(&path, text)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}
