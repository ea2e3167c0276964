//! # cestim-workloads
//!
//! Synthetic analogs of the SPECint95 benchmarks the paper evaluates,
//! written as real algorithms in the `cestim-isa` instruction set.
//!
//! We do not have the SPECint95 sources, inputs, or SimpleScalar binaries;
//! what the confidence estimators observe, however, is only the *dynamic
//! conditional branch stream*. Each analog therefore implements an actual
//! algorithm of the same flavour as its namesake, over deterministic
//! pseudo-random inputs, tuned so the qualitative branch profile survives:
//!
//! | analog | algorithm | branch character |
//! |---|---|---|
//! | `compress` | run-length + dictionary coder over skewed bytes | data-dependent match/length branches, moderate predictability |
//! | `gcc` | tokenizer + parser state machine over pseudo-source | large branch trees, many static sites |
//! | `perl` | naive multi-pattern text matcher + opcode dispatch | inner-loop breaks, dispatch branches |
//! | `go` | board evaluator with neighbour checks on a random board | hardest to predict (the paper's `go` is too) |
//! | `m88ksim` | fetch/decode/execute loop emulating a tiny guest CPU | highly repetitive, very predictable |
//! | `xlisp` | cons-list building, recursive traversal, mark pass | recursion (call/ret), biased data branches |
//! | `vortex` | hash-indexed record store, lookup-heavy mix | probe-hit branches, very predictable |
//! | `ijpeg` | 8×8 block transform, quantize with clamping, zero-RLE | fixed loops + biased clamps, predictable |
//!
//! Every workload is parameterized by a `scale` factor (iterations of its
//! outer loop) and leaves an algorithm checksum in [`CHECKSUM_REG`], which
//! the unit tests verify against a Rust reference implementation — the
//! programs are real computations, not branch noise generators.
//!
//! ## Example
//!
//! ```
//! use cestim_isa::Machine;
//! use cestim_workloads::{WorkloadKind, CHECKSUM_REG};
//!
//! let w = WorkloadKind::Compress.build(1);
//! let mut m = Machine::new(&w.program);
//! m.run(&w.program, u64::MAX);
//! assert!(m.halted());
//! assert_ne!(m.reg(CHECKSUM_REG), 0);
//! ```

#![warn(missing_docs)]

pub mod compress;
pub mod gcc;
pub mod go;
pub mod ijpeg;
pub mod m88ksim;
pub mod perl;
pub mod vortex;
pub mod xlisp;

use cestim_isa::{Program, Reg};

/// Register each workload leaves its final checksum in.
pub const CHECKSUM_REG: Reg = Reg::U4;

/// A buildable benchmark program.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Short name matching the SPECint95 analog ("compress", "go", ...).
    pub name: &'static str,
    /// One-line description of the algorithm.
    pub description: &'static str,
    /// The executable program.
    pub program: Program,
}

/// The eight SPECint95 analogs.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum WorkloadKind {
    /// Run-length + dictionary coder (analog of `compress`).
    Compress,
    /// Tokenizer and parser state machine (analog of `gcc`).
    Gcc,
    /// Multi-pattern text matcher with opcode dispatch (analog of `perl`).
    Perl,
    /// Board-position evaluator (analog of `go`).
    Go,
    /// Guest-CPU emulator main loop (analog of `m88ksim`).
    M88ksim,
    /// Cons-list interpreter with recursion (analog of `xlisp`).
    Xlisp,
    /// Hash-indexed record store (analog of `vortex`).
    Vortex,
    /// 8×8 block transform and entropy pre-pass (analog of `ijpeg`).
    Ijpeg,
}

impl WorkloadKind {
    /// All workloads in the paper's table order.
    pub const fn all() -> [WorkloadKind; 8] {
        [
            WorkloadKind::Compress,
            WorkloadKind::Gcc,
            WorkloadKind::Perl,
            WorkloadKind::Go,
            WorkloadKind::M88ksim,
            WorkloadKind::Xlisp,
            WorkloadKind::Vortex,
            WorkloadKind::Ijpeg,
        ]
    }

    /// The workload's short name.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Compress => "compress",
            WorkloadKind::Gcc => "gcc",
            WorkloadKind::Perl => "perl",
            WorkloadKind::Go => "go",
            WorkloadKind::M88ksim => "m88ksim",
            WorkloadKind::Xlisp => "xlisp",
            WorkloadKind::Vortex => "vortex",
            WorkloadKind::Ijpeg => "ijpeg",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::all().into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload at the given scale (outer-loop iterations; the
    /// dynamic instruction count grows roughly linearly with `scale`),
    /// using the default ("train") input.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn build(self, scale: u32) -> Workload {
        self.build_salted(scale, 0)
    }

    /// Builds the workload with an alternative input: `salt` reseeds the
    /// input generator, producing a different-but-same-flavour data set
    /// (like SPEC's train vs ref inputs). Salt 0 is the default input.
    /// The *code* is identical across salts; only the data differs — the
    /// knob exists to evaluate profile-based techniques off their training
    /// input.
    ///
    /// # Panics
    ///
    /// Panics if `scale == 0`.
    pub fn build_salted(self, scale: u32, salt: u32) -> Workload {
        assert!(scale > 0, "scale must be positive");
        match self {
            WorkloadKind::Compress => compress::build(scale, salt),
            WorkloadKind::Gcc => gcc::build(scale, salt),
            WorkloadKind::Perl => perl::build(scale, salt),
            WorkloadKind::Go => go::build(scale, salt),
            WorkloadKind::M88ksim => m88ksim::build(scale, salt),
            WorkloadKind::Xlisp => xlisp::build(scale, salt),
            WorkloadKind::Vortex => vortex::build(scale, salt),
            WorkloadKind::Ijpeg => ijpeg::build(scale, salt),
        }
    }
}

impl std::fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Deterministic input bytes shared by the workload generators.
///
/// A tiny xorshift keeps the crate's only `rand` use in the generators that
/// need shaped distributions.
pub(crate) fn xorshift_bytes(seed: u32, len: usize, modulo: u32) -> Vec<u32> {
    let mut x = seed.max(1);
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x % modulo
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_isa::Machine;

    #[test]
    fn names_round_trip() {
        for k in WorkloadKind::all() {
            assert_eq!(WorkloadKind::from_name(k.name()), Some(k));
            assert_eq!(k.to_string(), k.name());
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
    }

    #[test]
    fn all_workloads_halt_and_produce_checksums() {
        for k in WorkloadKind::all() {
            let w = k.build(1);
            let mut m = Machine::new(&w.program);
            let steps = m.run(&w.program, 50_000_000);
            assert!(m.halted(), "{} did not halt", k);
            assert!(steps > 10_000, "{} too small: {} insts", k, steps);
            assert_ne!(m.reg(CHECKSUM_REG), 0, "{} produced a zero checksum", k);
        }
    }

    #[test]
    fn scale_grows_dynamic_instruction_count() {
        for k in [WorkloadKind::Compress, WorkloadKind::Go] {
            let count = |scale| {
                let w = k.build(scale);
                let mut m = Machine::new(&w.program);
                m.run(&w.program, u64::MAX)
            };
            let one = count(1);
            let three = count(3);
            assert!(
                three > 2 * one,
                "{k}: scale 3 ({three}) should be ~3x scale 1 ({one})"
            );
        }
    }

    #[test]
    fn workloads_are_deterministic() {
        let run = || {
            let w = WorkloadKind::Perl.build(1);
            let mut m = Machine::new(&w.program);
            m.run(&w.program, u64::MAX);
            m.reg(CHECKSUM_REG)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn xorshift_is_deterministic_and_bounded() {
        let a = xorshift_bytes(42, 100, 256);
        let b = xorshift_bytes(42, 100, 256);
        assert_eq!(a, b);
        assert!(a.iter().all(|&v| v < 256));
        assert_ne!(a, xorshift_bytes(43, 100, 256));
    }

    #[test]
    fn every_workload_has_branches() {
        for k in WorkloadKind::all() {
            let w = k.build(1);
            assert!(
                w.program.static_branch_count() >= 4,
                "{} has too few branch sites",
                k
            );
        }
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn zero_scale_rejected() {
        let _ = WorkloadKind::Go.build(0);
    }
}
