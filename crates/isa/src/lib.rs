//! # cestim-isa
//!
//! A small RISC instruction set, an assembler-style program builder, and an
//! architectural interpreter with checkpoint/rollback support.
//!
//! This crate is the execution substrate for the confidence-estimation study
//! in the companion crates. The paper ([Klauser et al., ISCA 1998]) used the
//! SimpleScalar PISA ISA; confidence estimation only observes the *dynamic
//! conditional branch stream* (branch PC, direction, and predictor state), so
//! any ISA that produces realistic branch streams exercises the same
//! machinery. This ISA is deliberately minimal:
//!
//! * 32 general-purpose 32-bit registers, `r0` hard-wired to zero,
//! * three-operand ALU ops (register and immediate forms),
//! * word-addressed loads and stores,
//! * conditional branches comparing two registers,
//! * direct jumps and calls, register-indirect returns, and `halt`.
//!
//! The [`Machine`] interpreter executes instructions architecturally and can
//! snapshot/restore its complete state ([`Machine::checkpoint`] /
//! [`Machine::restore`]), which is what lets the pipeline simulator execute
//! down *wrong paths* and recover — the capability the paper's "speculative
//! trace" methodology depends on. A checkpoint is a position in one
//! [`UndoLog`] of register and memory writes, which the machine keeps only
//! once a checkpoint has been taken; the pipeline rewinds its scoreboard
//! with the same log type.
//!
//! ## Example
//!
//! ```
//! use cestim_isa::{ProgramBuilder, Machine, Reg, Step};
//!
//! # fn main() -> Result<(), cestim_isa::BuildError> {
//! let mut b = ProgramBuilder::new();
//! let top = b.label();
//! b.li(Reg::T0, 0);
//! b.li(Reg::T1, 10);
//! b.bind(top);
//! b.addi(Reg::T0, Reg::T0, 1);
//! b.blt(Reg::T0, Reg::T1, top);
//! b.halt();
//! let prog = b.build()?;
//!
//! let mut m = Machine::new(&prog);
//! while !m.halted() {
//!     m.step(&prog);
//! }
//! assert_eq!(m.reg(Reg::T0), 10);
//! # Ok(())
//! # }
//! ```
//!
//! [Klauser et al., ISCA 1998]: https://doi.org/10.1109/ISCA.1998.694766

#![warn(missing_docs)]

pub mod asm;
mod builder;
mod error;
mod inst;
mod interp;
mod mem;
mod program;
mod reg;
mod undo;

pub use asm::{parse_asm, ParseError};
pub use builder::{Label, ProgramBuilder};
pub use error::BuildError;
pub use inst::{AluOp, Cond, Inst};
pub use interp::{Checkpoint, Machine, Step};
pub use mem::SparseMemory;
pub use program::{DataBlock, Program};
pub use reg::{regs, Reg};
pub use undo::UndoLog;
