//! Interpreter-driven trace export.
//!
//! [`export_program`] runs the architectural interpreter and records one
//! [`TraceRecord`] per retired instruction, including the final halt. It is
//! deliberately *independent* of the pipeline simulator's capture hook
//! (`Simulator::set_trace_capture`): the qa `trace` oracle diffs the two
//! exporters against each other, rvsim-vs-spike style, so a bug in either
//! path shows up as a divergence.

use crate::record::TraceRecord;
use cestim_isa::{Inst, Machine, Program};

/// Export failure: the program did not produce a complete trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExportError {
    /// The step budget ran out before the program halted.
    DidNotHalt {
        /// Steps executed.
        steps: u64,
    },
    /// The PC left the program (a bug in the traced program).
    OutOfRange {
        /// The offending PC.
        pc: u32,
    },
}

impl std::fmt::Display for ExportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExportError::DidNotHalt { steps } => {
                write!(f, "program did not halt within {steps} steps")
            }
            ExportError::OutOfRange { pc } => write!(f, "pc {pc} ran off the program"),
        }
    }
}

impl std::error::Error for ExportError {}

/// Executes `program` architecturally and returns its complete trace: one
/// record per retired instruction — the halt included, so a complete
/// trace's record count equals the pipeline's `committed_insts`.
pub fn export_program(program: &Program, max_steps: u64) -> Result<Vec<TraceRecord>, ExportError> {
    // Each static instruction is decoded once; a retired instruction only
    // adds what executing it did.
    let decoded: Vec<(Inst, TraceRecord)> = (0u32..)
        .zip(program.insts())
        .map(|(pc, &inst)| (inst, TraceRecord::decode(pc, &inst)))
        .collect();
    let mut m = Machine::new(program);
    let mut out = Vec::new();
    for _ in 0..max_steps {
        if m.halted() {
            return Ok(out);
        }
        let pc = m.pc();
        let Some(&(inst, rec)) = decoded.get(pc as usize) else {
            return Err(ExportError::OutOfRange { pc });
        };
        out.push(rec.with_step(&m.step_decoded(inst, None)));
    }
    if m.halted() {
        Ok(out)
    } else {
        Err(ExportError::DidNotHalt { steps: max_steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceClass;
    use cestim_isa::{ProgramBuilder, Reg};

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

    #[test]
    fn exports_the_committed_stream() {
        let p = counted_loop(10);
        let t = export_program(&p, 1_000_000).unwrap();
        // 2 li + 10 × (addi, blt) + halt.
        assert_eq!(t.len(), 23);
        assert_eq!(t.last().unwrap().class, TraceClass::Halt);
        let branches: Vec<&TraceRecord> = t
            .iter()
            .filter(|r| r.class == TraceClass::CondBranch)
            .collect();
        assert_eq!(branches.len(), 10);
        // 9 taken back-edges, 1 not-taken exit.
        assert_eq!(branches.iter().filter(|r| r.taken).count(), 9);
        assert!(!branches.last().unwrap().taken);
        // The machine interprets the same run deterministically.
        assert_eq!(export_program(&p, 1_000_000).unwrap(), t);
    }

    #[test]
    fn step_budget_is_enforced() {
        let p = counted_loop(1000);
        assert_eq!(
            export_program(&p, 10),
            Err(ExportError::DidNotHalt { steps: 10 })
        );
    }
}
