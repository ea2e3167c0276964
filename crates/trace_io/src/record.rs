//! The trace record, its classification from ISA instructions, and the
//! structured import error.

use cestim_isa::{AluOp, Inst, Reg, Step};
use serde::{Deserialize, Serialize};

/// Register byte meaning "no register" in a [`TraceRecord`].
pub const NO_REG: u8 = 0xff;

/// Instruction class of a trace record.
///
/// Classes are what the replay frontend times by: branches enter the
/// speculation window, loads/stores access the D-cache at the recorded
/// address, `Mul`/`Div` carry the long ALU latencies, and `Jump`/`Call`/
/// `Ret` redirect fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceClass {
    /// Conditional branch; `target` is the taken-path target, `taken` the
    /// resolved direction.
    CondBranch,
    /// Unconditional jump; `target` is the destination PC.
    Jump,
    /// Call (writes the return-address register); `target` is the callee.
    Call,
    /// Return; `target` is the return destination.
    Ret,
    /// Load; `target` is the word address read.
    Load,
    /// Store; `target` is the word address written.
    Store,
    /// Single-cycle ALU work (including immediates, `li`, `nop`).
    Alu,
    /// Multiply (3-cycle latency).
    Mul,
    /// Divide / remainder (12-cycle latency).
    Div,
    /// Program halt; always the final record of a complete trace.
    Halt,
}

impl TraceClass {
    /// Every class, in wire-encoding order (the binary class byte is the
    /// position in this table).
    pub const ALL: [TraceClass; 10] = [
        TraceClass::CondBranch,
        TraceClass::Jump,
        TraceClass::Call,
        TraceClass::Ret,
        TraceClass::Load,
        TraceClass::Store,
        TraceClass::Alu,
        TraceClass::Mul,
        TraceClass::Div,
        TraceClass::Halt,
    ];

    /// Wire byte of this class.
    pub fn to_u8(self) -> u8 {
        TraceClass::ALL
            .iter()
            .position(|&c| c == self)
            .expect("class in ALL") as u8
    }

    /// Class for a wire byte, `None` for unknown values.
    pub fn from_u8(b: u8) -> Option<TraceClass> {
        TraceClass::ALL.get(b as usize).copied()
    }

    /// Stable lowercase name used by the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            TraceClass::CondBranch => "branch",
            TraceClass::Jump => "jump",
            TraceClass::Call => "call",
            TraceClass::Ret => "ret",
            TraceClass::Load => "load",
            TraceClass::Store => "store",
            TraceClass::Alu => "alu",
            TraceClass::Mul => "mul",
            TraceClass::Div => "div",
            TraceClass::Halt => "halt",
        }
    }

    /// Parses a JSONL class name.
    pub fn from_name(name: &str) -> Option<TraceClass> {
        TraceClass::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// One retired instruction of a branch trace.
///
/// `pc` and `target` are word indexes (instruction index for control flow,
/// word address for memory), matching the ISA's addressing. `dst`/`s1`/`s2`
/// are register indexes with [`NO_REG`] for "none" — they exist so replay
/// can rebuild the dataflow scoreboard that times branch resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Instruction index.
    pub pc: u32,
    /// Class-dependent payload: branch target, redirect destination, or
    /// memory word address (0 for plain ALU work and halt).
    pub target: u32,
    /// Resolved direction of a [`TraceClass::CondBranch`] (false otherwise).
    pub taken: bool,
    /// Instruction class.
    pub class: TraceClass,
    /// Destination register index or [`NO_REG`].
    pub dst: u8,
    /// First source register index or [`NO_REG`].
    pub s1: u8,
    /// Second source register index or [`NO_REG`].
    pub s2: u8,
}

impl TraceRecord {
    /// Classifies one architecturally executed instruction into a record.
    ///
    /// `inst` is the instruction at `pc` and `step` what executing it did
    /// (the step supplies the data-dependent payloads: branch direction and
    /// taken-target, redirect destinations, memory addresses). Equal to
    /// [`decode`](Self::decode) followed by [`with_step`](Self::with_step).
    pub fn classify(pc: u32, inst: &Inst, step: &Step) -> TraceRecord {
        TraceRecord::decode(pc, inst).with_step(step)
    }

    /// The part of an instruction's record that decoding alone fixes: its
    /// class and registers, with no target and not taken.
    pub fn decode(pc: u32, inst: &Inst) -> TraceRecord {
        let reg = |r: Option<Reg>| r.map_or(NO_REG, |r| r.index() as u8);
        let (s1, s2) = inst.srcs();
        let class = match inst {
            Inst::Branch { .. } => TraceClass::CondBranch,
            Inst::Jump { .. } => TraceClass::Jump,
            Inst::Call { .. } => TraceClass::Call,
            Inst::Ret => TraceClass::Ret,
            Inst::Load { .. } => TraceClass::Load,
            Inst::Store { .. } => TraceClass::Store,
            Inst::Halt => TraceClass::Halt,
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => alu_class(*op),
            Inst::Li { .. } | Inst::Nop => TraceClass::Alu,
        };
        TraceRecord {
            pc,
            target: 0,
            taken: false,
            class,
            dst: reg(inst.dst()),
            s1: reg(s1),
            s2: reg(s2),
        }
    }

    /// Completes a [`decode`](Self::decode)d record with what executing the
    /// instruction did. Steps without a payload (ALU work, halt) leave it
    /// unchanged.
    #[inline]
    pub fn with_step(mut self, step: &Step) -> TraceRecord {
        match *step {
            Step::Branch { taken, target, .. } => {
                self.taken = taken;
                self.target = target;
            }
            Step::Jump { target } | Step::Call { target } | Step::Ret { target } => {
                self.target = target;
            }
            Step::Load { addr } | Step::Store { addr } => self.target = addr,
            Step::Alu | Step::Halt | Step::Nop | Step::OutOfRange => {}
        }
        self
    }

    /// Validates the register bytes (each [`NO_REG`] or a real register
    /// index), so replay can index its scoreboard without bounds checks.
    pub(crate) fn check_regs(&self, index: u64) -> Result<(), TraceError> {
        for b in [self.dst, self.s1, self.s2] {
            if b != NO_REG && b as usize >= Reg::COUNT {
                return Err(TraceError::BadReg { index, value: b });
            }
        }
        Ok(())
    }
}

fn alu_class(op: AluOp) -> TraceClass {
    match op {
        AluOp::Mul => TraceClass::Mul,
        AluOp::Div | AluOp::Rem => TraceClass::Div,
        _ => TraceClass::Alu,
    }
}

/// Structured import failure. The importers are total: every malformed
/// input maps to one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Fewer bytes than the binary header.
    TruncatedHeader {
        /// Bytes present.
        len: usize,
    },
    /// The binary magic is absent.
    BadMagic,
    /// The format version is not [`crate::TRACE_VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The body holds fewer complete records than the header promised
    /// (mid-record truncation included).
    TruncatedRecords {
        /// Header record count.
        expected: u64,
        /// Complete records actually present.
        found: u64,
    },
    /// Bytes beyond the promised record count.
    TrailingBytes {
        /// Extra byte count.
        bytes: usize,
    },
    /// Unknown class byte.
    BadClass {
        /// Record index.
        index: u64,
        /// Offending byte.
        value: u8,
    },
    /// Reserved flag bits set.
    BadFlags {
        /// Record index.
        index: u64,
        /// Offending flags byte.
        value: u8,
    },
    /// Nonzero padding bytes.
    BadPad {
        /// Record index.
        index: u64,
    },
    /// Register byte that is neither [`NO_REG`] nor a real register.
    BadReg {
        /// Record index.
        index: u64,
        /// Offending byte.
        value: u8,
    },
    /// The JSONL header line is missing or malformed.
    JsonlHeader {
        /// What was wrong.
        reason: String,
    },
    /// A terminated JSONL record line failed to parse or validate.
    JsonlLine {
        /// 1-based line number in the file.
        line: u64,
        /// What was wrong.
        reason: String,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::TruncatedHeader { len } => {
                write!(f, "truncated header: {len} bytes")
            }
            TraceError::BadMagic => write!(f, "bad magic (not a cestim trace)"),
            TraceError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported trace version {found} (this reader speaks {})",
                    crate::TRACE_VERSION
                )
            }
            TraceError::TruncatedRecords { expected, found } => {
                write!(
                    f,
                    "truncated records: header promises {expected}, found {found}"
                )
            }
            TraceError::TrailingBytes { bytes } => {
                write!(f, "{bytes} trailing bytes after the promised records")
            }
            TraceError::BadClass { index, value } => {
                write!(f, "record {index}: unknown class byte {value:#04x}")
            }
            TraceError::BadFlags { index, value } => {
                write!(f, "record {index}: reserved flag bits set ({value:#04x})")
            }
            TraceError::BadPad { index } => {
                write!(f, "record {index}: nonzero padding")
            }
            TraceError::BadReg { index, value } => {
                write!(f, "record {index}: bad register byte {value:#04x}")
            }
            TraceError::JsonlHeader { reason } => write!(f, "bad JSONL header: {reason}"),
            TraceError::JsonlLine { line, reason } => {
                write!(f, "bad JSONL record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_bytes_round_trip() {
        for c in TraceClass::ALL {
            assert_eq!(TraceClass::from_u8(c.to_u8()), Some(c));
            assert_eq!(TraceClass::from_name(c.name()), Some(c));
        }
        assert_eq!(TraceClass::from_u8(10), None);
        assert_eq!(TraceClass::from_name("wat"), None);
    }

    #[test]
    fn classify_covers_the_isa() {
        let r = TraceRecord::classify(
            3,
            &Inst::Branch {
                cond: cestim_isa::Cond::Lt,
                rs1: Reg::T0,
                rs2: Reg::T1,
                target: 9,
            },
            &Step::Branch {
                taken: true,
                followed: true,
                target: 9,
            },
        );
        assert_eq!(r.class, TraceClass::CondBranch);
        assert_eq!((r.pc, r.target, r.taken), (3, 9, true));
        assert_eq!(r.dst, NO_REG);
        assert_eq!(r.s1, Reg::T0.index() as u8);

        let r = TraceRecord::classify(
            0,
            &Inst::Alu {
                op: AluOp::Div,
                rd: Reg::T2,
                rs1: Reg::T0,
                rs2: Reg::T1,
            },
            &Step::Alu,
        );
        assert_eq!(r.class, TraceClass::Div);
        assert_eq!(r.dst, Reg::T2.index() as u8);

        let r = TraceRecord::classify(
            1,
            &Inst::Load {
                rd: Reg::T0,
                base: Reg::S0,
                off: 2,
            },
            &Step::Load { addr: 42 },
        );
        assert_eq!((r.class, r.target), (TraceClass::Load, 42));

        let r = TraceRecord::classify(5, &Inst::Halt, &Step::Halt);
        assert_eq!(r.class, TraceClass::Halt);
    }

    #[test]
    fn errors_render() {
        for e in [
            TraceError::BadMagic,
            TraceError::UnsupportedVersion { found: 9 },
            TraceError::TruncatedRecords {
                expected: 5,
                found: 3,
            },
            TraceError::JsonlLine {
                line: 7,
                reason: "x".into(),
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
