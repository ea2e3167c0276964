//! Instruction definitions and the disassembler.

use crate::Reg;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Arithmetic/logic operation selector for [`Inst::Alu`] and [`Inst::AluImm`].
///
/// All operations are total: shifts mask the shift amount to 5 bits, and
/// division or remainder by zero yields `0` (architecturally defined, no
/// fault), so wrong-path execution can never trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical left shift (amount masked to 5 bits).
    Sll,
    /// Logical right shift (amount masked to 5 bits).
    Srl,
    /// Arithmetic right shift (amount masked to 5 bits).
    Sra,
    /// Signed set-less-than: `1` if `rs1 < rs2` as `i32`, else `0`.
    Slt,
    /// Unsigned set-less-than.
    Sltu,
    /// Wrapping multiplication (low 32 bits).
    Mul,
    /// Signed division; division by zero yields `0`.
    Div,
    /// Signed remainder; remainder by zero yields `0`.
    Rem,
}

impl AluOp {
    /// Applies the operation to two operand values.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => ((a as i32) < (b as i32)) as u32,
            AluOp::Sltu => (a < b) as u32,
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    0
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            AluOp::Rem => {
                if b == 0 {
                    0
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
        }
    }

    /// Assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Rem => "rem",
        }
    }
}

/// Comparison condition for conditional branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed greater-or-equal.
    Ge,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl Cond {
    /// Evaluates the condition on two register values.
    #[inline]
    pub fn eval(self, a: u32, b: u32) -> bool {
        match self {
            Cond::Eq => a == b,
            Cond::Ne => a != b,
            Cond::Lt => (a as i32) < (b as i32),
            Cond::Ge => (a as i32) >= (b as i32),
            Cond::Le => (a as i32) <= (b as i32),
            Cond::Gt => (a as i32) > (b as i32),
            Cond::Ltu => a < b,
            Cond::Geu => a >= b,
        }
    }

    /// Assembler mnemonic suffix (`beq`, `bne`, ...).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "beq",
            Cond::Ne => "bne",
            Cond::Lt => "blt",
            Cond::Ge => "bge",
            Cond::Le => "ble",
            Cond::Gt => "bgt",
            Cond::Ltu => "bltu",
            Cond::Geu => "bgeu",
        }
    }
}

/// One machine instruction.
///
/// Program counters and branch targets are *instruction indices* (the machine
/// is word-addressed for both code and data). Memory addresses computed by
/// loads and stores are word indices into the 32-bit address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Inst {
    /// `rd = op(rs1, rs2)`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// `rd = op(rs1, imm)`.
    AluImm {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (sign-extended to 32 bits).
        imm: i32,
    },
    /// `rd = imm` (full 32-bit immediate load).
    Li {
        /// Destination register.
        rd: Reg,
        /// Immediate value.
        imm: i32,
    },
    /// `rd = mem[rs1 + off]`.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: i32,
    },
    /// `mem[rs1 + off] = rs`.
    Store {
        /// Source register holding the value to store.
        rs: Reg,
        /// Base address register.
        base: Reg,
        /// Word offset.
        off: i32,
    },
    /// Conditional branch: if `cond(rs1, rs2)` then `pc = target` else fall
    /// through. This is the only instruction the branch predictors and
    /// confidence estimators observe.
    Branch {
        /// Comparison condition.
        cond: Cond,
        /// First comparison operand.
        rs1: Reg,
        /// Second comparison operand.
        rs2: Reg,
        /// Target instruction index when taken.
        target: u32,
    },
    /// Unconditional direct jump.
    Jump {
        /// Target instruction index.
        target: u32,
    },
    /// Direct call: `ra = pc + 1; pc = target`.
    Call {
        /// Target instruction index.
        target: u32,
    },
    /// Indirect return: `pc = ra`.
    Ret,
    /// Stops the machine.
    Halt,
    /// No operation.
    Nop,
}

impl Inst {
    /// `true` for conditional branches (the instructions predictors observe).
    #[inline]
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Source registers read by the instruction (used by the pipeline's
    /// dataflow timing model).
    #[inline]
    pub fn srcs(&self) -> (Option<Reg>, Option<Reg>) {
        match *self {
            Inst::Alu { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Inst::AluImm { rs1, .. } => (Some(rs1), None),
            Inst::Li { .. } => (None, None),
            Inst::Load { base, .. } => (Some(base), None),
            Inst::Store { rs, base, .. } => (Some(rs), Some(base)),
            Inst::Branch { rs1, rs2, .. } => (Some(rs1), Some(rs2)),
            Inst::Jump { .. } | Inst::Call { .. } => (None, None),
            Inst::Ret => (Some(Reg::RA), None),
            Inst::Halt | Inst::Nop => (None, None),
        }
    }

    /// Destination register written by the instruction, if any.
    #[inline]
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Alu { rd, .. }
            | Inst::AluImm { rd, .. }
            | Inst::Li { rd, .. }
            | Inst::Load { rd, .. } => Some(rd).filter(|r| !r.is_zero()),
            Inst::Call { .. } => Some(Reg::RA),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, rd, rs1, rs2 } => {
                write!(f, "{} {}, {}, {}", op.mnemonic(), rd, rs1, rs2)
            }
            Inst::AluImm { op, rd, rs1, imm } => {
                write!(f, "{}i {}, {}, {}", op.mnemonic(), rd, rs1, imm)
            }
            Inst::Li { rd, imm } => write!(f, "li {rd}, {imm}"),
            Inst::Load { rd, base, off } => write!(f, "lw {rd}, {off}({base})"),
            Inst::Store { rs, base, off } => write!(f, "sw {rs}, {off}({base})"),
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target,
            } => write!(f, "{} {}, {}, @{}", cond.mnemonic(), rs1, rs2, target),
            Inst::Jump { target } => write!(f, "j @{target}"),
            Inst::Call { target } => write!(f, "call @{target}"),
            Inst::Ret => f.write_str("ret"),
            Inst::Halt => f.write_str("halt"),
            Inst::Nop => f.write_str("nop"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_ops_match_reference_semantics() {
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u32::MAX);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.apply(1, 4), 16);
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Slt.apply(-1i32 as u32, 0), 1);
        assert_eq!(AluOp::Sltu.apply(-1i32 as u32, 0), 0);
        assert_eq!(AluOp::Mul.apply(7, 6), 42);
        assert_eq!(AluOp::Div.apply(-7i32 as u32, 2), -3i32 as u32);
        assert_eq!(AluOp::Rem.apply(7, 3), 1);
    }

    #[test]
    fn shift_amounts_are_masked() {
        assert_eq!(AluOp::Sll.apply(1, 32), 1);
        assert_eq!(AluOp::Srl.apply(2, 33), 1);
    }

    #[test]
    fn division_by_zero_is_total() {
        assert_eq!(AluOp::Div.apply(5, 0), 0);
        assert_eq!(AluOp::Rem.apply(5, 0), 0);
        // i32::MIN / -1 must not trap either.
        assert_eq!(
            AluOp::Div.apply(i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
    }

    #[test]
    fn complementary_conditions_never_agree() {
        let pairs = [(0u32, 0u32), (1, 2), (2, 1), (u32::MAX, 0), (0, u32::MAX)];
        for (c, not_c) in [
            (Cond::Eq, Cond::Ne),
            (Cond::Lt, Cond::Ge),
            (Cond::Le, Cond::Gt),
            (Cond::Ltu, Cond::Geu),
        ] {
            for (a, b) in pairs {
                assert_ne!(c.eval(a, b), not_c.eval(a, b), "{c:?} {a} {b}");
            }
        }
    }

    #[test]
    fn signedness_of_conditions() {
        let minus_one = -1i32 as u32;
        assert!(Cond::Lt.eval(minus_one, 0));
        assert!(!Cond::Ltu.eval(minus_one, 0));
        assert!(Cond::Geu.eval(minus_one, 0));
    }

    #[test]
    fn src_dst_extraction() {
        let i = Inst::Alu {
            op: AluOp::Add,
            rd: Reg::T0,
            rs1: Reg::T1,
            rs2: Reg::T2,
        };
        assert_eq!(i.srcs(), (Some(Reg::T1), Some(Reg::T2)));
        assert_eq!(i.dst(), Some(Reg::T0));

        let st = Inst::Store {
            rs: Reg::T3,
            base: Reg::S0,
            off: 4,
        };
        assert_eq!(st.srcs(), (Some(Reg::T3), Some(Reg::S0)));
        assert_eq!(st.dst(), None);

        let call = Inst::Call { target: 7 };
        assert_eq!(call.dst(), Some(Reg::RA));

        // Writes to the zero register are architecturally invisible.
        let z = Inst::Li {
            rd: Reg::ZERO,
            imm: 5,
        };
        assert_eq!(z.dst(), None);
    }

    #[test]
    fn classification_helpers() {
        let b = Inst::Branch {
            cond: Cond::Eq,
            rs1: Reg::T0,
            rs2: Reg::ZERO,
            target: 0,
        };
        assert!(b.is_cond_branch());
        assert!(!Inst::Ret.is_cond_branch());
    }

    #[test]
    fn disassembly_is_readable() {
        let i = Inst::Branch {
            cond: Cond::Lt,
            rs1: Reg::T0,
            rs2: Reg::T1,
            target: 12,
        };
        assert_eq!(i.to_string(), "blt t0, t1, @12");
        assert_eq!(Inst::Halt.to_string(), "halt");
    }
}
