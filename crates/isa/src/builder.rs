//! Assembler-style program construction with labels and a data segment.

use crate::{AluOp, BuildError, Cond, DataBlock, Inst, Program, Reg};

/// A forward-referenceable code location.
///
/// Created with [`ProgramBuilder::label`], attached to the next emitted
/// instruction with [`ProgramBuilder::bind`], and referenced by branch and
/// jump helpers. Labels may be referenced before they are bound; unbound
/// labels are reported by [`ProgramBuilder::build`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Incremental builder for [`Program`]s.
///
/// The builder mirrors a tiny assembler: instruction helpers append one
/// instruction each, labels name positions, and `alloc`/`alloc_zeroed`
/// reserve initialized data. Data addresses start at a fixed base
/// ([`ProgramBuilder::DATA_BASE`]) so that small immediate constants never
/// collide with allocated data.
///
/// # Example
///
/// ```
/// use cestim_isa::{ProgramBuilder, Reg};
///
/// # fn main() -> Result<(), cestim_isa::BuildError> {
/// let mut b = ProgramBuilder::new();
/// let data = b.alloc(&[5, 4, 3, 2, 1]);
/// let done = b.label();
/// b.li(Reg::S0, data as i32); // base pointer
/// b.li(Reg::T0, 0);           // sum
/// b.li(Reg::T1, 0);           // index
/// let top = b.label();
/// b.bind(top);
/// b.bge(Reg::T1, Reg::A0, done);
/// b.add(Reg::T2, Reg::S0, Reg::T1);
/// b.lw(Reg::T3, Reg::T2, 0);
/// b.add(Reg::T0, Reg::T0, Reg::T3);
/// b.addi(Reg::T1, Reg::T1, 1);
/// b.j(top);
/// b.bind(done);
/// b.halt();
/// let prog = b.build()?;
/// assert_eq!(prog.static_branch_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: Vec<Option<u32>>,
    patches: Vec<(usize, Label)>,
    data: Vec<DataBlock>,
    next_data: u32,
}

impl ProgramBuilder {
    /// First word address handed out for data allocations.
    pub const DATA_BASE: u32 = 0x0001_0000;

    /// Creates an empty builder.
    pub fn new() -> ProgramBuilder {
        ProgramBuilder {
            next_data: Self::DATA_BASE,
            ..ProgramBuilder::default()
        }
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the position of the *next* emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label is already bound (a builder-usage bug).
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label {} bound twice", label.0);
        *slot = Some(self.insts.len() as u32);
    }

    /// Allocates and initializes a block of data words, returning its base
    /// word address.
    pub fn alloc(&mut self, words: &[u32]) -> u32 {
        let base = self.next_data;
        self.next_data = self
            .next_data
            .checked_add(words.len() as u32)
            .expect("data segment overflow");
        self.data.push(DataBlock {
            base,
            words: words.to_vec(),
        });
        base
    }

    /// Allocates `len` zeroed words, returning the base word address.
    pub fn alloc_zeroed(&mut self, len: u32) -> u32 {
        let base = self.next_data;
        self.next_data = self
            .next_data
            .checked_add(len)
            .expect("data segment overflow");
        // Zero is the default memory value; recording the block anyway keeps
        // the program image self-describing.
        self.data.push(DataBlock {
            base,
            words: vec![0; len as usize],
        });
        base
    }

    /// Appends a raw instruction.
    pub fn emit(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    fn emit_patched(&mut self, inst: Inst, label: Label) {
        self.patches.push((self.insts.len(), label));
        self.insts.push(inst);
    }

    /// Resolves all labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any referenced label was never
    /// bound and [`BuildError::EmptyProgram`] for an instruction-less
    /// program.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if self.insts.is_empty() {
            return Err(BuildError::EmptyProgram);
        }
        for &(at, label) in &self.patches {
            let target =
                self.labels[label.0].ok_or(BuildError::UnboundLabel { label: label.0, at })?;
            match &mut self.insts[at] {
                Inst::Branch { target: t, .. }
                | Inst::Jump { target: t }
                | Inst::Call { target: t } => *t = target,
                other => unreachable!("patch target on non-control instruction {other}"),
            }
        }
        Ok(Program::from_parts(self.insts, self.data, 0))
    }

    // ---- ALU helpers -----------------------------------------------------

    /// `rd = rs1 + rs2`.
    pub fn add(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 - rs2`.
    pub fn sub(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Sub,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 & rs2`.
    pub fn and(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::And,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 | rs2`.
    pub fn or(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Or,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 ^ rs2`.
    pub fn xor(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Xor,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 << (rs2 & 31)`.
    pub fn sll(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Sll,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 >> (rs2 & 31)` (logical).
    pub fn srl(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Srl,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 * rs2` (wrapping).
    pub fn mul(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Mul,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 / rs2` (signed; `0` when `rs2 == 0`).
    pub fn div(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Div,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = rs1 % rs2` (signed; `0` when `rs2 == 0`).
    pub fn rem(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Rem,
            rd,
            rs1,
            rs2,
        });
    }
    /// `rd = (rs1 < rs2) as u32` (signed).
    pub fn slt(&mut self, rd: Reg, rs1: Reg, rs2: Reg) {
        self.emit(Inst::Alu {
            op: AluOp::Slt,
            rd,
            rs1,
            rs2,
        });
    }

    /// `rd = rs1 + imm`.
    pub fn addi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 & imm`.
    pub fn andi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::And,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 ^ imm`.
    pub fn xori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Xor,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 | imm`.
    pub fn ori(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Or,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 << imm`.
    pub fn slli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Sll,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 >> imm` (logical).
    pub fn srli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Srl,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 * imm`.
    pub fn muli(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Mul,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = rs1 % imm`.
    pub fn remi(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Rem,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = (rs1 < imm) as u32` (signed).
    pub fn slti(&mut self, rd: Reg, rs1: Reg, imm: i32) {
        self.emit(Inst::AluImm {
            op: AluOp::Slt,
            rd,
            rs1,
            imm,
        });
    }
    /// `rd = imm`.
    pub fn li(&mut self, rd: Reg, imm: i32) {
        self.emit(Inst::Li { rd, imm });
    }
    /// `rd = rs` (register move, encoded as `add rd, rs, zero`).
    pub fn mv(&mut self, rd: Reg, rs: Reg) {
        self.add(rd, rs, Reg::ZERO);
    }
    /// No operation.
    pub fn nop(&mut self) {
        self.emit(Inst::Nop);
    }

    // ---- memory helpers --------------------------------------------------

    /// `rd = mem[base + off]`.
    pub fn lw(&mut self, rd: Reg, base: Reg, off: i32) {
        self.emit(Inst::Load { rd, base, off });
    }
    /// `mem[base + off] = rs`.
    pub fn sw(&mut self, rs: Reg, base: Reg, off: i32) {
        self.emit(Inst::Store { rs, base, off });
    }

    // ---- control-flow helpers --------------------------------------------

    /// Conditional branch with an explicit condition.
    pub fn branch(&mut self, cond: Cond, rs1: Reg, rs2: Reg, target: Label) {
        self.emit_patched(
            Inst::Branch {
                cond,
                rs1,
                rs2,
                target: u32::MAX,
            },
            target,
        );
    }
    /// Branch if equal.
    pub fn beq(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Eq, rs1, rs2, target);
    }
    /// Branch if not equal.
    pub fn bne(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Ne, rs1, rs2, target);
    }
    /// Branch if signed less-than.
    pub fn blt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Lt, rs1, rs2, target);
    }
    /// Branch if signed greater-or-equal.
    pub fn bge(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Ge, rs1, rs2, target);
    }
    /// Branch if signed less-or-equal.
    pub fn ble(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Le, rs1, rs2, target);
    }
    /// Branch if signed greater-than.
    pub fn bgt(&mut self, rs1: Reg, rs2: Reg, target: Label) {
        self.branch(Cond::Gt, rs1, rs2, target);
    }
    /// Branch if equal to zero.
    pub fn beqz(&mut self, rs1: Reg, target: Label) {
        self.beq(rs1, Reg::ZERO, target);
    }
    /// Branch if not equal to zero.
    pub fn bnez(&mut self, rs1: Reg, target: Label) {
        self.bne(rs1, Reg::ZERO, target);
    }
    /// Unconditional jump.
    pub fn j(&mut self, target: Label) {
        self.emit_patched(Inst::Jump { target: u32::MAX }, target);
    }
    /// Call: `ra = pc + 1; pc = target`.
    pub fn call(&mut self, target: Label) {
        self.emit_patched(Inst::Call { target: u32::MAX }, target);
    }
    /// Return: `pc = ra`.
    pub fn ret(&mut self) {
        self.emit(Inst::Ret);
    }
    /// Stop the machine.
    pub fn halt(&mut self) {
        self.emit(Inst::Halt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut b = ProgramBuilder::new();
        let fwd = b.label();
        b.li(Reg::T0, 0);
        let back = b.label();
        b.bind(back);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, back); // backward
        b.j(fwd); // forward... bound below
        b.bind(fwd);
        b.halt();
        let p = b.build().unwrap();
        match p.insts()[2] {
            Inst::Branch { target, .. } => assert_eq!(target, 1),
            ref other => panic!("expected branch, got {other}"),
        }
        match p.insts()[3] {
            Inst::Jump { target } => assert_eq!(target, 4),
            ref other => panic!("expected jump, got {other}"),
        }
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.j(l);
        match b.build() {
            Err(BuildError::UnboundLabel { label: 0, at: 0 }) => {}
            other => panic!("expected unbound label error, got {other:?}"),
        }
    }

    #[test]
    fn empty_program_is_an_error() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            BuildError::EmptyProgram
        );
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_panics() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn data_allocations_are_disjoint_and_loaded() {
        let mut b = ProgramBuilder::new();
        let a = b.alloc(&[1, 2, 3]);
        let z = b.alloc_zeroed(10);
        let c = b.alloc(&[9]);
        assert_eq!(a, ProgramBuilder::DATA_BASE);
        assert_eq!(z, a + 3);
        assert_eq!(c, z + 10);
        b.halt();
        let p = b.build().unwrap();
        let m = Machine::new(&p);
        assert_eq!(m.mem().read(a + 1), 2);
        assert_eq!(m.mem().read(c), 9);
        assert_eq!(m.mem().read(z + 5), 0);
    }

    #[test]
    fn built_loop_executes_correctly() {
        let mut b = ProgramBuilder::new();
        b.li(Reg::T0, 0);
        b.li(Reg::T1, 5);
        let top = b.label();
        b.bind(top);
        b.addi(Reg::T0, Reg::T0, 1);
        b.blt(Reg::T0, Reg::T1, top);
        b.halt();
        let p = b.build().unwrap();
        let mut m = Machine::new(&p);
        m.run(&p, 1_000);
        assert!(m.halted());
        assert_eq!(m.reg(Reg::T0), 5);
    }
}
