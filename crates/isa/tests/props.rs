//! Property tests for the interpreter's checkpoint/rollback machinery and
//! the undo log over memory.

use cestim_isa::{AluOp, Inst, Machine, Program, Reg, SparseMemory, UndoLog};
use proptest::prelude::*;
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// SparseMemory + UndoLog vs a naive model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum MemOp {
    Write(u16, u32), // small address space to force page sharing
    Mark,
    RollbackLast,
    ReleaseOldest,
}

fn mem_ops() -> impl Strategy<Value = Vec<MemOp>> {
    prop::collection::vec(
        prop_oneof![
            4 => (any::<u16>(), any::<u32>()).prop_map(|(a, v)| MemOp::Write(a, v)),
            2 => Just(MemOp::Mark),
            1 => Just(MemOp::RollbackLast),
            1 => Just(MemOp::ReleaseOldest),
        ],
        0..120,
    )
}

proptest! {
    /// Memory whose writes feed an undo log (through the returned old
    /// word) behaves exactly like a map plus an explicit snapshot stack.
    #[test]
    fn sparse_memory_matches_model(ops in mem_ops()) {
        let mut mem = SparseMemory::new();
        let mut log = UndoLog::new();
        let mut model: HashMap<u16, u32> = HashMap::new();
        // Stack of (mark, model snapshot); released marks leave the front.
        let mut stack: Vec<(u64, HashMap<u16, u32>)> = Vec::new();

        for op in ops {
            match op {
                MemOp::Write(a, v) => {
                    log.push((a as u32, mem.write(a as u32, v)));
                    model.insert(a, v);
                }
                MemOp::Mark => stack.push((log.mark(), model.clone())),
                MemOp::RollbackLast => {
                    if let Some((mark, snap)) = stack.pop() {
                        log.rollback(mark, |(a, old)| {
                            mem.write(a, old);
                        });
                        model = snap;
                    }
                }
                MemOp::ReleaseOldest => {
                    if !stack.is_empty() {
                        let (mark, _) = stack.remove(0);
                        log.release(mark);
                    }
                }
            }
            // Spot-check a sample of addresses every step.
            for probe in [0u16, 1, 7, 1000, u16::MAX] {
                prop_assert_eq!(
                    mem.read(probe as u32),
                    model.get(&probe).copied().unwrap_or(0),
                    "probe {}", probe
                );
            }
        }
        // Full sweep at the end.
        for (&a, &v) in &model {
            prop_assert_eq!(mem.read(a as u32), v);
        }
    }
}

// ---------------------------------------------------------------------------
// Machine checkpoint/restore losslessness
// ---------------------------------------------------------------------------

fn arb_inst() -> impl Strategy<Value = Inst> {
    let reg = (0u8..32).prop_map(Reg::new);
    let op = prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Xor),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Slt),
    ];
    prop_oneof![
        (op.clone(), reg.clone(), reg.clone(), reg.clone())
            .prop_map(|(op, rd, rs1, rs2)| Inst::Alu { op, rd, rs1, rs2 }),
        (op, reg.clone(), reg.clone(), any::<i16>()).prop_map(|(op, rd, rs1, imm)| Inst::AluImm {
            op,
            rd,
            rs1,
            imm: imm as i32
        }),
        (reg.clone(), any::<i16>()).prop_map(|(rd, imm)| Inst::Li {
            rd,
            imm: imm as i32
        }),
        // Loads/stores into a small window to exercise the same pages.
        (reg.clone(), reg.clone(), 0i32..64).prop_map(|(rd, base, off)| Inst::Load {
            rd,
            base,
            off
        }),
        (reg.clone(), reg, 0i32..64).prop_map(|(rs, base, off)| Inst::Store { rs, base, off }),
    ]
}

fn observable_state(m: &Machine) -> (Vec<u32>, u32, Vec<u32>) {
    (
        Reg::all().map(|r| m.reg(r)).collect(),
        m.pc(),
        (0u32..256).map(|a| m.mem().read(a)).collect(),
    )
}

proptest! {
    /// Executing any straight-line instruction sequence, checkpointing in
    /// the middle, running to the end, and restoring must reproduce the
    /// mid-point state exactly — and replaying from there must reproduce
    /// the end state (determinism after rollback).
    #[test]
    fn checkpoint_restore_is_lossless(
        pre in prop::collection::vec(arb_inst(), 1..40),
        post in prop::collection::vec(arb_inst(), 1..40),
    ) {
        let mut insts = pre.clone();
        insts.extend(post.iter().cloned());
        insts.push(Inst::Halt);
        let prog = Program::from_parts(insts, vec![], 0);

        let mut m = Machine::new(&prog);
        for _ in 0..pre.len() {
            m.step(&prog);
        }
        let mid = observable_state(&m);
        let cp = m.checkpoint();

        m.run(&prog, 10_000);
        let end = observable_state(&m);

        m.restore(&cp);
        prop_assert_eq!(observable_state(&m), mid, "restore reproduces the midpoint");

        m.run(&prog, 10_000);
        prop_assert_eq!(observable_state(&m), end, "replay reproduces the end");
    }

    /// Nested checkpoints restore in LIFO order without interference.
    #[test]
    fn nested_checkpoints_are_independent(
        a in prop::collection::vec(arb_inst(), 1..20),
        b in prop::collection::vec(arb_inst(), 1..20),
        c in prop::collection::vec(arb_inst(), 1..20),
    ) {
        let mut insts = a.clone();
        insts.extend(b.iter().cloned());
        insts.extend(c.iter().cloned());
        insts.push(Inst::Halt);
        let prog = Program::from_parts(insts, vec![], 0);

        let mut m = Machine::new(&prog);
        for _ in 0..a.len() { m.step(&prog); }
        let s1 = observable_state(&m);
        let cp1 = m.checkpoint();
        for _ in 0..b.len() { m.step(&prog); }
        let s2 = observable_state(&m);
        let cp2 = m.checkpoint();
        for _ in 0..c.len() { m.step(&prog); }

        m.restore(&cp2);
        prop_assert_eq!(observable_state(&m), s2);
        m.restore(&cp1);
        prop_assert_eq!(observable_state(&m), s1);
    }
}
