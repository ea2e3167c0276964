//! Property tests: the speculative pipeline is architecturally equivalent
//! to pure functional execution on arbitrary (generated) programs.

use cestim::{Machine, PipelineConfig, PredictorKind, ProgramBuilder, Reg, Simulator};
use proptest::prelude::*;

/// A small structured program: straight-line arithmetic blocks, counted
/// loops with data-dependent inner branches, and memory traffic in a
/// scratch region. Always halts.
#[derive(Debug, Clone)]
struct GenProgram {
    ops: Vec<Op>,
}

#[derive(Debug, Clone)]
enum Op {
    Alu {
        kind: u8,
        dst: u8,
        a: u8,
        b: u8,
    },
    AluImm {
        kind: u8,
        dst: u8,
        a: u8,
        imm: i16,
    },
    Load {
        dst: u8,
        addr: u8,
    },
    Store {
        src: u8,
        addr: u8,
    },
    /// Counted loop over the following `body` ops with a data-dependent
    /// branch inside.
    Loop {
        trips: u8,
        body: Vec<Op>,
    },
    /// If-then-else on a register's parity.
    Cond {
        reg: u8,
        then_imm: i16,
        else_imm: i16,
    },
}

const SCRATCH: u32 = ProgramBuilder::DATA_BASE;
const SCRATCH_MASK: i32 = 63;

fn temp(i: u8) -> Reg {
    // Use t0..t7 and s0..s3 as generated registers.
    const REGS: [Reg; 12] = [
        Reg::T0,
        Reg::T1,
        Reg::T2,
        Reg::T3,
        Reg::T4,
        Reg::T5,
        Reg::T6,
        Reg::T7,
        Reg::S0,
        Reg::S1,
        Reg::S2,
        Reg::S3,
    ];
    REGS[(i as usize) % REGS.len()]
}

fn emit(b: &mut ProgramBuilder, op: &Op, depth: u32) {
    match op {
        Op::Alu {
            kind,
            dst,
            a,
            b: rb,
        } => {
            let (d, ra, rb) = (temp(*dst), temp(*a), temp(*rb));
            match kind % 6 {
                0 => b.add(d, ra, rb),
                1 => b.sub(d, ra, rb),
                2 => b.xor(d, ra, rb),
                3 => b.and(d, ra, rb),
                4 => b.mul(d, ra, rb),
                _ => b.slt(d, ra, rb),
            }
        }
        Op::AluImm { kind, dst, a, imm } => {
            let (d, ra) = (temp(*dst), temp(*a));
            match kind % 4 {
                0 => b.addi(d, ra, *imm as i32),
                1 => b.xori(d, ra, *imm as i32),
                2 => b.muli(d, ra, (*imm as i32).clamp(-7, 7)),
                _ => b.slli(d, ra, (*imm as i32).rem_euclid(8)),
            }
        }
        Op::Load { dst, addr } => {
            // Mask the address register into the scratch region.
            b.andi(Reg::U0, temp(*addr), SCRATCH_MASK);
            b.addi(Reg::U0, Reg::U0, SCRATCH as i32);
            b.lw(temp(*dst), Reg::U0, 0);
        }
        Op::Store { src, addr } => {
            b.andi(Reg::U0, temp(*addr), SCRATCH_MASK);
            b.addi(Reg::U0, Reg::U0, SCRATCH as i32);
            b.sw(temp(*src), Reg::U0, 0);
        }
        Op::Loop { trips, body } => {
            if depth >= 2 {
                return; // bound nesting
            }
            let counter = if depth == 0 { Reg::U1 } else { Reg::U2 };
            b.li(counter, (*trips % 17) as i32);
            let top = b.label();
            let done = b.label();
            b.bind(top);
            b.ble(counter, Reg::ZERO, done);
            for op in body {
                emit(b, op, depth + 1);
            }
            b.addi(counter, counter, -1);
            b.j(top);
            b.bind(done);
        }
        Op::Cond {
            reg,
            then_imm,
            else_imm,
        } => {
            let els = b.label();
            let join = b.label();
            b.andi(Reg::U0, temp(*reg), 1);
            b.beqz(Reg::U0, els);
            b.addi(Reg::S4, Reg::S4, *then_imm as i32);
            b.j(join);
            b.bind(els);
            b.addi(Reg::S4, Reg::S4, *else_imm as i32);
            b.bind(join);
        }
    }
}

fn build(p: &GenProgram) -> cestim::Program {
    let mut b = ProgramBuilder::new();
    // Seed registers and scratch memory deterministically.
    let seed: Vec<u32> = (0u32..64)
        .map(|i| i.wrapping_mul(2654435761) % 997)
        .collect();
    let _ = b.alloc(&seed);
    for i in 0..12u8 {
        b.li(temp(i), (i as i32 + 1) * 37);
    }
    for op in &p.ops {
        emit(&mut b, op, 0);
    }
    // Fold state into a checksum register so divergence is observable.
    for i in 0..12u8 {
        b.xor(Reg::S5, Reg::S5, temp(i));
    }
    b.add(Reg::S5, Reg::S5, Reg::S4);
    b.halt();
    b.build().expect("generated program assembles")
}

fn op_strategy(depth: u32) -> BoxedStrategy<Op> {
    let leaf = prop_oneof![
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>())
            .prop_map(|(kind, dst, a, b)| Op::Alu { kind, dst, a, b }),
        (any::<u8>(), any::<u8>(), any::<u8>(), any::<i16>())
            .prop_map(|(kind, dst, a, imm)| Op::AluImm { kind, dst, a, imm }),
        (any::<u8>(), any::<u8>()).prop_map(|(dst, addr)| Op::Load { dst, addr }),
        (any::<u8>(), any::<u8>()).prop_map(|(src, addr)| Op::Store { src, addr }),
        (any::<u8>(), any::<i16>(), any::<i16>()).prop_map(|(reg, then_imm, else_imm)| Op::Cond {
            reg,
            then_imm,
            else_imm
        }),
    ];
    if depth >= 2 {
        leaf.boxed()
    } else {
        prop_oneof![
            4 => leaf,
            1 => (any::<u8>(), prop::collection::vec(op_strategy(depth + 1), 1..6))
                .prop_map(|(trips, body)| Op::Loop { trips, body }),
        ]
        .boxed()
    }
}

fn program_strategy() -> impl Strategy<Value = GenProgram> {
    prop::collection::vec(op_strategy(0), 1..25).prop_map(|ops| GenProgram { ops })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any generated program, pipeline-committed state equals pure
    /// functional execution, under every predictor.
    #[test]
    fn pipeline_equals_functional_execution(p in program_strategy()) {
        let prog = build(&p);
        let mut reference = Machine::new(&prog);
        let steps = reference.run(&prog, 5_000_000);
        prop_assume!(reference.halted()); // generator guarantees this; belt and braces
        let want = reference.reg(Reg::S5);

        for predictor in [PredictorKind::Gshare, PredictorKind::McFarling] {
            let mut sim = Simulator::new(&prog, PipelineConfig::paper(), predictor.build_any());
            let stats = sim.run_to_completion();
            prop_assert_eq!(stats.committed_insts, steps + 1, "{}", predictor);
            prop_assert_eq!(
                stats.fetched_insts,
                stats.committed_insts + stats.squashed_insts
            );
        }
        // Re-run the reference to confirm determinism of the generator too.
        let mut again = Machine::new(&prog);
        again.run(&prog, 5_000_000);
        prop_assert_eq!(again.reg(Reg::S5), want);
    }

    /// Gating at any threshold never changes committed counts.
    #[test]
    fn gating_never_changes_semantics(p in program_strategy(), gate in 1u32..4) {
        let prog = build(&p);
        let base = {
            let mut sim = Simulator::new(&prog, PipelineConfig::paper(), PredictorKind::Gshare.build_any());
            sim.add_estimator(cestim::SaturatingConfidence::selected());
            sim.run_to_completion()
        };
        let gated = {
            let mut sim = Simulator::new(
                &prog,
                PipelineConfig::paper().with_gating(gate),
                PredictorKind::Gshare.build_any(),
            );
            sim.add_estimator(cestim::SaturatingConfidence::selected());
            sim.run_to_completion()
        };
        prop_assert_eq!(base.committed_insts, gated.committed_insts);
        prop_assert_eq!(base.committed_branches, gated.committed_branches);
        prop_assert!(gated.squashed_insts <= base.squashed_insts);
    }
}
