//! Named, always-run regression tests promoted from
//! `tests/property.proptest-regressions`.
//!
//! Proptest replays stored seeds only on the machine that recorded them
//! and only before generating novel cases; promoting each shrunk
//! counterexample to an explicit test makes the regression permanent,
//! self-describing, and independent of the proptest runtime. The program
//! construction mirrors `build()` in `tests/property.rs` exactly
//! (register/scratch seeding, generated ops, checksum fold).

use cestim::{
    Machine, PipelineConfig, PredictorKind, Program, ProgramBuilder, Reg, SaturatingConfidence,
    Simulator,
};

/// Mirror of `temp()` in `tests/property.rs`.
fn temp(i: u8) -> Reg {
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

/// Mirror of the `build()` wrapper in `tests/property.rs`: deterministic
/// register/scratch seeding, the generated body, then the checksum fold.
fn build_with(body: impl FnOnce(&mut ProgramBuilder)) -> Program {
    let mut b = ProgramBuilder::new();
    let seed: Vec<u32> = (0u32..64)
        .map(|i| i.wrapping_mul(2654435761) % 997)
        .collect();
    let _ = b.alloc(&seed);
    for i in 0..12u8 {
        b.li(temp(i), (i as i32 + 1) * 37);
    }
    body(&mut b);
    for i in 0..12u8 {
        b.xor(Reg::S5, Reg::S5, temp(i));
    }
    b.add(Reg::S5, Reg::S5, Reg::S4);
    b.halt();
    b.build().expect("regression program assembles")
}

/// Shrunk counterexample stored as
/// `cc 0537a588… # shrinks to p = GenProgram { ops: [Alu { kind: 0,
/// dst: 0, a: 0, b: 0 }] }, gate = 1` — a single `add t0, t0, t0`.
fn proptest_regression_0537a588() -> Program {
    build_with(|b| {
        b.add(temp(0), temp(0), temp(0));
    })
}

/// The `pipeline_equals_functional_execution` property on the stored
/// counterexample: committed state must equal pure functional execution
/// under every predictor.
#[test]
fn regression_0537a588_pipeline_equals_functional_execution() {
    let prog = proptest_regression_0537a588();
    let mut reference = Machine::new(&prog);
    let steps = reference.run(&prog, 5_000_000);
    assert!(reference.halted());
    let want = reference.reg(Reg::S5);

    for predictor in [PredictorKind::Gshare, PredictorKind::McFarling] {
        let mut sim = Simulator::new(&prog, PipelineConfig::paper(), predictor.build_any());
        let stats = sim.run_to_completion();
        assert_eq!(stats.committed_insts, steps + 1, "{predictor}");
        assert_eq!(
            stats.fetched_insts,
            stats.committed_insts + stats.squashed_insts,
            "{predictor}"
        );
    }
    let mut again = Machine::new(&prog);
    again.run(&prog, 5_000_000);
    assert_eq!(again.reg(Reg::S5), want);
}

/// The `gating_never_changes_semantics` property on the stored
/// counterexample, at its recorded gate threshold (1) and the rest of the
/// property's range for good measure.
#[test]
fn regression_0537a588_gating_preserves_semantics() {
    let prog = proptest_regression_0537a588();
    let base = {
        let mut sim = Simulator::new(
            &prog,
            PipelineConfig::paper(),
            PredictorKind::Gshare.build_any(),
        );
        sim.add_estimator(SaturatingConfidence::selected());
        sim.run_to_completion()
    };
    for gate in 1u32..4 {
        let gated = {
            let mut sim = Simulator::new(
                &prog,
                PipelineConfig::paper().with_gating(gate),
                PredictorKind::Gshare.build_any(),
            );
            sim.add_estimator(SaturatingConfidence::selected());
            sim.run_to_completion()
        };
        assert_eq!(base.committed_insts, gated.committed_insts, "gate={gate}");
        assert_eq!(
            base.committed_branches, gated.committed_branches,
            "gate={gate}"
        );
        assert!(gated.squashed_insts <= base.squashed_insts, "gate={gate}");
    }
}
