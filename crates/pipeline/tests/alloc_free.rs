//! Proves the per-branch hot path performs zero heap allocations, on the
//! live simulator and on trace replay, with the ext-modern estimator roster
//! attached (four leaves and a vote over three of them).
//!
//! Strategy: a counting global allocator wraps `System`; two identically
//! shaped programs differing only in trip count are simulated (construction
//! included — warm-up growth of the bounded deques, the estimate slab, and
//! memory pages is the same for both because the speculation window and the
//! touched address set are scale-independent). If any allocation happened
//! per fetched/committed branch, the longer run — ~9× the branches — would
//! allocate more. Equal counts pin the steady-state loop at zero. The same
//! two programs' exported traces are then replayed through
//! `TraceSimulator` (exported before the counter is read, so only
//! construction and replay are counted).
//!
//! This binary holds exactly one `#[test]` so no concurrent test thread can
//! perturb the counter, and the counter is per thread: the test harness's
//! own thread allocates while the test runs, at times that vary from run
//! to run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocation calls made by the current thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: Counting = Counting;

use cestim_bpred::Gshare;
use cestim_core::{
    AnyEstimator, DistanceEstimator, Jrs, SaturatingConfidence, TimingEstimator, Voting,
};
use cestim_isa::{Program, ProgramBuilder, Reg};
use cestim_pipeline::{PipelineConfig, PipelineStats, Simulator, TraceSimulator};
use cestim_trace_io::{export_program, TraceRecord};

/// A loop with an unpredictable branch (LCG bit), loads/stores to a fixed
/// buffer (exercises the memory undo log), and filler ALU work. Same
/// instruction count and address footprint at every `n`.
fn workload(n: i32) -> Program {
    let mut b = ProgramBuilder::new();
    let buf = b.alloc_zeroed(16);
    b.li(Reg::S0, 12345);
    b.li(Reg::S1, buf as i32);
    b.li(Reg::T0, 0);
    b.li(Reg::T1, n);
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.muli(Reg::S0, Reg::S0, 1664525);
    b.addi(Reg::S0, Reg::S0, 1013904223);
    b.srli(Reg::T2, Reg::S0, 17);
    b.andi(Reg::T3, Reg::T2, 15);
    b.add(Reg::T3, Reg::S1, Reg::T3);
    b.lw(Reg::T4, Reg::T3, 0);
    b.addi(Reg::T4, Reg::T4, 1);
    b.sw(Reg::T4, Reg::T3, 0);
    b.andi(Reg::T2, Reg::T2, 1);
    b.beqz(Reg::T2, skip);
    b.addi(Reg::T5, Reg::T5, 1);
    b.bind(skip);
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.halt();
    b.build().expect("program builds")
}

/// The ext-modern roster: satctr, jrs, distance, timing and a 2-of-3 vote
/// over satctr, distance and timing.
fn modern_roster() -> Vec<AnyEstimator> {
    let satctr = || SaturatingConfidence::selected().into();
    let distance = || DistanceEstimator::new(3).into();
    let timing = || TimingEstimator::new(4).into();
    vec![
        satctr(),
        Jrs::paper_enhanced().into(),
        distance(),
        timing(),
        Voting::new(vec![satctr(), distance(), timing()], 2).into(),
    ]
}

/// Allocation calls spent constructing and running one simulation.
fn measure(program: &Program) -> (u64, PipelineStats) {
    let before = allocs();
    let mut sim = Simulator::new(program, PipelineConfig::paper(), Gshare::new(12));
    for e in modern_roster() {
        sim.add_estimator(e);
    }
    let stats = sim.run_to_completion();
    (allocs() - before, stats)
}

/// Allocation calls spent constructing and running one trace replay.
fn measure_trace(records: &[TraceRecord]) -> (u64, PipelineStats) {
    let before = allocs();
    let mut sim = TraceSimulator::new(records, PipelineConfig::paper(), Gshare::new(12));
    for e in modern_roster() {
        sim.add_estimator(e);
    }
    let stats = sim.run_to_completion();
    (allocs() - before, stats)
}

/// Asserts the long run committed far more branches, recovered more often,
/// and allocated exactly as much as the short one.
fn assert_scale_free(
    path: &str,
    (alloc_short, stats_short): (u64, PipelineStats),
    (alloc_long, stats_long): (u64, PipelineStats),
) {
    assert!(
        stats_long.committed_branches >= stats_short.committed_branches + 8_000,
        "{path}: long run must commit far more branches: {} vs {}",
        stats_long.committed_branches,
        stats_short.committed_branches
    );
    assert!(
        stats_long.recoveries > stats_short.recoveries,
        "{path}: both runs must exercise misprediction recovery"
    );
    assert_eq!(
        alloc_long,
        alloc_short,
        "{path}: allocation count must not scale with branch count \
         ({} extra branches cost {} extra allocations)",
        stats_long.committed_branches - stats_short.committed_branches,
        alloc_long as i64 - alloc_short as i64
    );
}

#[test]
fn committed_branches_allocate_nothing() {
    let short = workload(1_000);
    let long = workload(9_000);
    // Warm-up pass absorbs one-time lazy process state (thread-locals,
    // stdio) so it cannot masquerade as per-branch traffic.
    let _ = measure(&short);

    let live_short = measure(&short);
    let live_long = measure(&long);
    assert_scale_free("live", live_short, live_long);

    let trace_short = export_program(&short, 10_000_000).expect("short run halts");
    let trace_long = export_program(&long, 10_000_000).expect("long run halts");
    let _ = measure_trace(&trace_short);
    let replay_short = measure_trace(&trace_short);
    let replay_long = measure_trace(&trace_long);
    assert_scale_free("trace replay", replay_short, replay_long);
}
