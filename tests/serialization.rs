//! Serialization round-trips on real simulation output.

use cestim::pipeline::{replay, MultiObserver};
use cestim::{
    run_with_observer, DistanceAnalysis, DistanceSeries, EstimatorSpec, Gshare, Jrs,
    PipelineConfig, PredictorKind, ProgramBuilder, Reg, RunConfig, Simulator, WorkloadKind,
};
use cestim_obs::{read_trace_jsonl, TraceEvent, Tracer};

#[test]
fn trace_of_a_real_run_round_trips_through_jsonl() {
    let mut tracer = Tracer::unbounded();
    let out = run_with_observer(
        &RunConfig::paper(WorkloadKind::Compress, 1, PredictorKind::Gshare),
        &[EstimatorSpec::jrs_paper()],
        &mut tracer,
    );
    assert_eq!(tracer.dropped(), 0);

    let mut buf = Vec::new();
    tracer.export_jsonl(&mut buf).unwrap();
    let back = read_trace_jsonl(buf.as_slice()).unwrap();
    assert!(back.iter().eq(tracer.events()));

    // One outcome per fetched branch, as (committed, seq, mispredicted,
    // estimates).
    let outcomes: Vec<_> = back
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Commit {
                seq,
                mispredicted,
                estimates,
                ..
            } => Some((true, *seq, *mispredicted, estimates)),
            TraceEvent::Squash {
                seq,
                mispredicted,
                estimates,
                ..
            } => Some((false, *seq, *mispredicted, estimates)),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes.len() as u64, out.stats.fetched_branches);

    // Sanity on the content: committed records are in program order by seq,
    // every record carries exactly one estimate.
    let committed: Vec<_> = outcomes.iter().filter(|o| o.0).collect();
    assert!(committed.windows(2).all(|w| w[0].1 < w[1].1));
    assert!(outcomes.iter().all(|o| o.3.len() == 1));
    let mispredicted = committed.iter().filter(|o| o.2).count();
    assert_eq!(mispredicted as u64, out.stats.mispredicted_committed);
}

/// Branch on an LCG bit each iteration: misprediction-rich.
fn noisy_program(n: i32) -> cestim::Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg::S0, 987654);
    b.li(Reg::T0, 0);
    b.li(Reg::T1, n);
    let top = b.label();
    let skip = b.label();
    b.bind(top);
    b.muli(Reg::S0, Reg::S0, 1664525);
    b.addi(Reg::S0, Reg::S0, 1013904223);
    b.srli(Reg::T2, Reg::S0, 19);
    b.andi(Reg::T2, Reg::T2, 1);
    b.beqz(Reg::T2, skip);
    b.addi(Reg::T3, Reg::T3, 1);
    b.bind(skip);
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.halt();
    b.build().unwrap()
}

#[test]
fn replay_reproduces_live_distance_analysis_bit_for_bit() {
    let p = noisy_program(1200);

    // Live run: distance analysis streamed from the simulator, with a
    // tracer recording the same events.
    let mut sim = Simulator::new(&p, PipelineConfig::paper(), Gshare::new(12));
    sim.add_estimator(Jrs::paper_enhanced());
    let mut live = DistanceAnalysis::new(64);
    let mut tracer = Tracer::unbounded();
    sim.run(&mut MultiObserver::new(vec![&mut live, &mut tracer]));
    assert_eq!(tracer.dropped(), 0, "unbounded tracer must not drop");

    // Replay from memory.
    let mut replayed = DistanceAnalysis::new(64);
    let n = replay(tracer.events(), &mut replayed);
    assert!(n > 0);

    // And through the JSONL round trip.
    let mut buf = Vec::new();
    tracer.export_jsonl(&mut buf).unwrap();
    let mut from_file = DistanceAnalysis::new(64);
    let m = replay(&read_trace_jsonl(buf.as_slice()).unwrap(), &mut from_file);
    assert_eq!(m, n);

    for series in [
        DistanceSeries::PreciseAll,
        DistanceSeries::PreciseCommitted,
        DistanceSeries::PerceivedAll,
        DistanceSeries::PerceivedCommitted,
    ] {
        assert_eq!(
            live.histogram(series),
            replayed.histogram(series),
            "{series:?} differs in-memory"
        );
        assert_eq!(
            live.histogram(series),
            from_file.histogram(series),
            "{series:?} differs via JSONL"
        );
    }
}

#[test]
fn run_outcome_serializes_to_json() {
    let out = cestim::run(
        &RunConfig::paper(WorkloadKind::Ijpeg, 1, PredictorKind::Gshare),
        &[EstimatorSpec::jrs_paper()],
    );
    let s = serde_json::to_string(&out.stats).unwrap();
    let back: cestim::PipelineStats = serde_json::from_str(&s).unwrap();
    assert_eq!(back, out.stats);

    let e = serde_json::to_string(&out.estimators).unwrap();
    assert!(e.contains("c_hc"));
}

#[test]
fn programs_serialize_and_reload() {
    let w = WorkloadKind::Perl.build(1);
    let s = serde_json::to_string(&w.program).unwrap();
    let back: cestim::Program = serde_json::from_str(&s).unwrap();
    assert_eq!(back, w.program);
    // The reloaded program must run identically.
    let mut m1 = cestim::Machine::new(&w.program);
    let mut m2 = cestim::Machine::new(&back);
    m1.run(&w.program, u64::MAX);
    m2.run(&back, u64::MAX);
    assert_eq!(
        m1.reg(cestim_workloads::CHECKSUM_REG),
        m2.reg(cestim_workloads::CHECKSUM_REG)
    );
}
