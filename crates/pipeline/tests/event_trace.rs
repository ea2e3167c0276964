//! Golden snapshot of the pipeline event trace.
//!
//! A `Tracer` attached to two small deterministic live runs records the
//! JSONL event stream byte for byte: one speculative run with wrong paths
//! and confidence gating on, and one with eager execution. Between them
//! the runs emit all seven event kinds (fetch, predict, resolve, commit,
//! squash, recovery, gate), so the snapshot pins both the order of the
//! events and every payload field.
//!
//! Regenerate after an intentional format change with:
//! `CESTIM_BLESS=1 cargo test -p cestim-pipeline --test event_trace`

use cestim_bpred::Gshare;
use cestim_core::Jrs;
use cestim_isa::{Program, ProgramBuilder, Reg};
use cestim_obs::Tracer;
use cestim_pipeline::{PipelineConfig, Simulator, TraceSimulator};
use cestim_trace_io::export_program;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/event_trace.jsonl"
);

/// Branches on an LCG bit each iteration (misprediction-rich), with a
/// dependent load so resolution times vary.
fn noisy_program(n: i32) -> Program {
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
    b.andi(Reg::T4, Reg::S0, 63);
    b.lw(Reg::T5, Reg::T4, 0);
    b.add(Reg::T2, Reg::T2, Reg::T5);
    b.beqz(Reg::T2, skip);
    b.addi(Reg::T3, Reg::T3, 1);
    b.bind(skip);
    b.addi(Reg::T0, Reg::T0, 1);
    b.blt(Reg::T0, Reg::T1, top);
    b.halt();
    b.build().unwrap()
}

fn jsonl(tracer: &Tracer) -> String {
    assert_eq!(tracer.dropped(), 0);
    let mut buf = Vec::new();
    tracer.export_jsonl(&mut buf).unwrap();
    String::from_utf8(buf).unwrap()
}

/// The JSONL trace of one live run of `p` under `cfg`.
fn trace_of(p: &Program, cfg: PipelineConfig) -> String {
    let mut sim = Simulator::new(p, cfg, Gshare::new(10));
    sim.add_estimator(Jrs::paper_enhanced());
    let mut tracer = Tracer::unbounded();
    sim.run(&mut tracer);
    jsonl(&tracer)
}

fn render() -> String {
    let p = noisy_program(16);
    let mut out = String::from("# live, wrong paths, gating at 2 low-confidence branches\n");
    out += &trace_of(&p, PipelineConfig::paper().with_gating(2));
    out += "# live, eager execution with 1 fork\n";
    out += &trace_of(&p, PipelineConfig::paper().with_eager(1));
    out
}

#[test]
fn event_trace_matches_golden_snapshot() {
    let rendered = render();
    for kind in [
        "Fetch", "Predict", "Resolve", "Commit", "Squash", "Recovery", "Gate",
    ] {
        assert!(
            rendered.contains(&format!("{{\"{kind}\":")),
            "the snapshot must exercise {kind} events"
        );
    }
    if std::env::var_os("CESTIM_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).unwrap();
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden missing; run with CESTIM_BLESS=1 to create it");
    assert!(
        rendered == golden,
        "event trace drifted from {GOLDEN}; re-bless only for an intentional format change"
    );
}

/// The trace front end emits the same event stream as the live front end
/// in replay fetch mode, gating included.
#[test]
fn trace_front_end_traces_like_live_replay_fetch() {
    let p = noisy_program(16);
    let cfg = PipelineConfig::paper().with_gating(2);

    let mut live = Simulator::new(&p, cfg.clone(), Gshare::new(10));
    live.add_estimator(Jrs::paper_enhanced());
    live.set_replay_fetch(true);
    let mut live_tracer = Tracer::unbounded();
    let live_stats = live.run(&mut live_tracer);

    let records = export_program(&p, 1 << 20).unwrap();
    let mut replay = TraceSimulator::new(&records, cfg, Gshare::new(10));
    replay.add_estimator(Jrs::paper_enhanced());
    let mut replay_tracer = Tracer::unbounded();
    let replay_stats = replay.run(&mut replay_tracer);

    assert_eq!(replay_stats, live_stats);
    assert!(replay_stats.gated_cycles > 0);
    assert_eq!(jsonl(&replay_tracer), jsonl(&live_tracer));
}
