//! `cestim` — command-line front end for the simulator.
//!
//! ```text
//! cestim run [--workload NAME | --asm FILE] [--predictor P] [--scale N]
//!            [--estimator SPEC]... [--gate N] [--json]
//! cestim disasm (--workload NAME | --asm FILE)
//! cestim workloads
//! cestim estimators
//! ```
//!
//! Estimator SPEC grammar (see `EstimatorSpec::from_str`): `jrs`,
//! `jrs:bits=10:t=8:base`, `satctr[:both|:either]`, `pattern:13`,
//! `static:0.9`, `distance:3`, `cir:w=16:t=14`, `jrsmcf:t=15`,
//! `tuned-spec:0.9`, `tuned-pvn:0.3`, `boost:2:satctr`, `always-low`.

use cestim::{
    EstimatorSpec, PipelineConfig, PredictorKind, Program, RunConfig, Simulator, WorkloadKind,
};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  cestim run [--workload NAME | --asm FILE] [--predictor P] [--scale N]\n\
         \x20            [--estimator SPEC]... [--gate N] [--json]\n  \
         cestim disasm (--workload NAME | --asm FILE)\n  \
         cestim workloads\n  cestim estimators"
    );
    std::process::exit(2);
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

struct RunArgs {
    workload: Option<WorkloadKind>,
    asm: Option<String>,
    predictor: PredictorKind,
    scale: u32,
    estimators: Vec<EstimatorSpec>,
    gate: Option<u32>,
    json: bool,
}

fn parse_run_args(mut argv: impl Iterator<Item = String>) -> RunArgs {
    let mut args = RunArgs {
        workload: None,
        asm: None,
        predictor: PredictorKind::Gshare,
        scale: 1,
        estimators: Vec::new(),
        gate: None,
        json: false,
    };
    while let Some(a) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match a.as_str() {
            "--workload" => {
                let v = value();
                args.workload = Some(WorkloadKind::from_name(&v).unwrap_or_else(|| {
                    fail(format!("unknown workload '{v}' (try `cestim workloads`)"))
                }));
            }
            "--asm" => args.asm = Some(value()),
            "--predictor" => {
                let v = value();
                args.predictor = PredictorKind::from_name(&v)
                    .unwrap_or_else(|| fail(format!("unknown predictor '{v}'")));
            }
            "--scale" => args.scale = value().parse().unwrap_or_else(|_| usage()),
            "--estimator" => {
                let v = value();
                args.estimators.push(v.parse().unwrap_or_else(|e| fail(e)));
            }
            "--gate" => args.gate = Some(value().parse().unwrap_or_else(|_| usage())),
            "--json" => args.json = true,
            _ => usage(),
        }
    }
    args
}

fn load_program(
    workload: Option<WorkloadKind>,
    asm: &Option<String>,
    scale: u32,
) -> (String, Program) {
    match (workload, asm) {
        (Some(w), None) => (w.name().to_string(), w.build(scale).program),
        (None, Some(path)) => {
            let src = std::fs::read_to_string(path)
                .unwrap_or_else(|e| fail(format!("cannot read {path}: {e}")));
            let prog = cestim::isa::parse_asm(&src).unwrap_or_else(|e| fail(e));
            (path.clone(), prog)
        }
        _ => fail("exactly one of --workload or --asm is required"),
    }
}

fn cmd_run(argv: impl Iterator<Item = String>) -> ExitCode {
    let args = parse_run_args(argv);
    let mut pipeline = PipelineConfig::paper();
    if let Some(g) = args.gate {
        pipeline.gate_threshold = Some(g);
    }

    let (name, out) = match (args.workload, &args.asm) {
        (Some(w), None) => {
            let cfg = RunConfig {
                pipeline,
                ..RunConfig::paper(w, args.scale, args.predictor)
            };
            (w.name().to_string(), cestim::run(&cfg, &args.estimators))
        }
        // `--asm` alone; `load_program` rejects every other combination.
        _ => {
            let (name, program) = load_program(args.workload, &args.asm, args.scale);
            // Assembly programs run the pipeline directly (no profiling
            // pass), so profile-needing estimators need a named workload.
            if args.estimators.iter().any(EstimatorSpec::needs_profile) {
                fail("profile-based estimators (static/tuned) need --workload, not --asm");
            }
            let mut sim = Simulator::new(&program, pipeline, args.predictor.build_any());
            for spec in &args.estimators {
                sim.add_estimator(spec.build_any(None));
            }
            let stats = sim.run_to_completion();
            let estimators = args
                .estimators
                .iter()
                .zip(sim.estimator_quadrants())
                .map(|(s, &quadrants)| cestim::sim::EstimatorResult {
                    name: s.label(),
                    quadrants,
                })
                .collect();
            (name, cestim::RunOutcome { stats, estimators })
        }
    };

    if args.json {
        let v = serde_json::json!({
            "program": name,
            "predictor": args.predictor.name(),
            "stats": out.stats,
            "estimators": out.estimators,
        });
        println!(
            "{}",
            serde_json::to_string_pretty(&v).expect("serializable")
        );
        return ExitCode::SUCCESS;
    }

    let s = &out.stats;
    println!("program: {name}   predictor: {}", args.predictor.name());
    println!(
        "cycles {}  committed {} (IPC {:.2})  fetched {} ({:.2}x)  recoveries {}",
        s.cycles,
        s.committed_insts,
        s.ipc(),
        s.fetched_insts,
        s.speculation_ratio(),
        s.recoveries
    );
    println!(
        "branches: {} committed, accuracy {:.2}% ({} squashed)",
        s.committed_branches,
        s.accuracy_committed() * 100.0,
        s.squashed_branches
    );
    if s.gated_cycles > 0 {
        println!("gating: {} gated cycles", s.gated_cycles);
    }
    for e in &out.estimators {
        let q = e.quadrants.committed;
        let p = cestim::sim::pct;
        println!(
            "  {:28} sens {:>6}  spec {:>6}  pvp {:>6}  pvn {:>6}",
            e.name,
            p(q.sens()),
            p(q.spec()),
            p(q.pvp()),
            p(q.pvn())
        );
    }
    ExitCode::SUCCESS
}

fn cmd_disasm(argv: impl Iterator<Item = String>) -> ExitCode {
    let args = parse_run_args(argv);
    let (name, program) = load_program(args.workload, &args.asm, args.scale);
    println!("; {} — {} instructions", name, program.len());
    print!("{}", program.disasm());
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("run") => cmd_run(argv),
        Some("disasm") => cmd_disasm(argv),
        Some("workloads") => {
            for k in WorkloadKind::all() {
                println!("{:10} {}", k.name(), k.build(1).description);
            }
            ExitCode::SUCCESS
        }
        Some("estimators") => {
            println!(
                "jrs[:bits=N][:t=N][:base]\nsatctr[:both|:either]\npattern:WIDTH\n\
                 static:THRESHOLD\ndistance:N\ncir[:bits=N][:w=N][:t=N]\n\
                 jrsmcf[:bits=N][:t=N]\ntuned-spec:V\ntuned-pvn:V\nboost:K:INNER\n\
                 always-high\nalways-low"
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
