//! SMT fetch policies, measured on a real two-thread SMT front end.
//!
//! The paper's §1 motivation: "if a particular branch in a Simultaneous
//! Multithreading processor is of low confidence, it may be more cost
//! effective to switch threads than speculatively evaluate the branch."
//!
//! Part 1 runs a hard-to-predict thread (`go`) against a predictable one
//! (`ijpeg`) on the [`SmtSimulator`]'s shared fetch port under four
//! arbitration policies, measuring combined throughput and wasted fetch.
//!
//! Part 2 scores individual estimators analytically for the two
//! multithreading styles of §2.2 (switch-on-LC wants PVN/SPEC; bandwidth
//! multithreading wants SENS/PVP), including boosted variants.
//!
//! ```text
//! cargo run --release --example smt_fetch [scale]
//! ```

use cestim::pipeline::{FetchPolicy, SmtSimulator};
use cestim::sim::apps::{bandwidth_figures, smt_figures};
use cestim::sim::SatVariantSpec;
use cestim::{
    EstimatorSpec, PipelineConfig, PredictorKind, Quadrant, RunConfig, SaturatingConfidence,
    Simulator, WorkloadKind,
};

fn main() {
    let scale = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);

    // ---- Part 1: a real SMT front end ------------------------------------
    let noisy = WorkloadKind::Go.build(scale);
    let steady = WorkloadKind::Ijpeg.build(scale);
    let mk_thread = |p| {
        let mut s = Simulator::new(
            p,
            PipelineConfig::paper(),
            PredictorKind::Gshare.build_any(),
        );
        s.add_estimator(SaturatingConfidence::selected());
        s
    };

    println!("two-thread SMT: go (hard) + ijpeg (predictable), gshare, scale {scale}\n");
    println!(
        "{:20} {:>10} {:>12} {:>12} {:>12}",
        "policy", "cycles", "combined IPC", "squashed", "waste %"
    );
    for policy in [
        FetchPolicy::RoundRobin,
        FetchPolicy::FewestOutstanding,
        FetchPolicy::SwitchOnLowConfidence,
        FetchPolicy::FewestLowConfidence,
    ] {
        let threads = vec![mk_thread(&noisy.program), mk_thread(&steady.program)];
        let mut smt = SmtSimulator::new(threads, policy);
        let stats = smt.run(u64::MAX);
        let fetched: u64 = stats.per_thread.iter().map(|t| t.fetched_insts).sum();
        println!(
            "{:20} {:>10} {:>12.2} {:>12} {:>11.1}%",
            policy.name(),
            stats.cycles,
            stats.throughput(),
            stats.total_squashed(),
            stats.total_squashed() as f64 / fetched as f64 * 100.0
        );
    }
    println!(
        "\nConfidence-aware policies steer the shared port away from threads\n\
         that are likely speculating down a wrong path, cutting wasted fetch\n\
         (the paper's speculation-control thesis applied to SMT).\n"
    );

    // ---- Part 2: estimator scoring for the two §2.2 policies -------------
    let satctr = EstimatorSpec::SatCtr {
        variant: SatVariantSpec::Selected,
    };
    let specs = vec![
        EstimatorSpec::jrs_paper(),
        satctr.clone(),
        EstimatorSpec::Boosted {
            inner: Box::new(satctr.clone()),
            k: 2,
        },
        EstimatorSpec::Static { threshold: 0.9 },
        EstimatorSpec::Distance { threshold: 2 },
    ];
    let mut totals: Vec<Quadrant> = vec![Quadrant::default(); specs.len()];
    for w in WorkloadKind::all() {
        let out = cestim::run(&RunConfig::paper(w, scale, PredictorKind::Gshare), &specs);
        for (t, e) in totals.iter_mut().zip(&out.estimators) {
            *t += e.quadrants.committed;
        }
    }
    println!("estimator scoring for the two §2.2 policies (all workloads):\n");
    println!(
        "{:26} | {:>8} {:>9} {:>8} | {:>9} {:>9}",
        "estimator", "switch%", "justified", "caught", "retained", "efficient"
    );
    for (spec, q) in specs.iter().zip(&totals) {
        let s = smt_figures(q);
        let b = bandwidth_figures(q);
        println!(
            "{:26} | {:>7.1}% {:>8.1}% {:>7.1}% | {:>8.1}% {:>8.1}%",
            spec.label(),
            s.switch_rate * 100.0,
            s.useful_switch_rate * 100.0,
            s.covered_mispredictions * 100.0,
            b.retained_fetch * 100.0,
            b.fetch_efficiency * 100.0
        );
    }
    println!(
        "\nswitch% = thread yields; justified = PVN; caught = SPEC;\n\
         retained = SENS (bandwidth style); efficient = PVP."
    );
}
