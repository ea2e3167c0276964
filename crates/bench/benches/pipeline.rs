//! Pipeline-simulator throughput and design-choice ablations.

use cestim_bpred::Gshare;
use cestim_core::{Jrs, PatternHistory, SaturatingConfidence, StaticProfile};
use cestim_pipeline::{PipelineConfig, Simulator};
use cestim_workloads::WorkloadKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn run(workload: WorkloadKind, cfg: PipelineConfig, estimators: usize) -> u64 {
    let w = workload.build(1);
    let mut sim = Simulator::new(&w.program, cfg, Gshare::new(12));
    for i in 0..estimators {
        match i % 4 {
            0 => sim.add_estimator(Jrs::paper_enhanced()),
            1 => sim.add_estimator(SaturatingConfidence::selected()),
            2 => sim.add_estimator(PatternHistory::new(12)),
            _ => sim.add_estimator(StaticProfile::from_confident_pcs([], 0.9)),
        };
    }
    sim.run_to_completion().fetched_insts
}

fn bench_workload_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_throughput");
    g.sample_size(10);
    for w in [
        WorkloadKind::Compress,
        WorkloadKind::Go,
        WorkloadKind::Ijpeg,
    ] {
        let insts = run(w, PipelineConfig::paper(), 0);
        g.throughput(Throughput::Elements(insts));
        g.bench_with_input(BenchmarkId::new("gshare", w.name()), &w, |b, &w| {
            b.iter(|| black_box(run(w, PipelineConfig::paper(), 0)))
        });
    }
    g.finish();
}

/// Ablation: cost of attaching estimator banks to the pipeline.
fn bench_estimator_bank(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_estimator_bank");
    g.sample_size(10);
    for n in [0usize, 1, 4, 16] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(run(WorkloadKind::Compress, PipelineConfig::paper(), n)))
        });
    }
    g.finish();
}

/// Ablation: pipeline gating on/off (speculation control overhead/benefit).
fn bench_gating(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline_gating");
    g.sample_size(10);
    g.bench_function("ungated", |b| {
        b.iter(|| black_box(run(WorkloadKind::Go, PipelineConfig::paper(), 1)))
    });
    g.bench_function("gate_2", |b| {
        b.iter(|| {
            black_box(run(
                WorkloadKind::Go,
                PipelineConfig::paper().with_gating(2),
                1,
            ))
        })
    });
    g.finish();
}

/// Ablation: SMT fetch-arbitration policies on a two-thread front end.
fn bench_smt_policies(c: &mut Criterion) {
    use cestim_pipeline::{FetchPolicy, SmtSimulator};
    let noisy = WorkloadKind::Go.build(1);
    let steady = WorkloadKind::Ijpeg.build(1);
    let mut g = c.benchmark_group("smt_policies");
    g.sample_size(10);
    for policy in [
        FetchPolicy::RoundRobin,
        FetchPolicy::FewestOutstanding,
        FetchPolicy::FewestLowConfidence,
    ] {
        g.bench_function(policy.name(), |b| {
            b.iter(|| {
                let mk = |p| {
                    let mut s = Simulator::new(p, PipelineConfig::paper(), Gshare::new(12));
                    s.add_estimator(SaturatingConfidence::selected());
                    s
                };
                let mut smt =
                    SmtSimulator::new(vec![mk(&noisy.program), mk(&steady.program)], policy);
                black_box(smt.run(u64::MAX).total_committed())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_workload_throughput,
    bench_estimator_bank,
    bench_gating,
    bench_smt_policies
);
criterion_main!(benches);
