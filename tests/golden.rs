//! Golden snapshots of the eight workload analogs: final `CHECKSUM_REG`
//! value, dynamic branch count, and dynamic instruction count at two
//! scales, committed under `tests/golden/workloads.txt`. The branch stream
//! feeds every predictor and estimator in the study — a dispatch or
//! interpreter rewrite that silently changes it would invalidate all
//! downstream numbers, so any drift must fail loudly here.
//!
//! To refresh after an *intentional* workload change:
//!
//! ```text
//! cargo test --test golden -- --ignored regenerate_golden_snapshots
//! ```
//!
//! then review the diff of `tests/golden/workloads.txt` like any other
//! code change.

use cestim::{run, EstimatorSpec, PredictorKind, RunConfig};
use cestim_isa::{Machine, Step};
use cestim_workloads::{WorkloadKind, CHECKSUM_REG};
use std::fmt::Write as _;
use std::path::PathBuf;

const SCALES: [u32; 2] = [1, 2];
const STEP_LIMIT: u64 = 200_000_000;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/workloads.txt")
}

fn families_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/families.txt")
}

/// Functionally executes one workload, returning
/// `(checksum, dynamic_branches, dynamic_insts)`.
fn execute(kind: WorkloadKind, scale: u32) -> (u32, u64, u64) {
    let w = kind.build(scale);
    let mut m = Machine::new(&w.program);
    let mut branches = 0u64;
    let mut insts = 0u64;
    while !m.halted() {
        assert!(insts < STEP_LIMIT, "{kind} scale {scale} did not halt");
        if matches!(m.step(&w.program), Step::Branch { .. }) {
            branches += 1;
        }
        insts += 1;
    }
    (m.reg(CHECKSUM_REG), branches, insts)
}

fn render() -> String {
    let mut out = String::from(
        "# workload scale checksum dynamic_branches dynamic_insts\n\
         # regenerate: cargo test --test golden -- --ignored regenerate_golden_snapshots\n",
    );
    for kind in WorkloadKind::all() {
        for scale in SCALES {
            let (checksum, branches, insts) = execute(kind, scale);
            writeln!(
                out,
                "{} {} {:#010x} {} {}",
                kind.name(),
                scale,
                checksum,
                branches,
                insts
            )
            .expect("write to string");
        }
    }
    out
}

#[test]
fn golden_snapshots_match() {
    let expected = std::fs::read_to_string(golden_path())
        .expect("tests/golden/workloads.txt missing — run the regenerate test");
    let actual = render();
    assert_eq!(
        actual, expected,
        "workload branch streams drifted from the committed golden snapshot; \
         if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional workload changes"]
fn regenerate_golden_snapshots() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render()).expect("write golden file");
}

/// Estimator specs for the family snapshot, written in the CLI grammar so
/// the snapshot also pins the spec parser for the modern families.
const FAMILY_SPECS: [&str; 4] = [
    "satctr",
    "distance:3",
    "timing:4",
    "vote:2:satctr,distance:3,timing:4",
];

/// Runs every predictor family (classic and modern) over every workload at
/// scale 1 with the full estimator roster attached, and renders exact
/// integer outcomes: misprediction counts plus each estimator's committed
/// quadrant. Any change to TAGE/perceptron update rules, timing-latency
/// plumbing, or vote quorum logic shifts these counts and fails the diff.
/// gcc comes first, under the file header; every other workload follows
/// in its own `# workload:` block.
fn render_families() -> String {
    let specs: Vec<EstimatorSpec> = FAMILY_SPECS
        .iter()
        .map(|s| s.parse().expect("family spec parses"))
        .collect();
    let mut out = String::from(
        "# predictor estimator mispred_committed committed_branches c_hc i_hc c_lc i_lc\n\
         # workload: gcc scale 1 | regenerate: cargo test --test golden -- --ignored regenerate_family_snapshots\n",
    );
    let mut workloads = WorkloadKind::all();
    workloads.sort_by_key(|&w| w != WorkloadKind::Gcc); // gcc first, then table order
    for w in workloads {
        if w != WorkloadKind::Gcc {
            writeln!(out, "# workload: {} scale 1", w.name()).expect("write to string");
        }
        for p in PredictorKind::all() {
            let res = run(&RunConfig::paper(w, 1, p), &specs);
            for e in &res.estimators {
                let q = e.quadrants.committed;
                writeln!(
                    out,
                    "{} {} {} {} {} {} {} {}",
                    p.name(),
                    e.name,
                    res.stats.mispredicted_committed,
                    res.stats.committed_branches,
                    q.c_hc,
                    q.i_hc,
                    q.c_lc,
                    q.i_lc
                )
                .expect("write to string");
            }
        }
    }
    out
}

#[test]
fn family_snapshots_match() {
    let expected = std::fs::read_to_string(families_path())
        .expect("tests/golden/families.txt missing — run the regenerate test");
    let actual = render_families();
    assert_eq!(
        actual, expected,
        "predictor/estimator family outcomes drifted from the committed golden \
         snapshot; if the change is intentional, regenerate (see file header) and review"
    );
}

#[test]
#[ignore = "rewrites the golden file; run explicitly after intentional family changes"]
fn regenerate_family_snapshots() {
    let path = families_path();
    std::fs::create_dir_all(path.parent().expect("parent dir")).expect("mkdir");
    std::fs::write(&path, render_families()).expect("write golden file");
}
