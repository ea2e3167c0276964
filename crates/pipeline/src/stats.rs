//! Aggregate pipeline statistics and per-estimator quadrants.

use cestim_core::Quadrant;
use serde::{Deserialize, Serialize};

/// Quadrant tables for one attached estimator, kept separately for the two
/// branch populations the paper distinguishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EstimatorQuadrants {
    /// All fetched branches, committed and squashed — what the hardware
    /// actually sees during execution.
    pub all: Quadrant,
    /// Committed branches only — what a program trace would contain. The
    /// paper reports its tables over this population.
    pub committed: Quadrant,
}

/// Counters accumulated over one pipeline run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Instructions fetched/executed, including wrong paths.
    pub fetched_insts: u64,
    /// Instructions that committed (architectural path).
    pub committed_insts: u64,
    /// Instructions squashed as wrong-path work.
    pub squashed_insts: u64,
    /// Conditional branches fetched, including wrong paths.
    pub fetched_branches: u64,
    /// Conditional branches committed.
    pub committed_branches: u64,
    /// Conditional branches squashed.
    pub squashed_branches: u64,
    /// Committed branches whose prediction was wrong.
    pub mispredicted_committed: u64,
    /// All fetched branches whose prediction was wrong (relative to the
    /// path they were fetched on).
    pub mispredicted_all: u64,
    /// Misprediction recoveries performed (includes wrong-path recoveries).
    pub recoveries: u64,
    /// Cycles fetch was stalled by pipeline gating.
    pub gated_cycles: u64,
    /// Dual-path forks opened (eager execution).
    pub eager_forks: u64,
    /// Forked branches that were indeed mispredicted (the fork paid off:
    /// recovery penalty waived).
    pub eager_covered: u64,
    /// Fetch slots consumed by alternate paths (eager overhead).
    pub eager_alt_slots: u64,
    /// Instruction-cache accesses. Fetch probes a branch's line before
    /// it checks the speculation window, so this includes one access per
    /// fetch cycle in which a full window blocks the next branch.
    pub icache_accesses: u64,
    /// Instruction-cache misses.
    pub icache_misses: u64,
    /// Data-cache accesses.
    pub dcache_accesses: u64,
    /// Data-cache misses.
    pub dcache_misses: u64,
}

impl PipelineStats {
    /// Committed instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.committed_insts as f64 / self.cycles as f64
    }

    /// Branch prediction accuracy over committed branches.
    pub fn accuracy_committed(&self) -> f64 {
        1.0 - self.mispredicted_committed as f64 / self.committed_branches as f64
    }

    /// The paper's Table 1 "ratio all/committed" for instructions.
    pub fn speculation_ratio(&self) -> f64 {
        self.fetched_insts as f64 / self.committed_insts as f64
    }

    /// Misprediction rate over committed branches
    /// (`1 - accuracy_committed`).
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     committed_branches: 40,
    ///     mispredicted_committed: 4,
    ///     ..Default::default()
    /// };
    /// assert!((s.mispredict_rate_committed() - 0.1).abs() < 1e-12);
    /// ```
    pub fn mispredict_rate_committed(&self) -> f64 {
        self.mispredicted_committed as f64 / self.committed_branches as f64
    }

    /// Misprediction rate over all fetched branches (relative to the path
    /// each was fetched on).
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     fetched_branches: 60,
    ///     mispredicted_all: 9,
    ///     ..Default::default()
    /// };
    /// assert!((s.mispredict_rate_all() - 0.15).abs() < 1e-12);
    /// ```
    pub fn mispredict_rate_all(&self) -> f64 {
        self.mispredicted_all as f64 / self.fetched_branches as f64
    }

    /// Instruction-cache miss rate.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     icache_accesses: 200,
    ///     icache_misses: 5,
    ///     ..Default::default()
    /// };
    /// assert!((s.icache_miss_rate() - 0.025).abs() < 1e-12);
    /// ```
    pub fn icache_miss_rate(&self) -> f64 {
        self.icache_misses as f64 / self.icache_accesses as f64
    }

    /// Data-cache miss rate.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     dcache_accesses: 50,
    ///     dcache_misses: 10,
    ///     ..Default::default()
    /// };
    /// assert!((s.dcache_miss_rate() - 0.2).abs() < 1e-12);
    /// ```
    pub fn dcache_miss_rate(&self) -> f64 {
        self.dcache_misses as f64 / self.dcache_accesses as f64
    }

    /// Fraction of all cycles in which fetch was stalled by pipeline
    /// gating.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     cycles: 1000,
    ///     gated_cycles: 250,
    ///     ..Default::default()
    /// };
    /// assert!((s.gated_fraction() - 0.25).abs() < 1e-12);
    /// ```
    pub fn gated_fraction(&self) -> f64 {
        self.gated_cycles as f64 / self.cycles as f64
    }

    /// Fraction of fetched instructions squashed as wrong-path work — the
    /// paper's "wasted work" measure for speculation control.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     fetched_insts: 300,
    ///     squashed_insts: 100,
    ///     ..Default::default()
    /// };
    /// assert!((s.squashed_fraction() - 1.0 / 3.0).abs() < 1e-12);
    /// ```
    pub fn squashed_fraction(&self) -> f64 {
        self.squashed_insts as f64 / self.fetched_insts as f64
    }

    /// Fraction of eager (dual-path) forks that covered a real
    /// misprediction — i.e. the fork paid off and the recovery penalty was
    /// waived.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     eager_forks: 50,
    ///     eager_covered: 10,
    ///     ..Default::default()
    /// };
    /// assert!((s.eager_coverage() - 0.2).abs() < 1e-12);
    /// ```
    pub fn eager_coverage(&self) -> f64 {
        self.eager_covered as f64 / self.eager_forks as f64
    }

    /// Misprediction recoveries per thousand committed instructions.
    ///
    /// ```
    /// let s = cestim_pipeline::PipelineStats {
    ///     committed_insts: 4000,
    ///     recoveries: 8,
    ///     ..Default::default()
    /// };
    /// assert!((s.recoveries_per_kilo_inst() - 2.0).abs() < 1e-12);
    /// ```
    pub fn recoveries_per_kilo_inst(&self) -> f64 {
        self.recoveries as f64 * 1000.0 / self.committed_insts as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_ratios() {
        let s = PipelineStats {
            cycles: 100,
            fetched_insts: 300,
            committed_insts: 200,
            squashed_insts: 100,
            fetched_branches: 60,
            committed_branches: 40,
            mispredicted_committed: 4,
            mispredicted_all: 9,
            ..PipelineStats::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.accuracy_committed() - 0.9).abs() < 1e-12);
        assert!((s.speculation_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn default_is_zeroed() {
        let s = PipelineStats::default();
        assert_eq!(s.cycles, 0);
        assert_eq!(s.fetched_insts, 0);
    }

    #[test]
    fn rate_helpers_cover_cache_and_gating() {
        let s = PipelineStats {
            cycles: 1000,
            gated_cycles: 100,
            fetched_insts: 400,
            squashed_insts: 100,
            committed_insts: 300,
            recoveries: 3,
            fetched_branches: 80,
            committed_branches: 50,
            mispredicted_committed: 5,
            mispredicted_all: 16,
            icache_accesses: 400,
            icache_misses: 4,
            dcache_accesses: 100,
            dcache_misses: 25,
            ..PipelineStats::default()
        };
        assert!((s.mispredict_rate_committed() - 0.1).abs() < 1e-12);
        assert!((s.mispredict_rate_all() - 0.2).abs() < 1e-12);
        assert!((s.icache_miss_rate() - 0.01).abs() < 1e-12);
        assert!((s.dcache_miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.gated_fraction() - 0.1).abs() < 1e-12);
        assert!((s.squashed_fraction() - 0.25).abs() < 1e-12);
        assert!((s.recoveries_per_kilo_inst() - 10.0).abs() < 1e-12);
        // Complementary pairs agree.
        assert!((s.mispredict_rate_committed() + s.accuracy_committed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stats_round_trip_through_json() {
        let s = PipelineStats {
            cycles: 123,
            fetched_insts: 456,
            committed_insts: 400,
            squashed_insts: 56,
            fetched_branches: 78,
            committed_branches: 70,
            squashed_branches: 8,
            mispredicted_committed: 7,
            mispredicted_all: 9,
            recoveries: 9,
            gated_cycles: 11,
            eager_forks: 2,
            eager_covered: 1,
            eager_alt_slots: 12,
            icache_accesses: 500,
            icache_misses: 13,
            dcache_accesses: 90,
            dcache_misses: 6,
        };
        let js = serde_json::to_string(&s).unwrap();
        let back: PipelineStats = serde_json::from_str(&js).unwrap();
        assert_eq!(back, s);

        let q = EstimatorQuadrants::default();
        let js = serde_json::to_string(&q).unwrap();
        let back: EstimatorQuadrants = serde_json::from_str(&js).unwrap();
        assert_eq!(back, q);
    }
}
