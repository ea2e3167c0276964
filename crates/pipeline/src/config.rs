//! Pipeline and cache configuration.

use serde::{Deserialize, Serialize};

/// Geometry and timing of one level-1 cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Words per line (must be a power of two).
    pub line_words: u32,
    /// Access latency on a hit, in cycles.
    pub hit_latency: u64,
    /// Fill latency on a miss, in cycles.
    pub miss_latency: u64,
}

impl CacheConfig {
    /// The paper's 64 kB L1 data cache: 4-way, 32-byte lines, 2-cycle hits.
    /// 64 kB / 32 B = 2048 lines = 512 sets × 4 ways.
    pub fn paper_dcache() -> CacheConfig {
        CacheConfig {
            sets: 512,
            assoc: 4,
            line_words: 8,
            hit_latency: 2,
            miss_latency: 20,
        }
    }

    /// The paper's 128 kB L1 instruction cache (equivalent to 64 kB of
    /// useful capacity given SimpleScalar's half-wasted 64-bit encoding):
    /// 4-way, 32-byte lines, 2-cycle hits.
    pub fn paper_icache() -> CacheConfig {
        CacheConfig {
            sets: 1024,
            assoc: 4,
            line_words: 8,
            hit_latency: 2,
            miss_latency: 20,
        }
    }

    /// Checks that a [`Cache`](crate::Cache) can be built from this
    /// geometry: power-of-two `sets` and `line_words`, a positive `assoc`,
    /// at most [`MAX_CACHE_WAYS`] ways in all, and latencies of at most
    /// [`MAX_LATENCY`] cycles.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if !self.sets.is_power_of_two() {
            return Err(format!("sets {} is not a power of two", self.sets));
        }
        if !self.line_words.is_power_of_two() {
            return Err(format!(
                "line_words {} is not a power of two",
                self.line_words
            ));
        }
        if self.assoc == 0 {
            return Err("associativity must be positive".to_string());
        }
        let ways = u64::from(self.sets) * u64::from(self.assoc);
        if ways > MAX_CACHE_WAYS {
            return Err(format!(
                "sets × assoc = {ways} exceeds the limit {MAX_CACHE_WAYS}"
            ));
        }
        for (name, latency) in [
            ("hit_latency", self.hit_latency),
            ("miss_latency", self.miss_latency),
        ] {
            check_latency(name, latency)?;
        }
        Ok(())
    }
}

/// Largest speculation window [`PipelineConfig::validate`] accepts: the
/// timing core allocates a ring and an estimate row per window entry.
pub const MAX_WINDOW: usize = 1 << 12;

/// Most ways (`sets × assoc`) one cache may have: 256× the paper's
/// 4096-way I-cache.
pub const MAX_CACHE_WAYS: u64 = 1 << 20;

/// Largest latency or penalty, in cycles, a configuration may charge, so
/// cycle arithmetic can never overflow.
pub const MAX_LATENCY: u64 = 1 << 20;

fn check_latency(name: &str, cycles: u64) -> Result<(), String> {
    if cycles > MAX_LATENCY {
        return Err(format!("{name} {cycles} exceeds the limit {MAX_LATENCY}"));
    }
    Ok(())
}

/// Full pipeline-simulator configuration.
///
/// The defaults ([`PipelineConfig::paper`]) model the paper's setup: a
/// 5-stage pipeline (SimpleScalar `sim-outorder` derivative) with an
/// additional 3-cycle misprediction recovery penalty, 2-cycle L1 caches,
/// speculative global history, and enough outstanding branches to expose
/// misprediction clustering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Instructions fetched/decoded per cycle.
    pub fetch_width: u32,
    /// Base cycles from decode to branch resolution (depth of the
    /// decode→execute portion of the 5-stage pipe).
    pub branch_resolve_latency: u64,
    /// Extra recovery cycles charged on a misprediction, on top of the
    /// natural refill (the paper's "+3 cycles").
    pub mispredict_penalty: u64,
    /// Maximum simultaneously unresolved (speculative) branches.
    pub max_unresolved_branches: usize,
    /// Global history register width (bits); 12 matches the paper's
    /// 4096-entry gshare/McFarling index.
    pub ghr_width: u32,
    /// Instruction cache.
    pub icache: CacheConfig,
    /// Data cache.
    pub dcache: CacheConfig,
    /// Pipeline gating (speculation control): stall fetch while at least
    /// this many unresolved branches are low-confidence according to
    /// estimator 0. `None` disables gating.
    pub gate_threshold: Option<u32>,
    /// Eager (dual-path) execution: fork both paths of a low-confidence
    /// branch (estimator 0). While any fork is active, fetch bandwidth is
    /// halved (the alternate path consumes the other slots); when a forked
    /// branch turns out mispredicted, the misprediction penalty and refetch
    /// gap are waived — the alternate path is already warm. `None`
    /// disables forking. This is a *timing-level* dual-path model: the
    /// alternate path's instructions are charged but not architecturally
    /// executed (recovery re-steers exactly as usual), so architectural
    /// results never change.
    pub eager_max_forks: Option<u32>,
    /// Safety bound on simulated cycles.
    pub max_cycles: u64,
}

impl PipelineConfig {
    /// The paper's configuration.
    pub fn paper() -> PipelineConfig {
        PipelineConfig {
            fetch_width: 4,
            branch_resolve_latency: 3,
            mispredict_penalty: 3,
            max_unresolved_branches: 8,
            ghr_width: 12,
            icache: CacheConfig::paper_icache(),
            dcache: CacheConfig::paper_dcache(),
            gate_threshold: None,
            eager_max_forks: None,
            max_cycles: u64::MAX,
        }
    }

    /// Paper configuration with pipeline gating enabled at `n` outstanding
    /// low-confidence branches (the speculation-control application).
    pub fn with_gating(mut self, n: u32) -> PipelineConfig {
        self.gate_threshold = Some(n);
        self
    }

    /// Paper configuration with eager (dual-path) execution enabled for up
    /// to `n` simultaneous forks.
    pub fn with_eager(mut self, n: u32) -> PipelineConfig {
        self.eager_max_forks = Some(n);
        self
    }

    /// Checks that a simulator can be built from this configuration: a
    /// positive fetch width, a speculation window in `1..=`[`MAX_WINDOW`],
    /// a history width in `1..=32`, no gate threshold of 0 (which would
    /// gate fetch forever), latencies of at most [`MAX_LATENCY`], and two
    /// valid caches (see [`CacheConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.fetch_width == 0 {
            return Err("fetch_width must be positive".to_string());
        }
        if !(1..=MAX_WINDOW).contains(&self.max_unresolved_branches) {
            return Err(format!(
                "max_unresolved_branches {} outside 1..={MAX_WINDOW}",
                self.max_unresolved_branches
            ));
        }
        if !(1..=32).contains(&self.ghr_width) {
            return Err(format!("ghr_width {} outside 1..=32", self.ghr_width));
        }
        if self.gate_threshold == Some(0) {
            return Err("a gate_threshold of 0 would stall fetch forever".to_string());
        }
        check_latency("branch_resolve_latency", self.branch_resolve_latency)?;
        check_latency("mispredict_penalty", self.mispredict_penalty)?;
        for (name, cache) in [("icache", &self.icache), ("dcache", &self.dcache)] {
            cache.validate().map_err(|e| format!("{name}: {e}"))?;
        }
        Ok(())
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cache_capacities() {
        let words = |c: CacheConfig| c.sets as u64 * c.assoc as u64 * c.line_words as u64;
        // 64 kB of 4-byte words = 16 Ki words.
        assert_eq!(words(CacheConfig::paper_dcache()), 16 * 1024);
        // 128 kB = 32 Ki words.
        assert_eq!(words(CacheConfig::paper_icache()), 32 * 1024);
    }

    #[test]
    fn paper_pipeline_parameters() {
        let c = PipelineConfig::paper();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.mispredict_penalty, 3);
        assert_eq!(c.ghr_width, 12);
        assert!(c.gate_threshold.is_none());
    }

    #[test]
    fn gating_builder() {
        let c = PipelineConfig::paper().with_gating(2);
        assert_eq!(c.gate_threshold, Some(2));
        assert_eq!(c.eager_max_forks, None);
    }

    #[test]
    fn eager_builder() {
        let c = PipelineConfig::paper().with_eager(1);
        assert_eq!(c.eager_max_forks, Some(1));
    }
}
