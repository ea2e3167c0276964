//! Profiling observer for the static estimator's first pass.

use cestim_core::ProfileCollector;
use cestim_pipeline::{OutcomeEvent, SimObserver};

/// Observer that records per-branch prediction accuracy over the committed
/// stream — the paper's Profile-Me-style profiling pass.
///
/// The static estimator cannot be derived from a plain program profile: the
/// quantity it thresholds is the *predictor's* per-branch accuracy, which
/// only exists while simulating that predictor. The run driver therefore
/// plays the same fetch front once with this observer attached, then builds
/// [`StaticProfile`](cestim_core::StaticProfile) estimators from the
/// collected counts for the measured pass (same input for training and
/// evaluation — the paper's stated best-case methodology).
#[derive(Debug, Clone, Default)]
pub(crate) struct ProfileObserver {
    collector: ProfileCollector,
}

impl ProfileObserver {
    /// Consumes the observer, returning the collector.
    pub(crate) fn into_collector(self) -> ProfileCollector {
        self.collector
    }
}

impl SimObserver for ProfileObserver {
    fn on_branch_outcome(&mut self, ev: &OutcomeEvent<'_>) {
        if ev.committed {
            self.collector.record(ev.pc, !ev.mispredicted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pc: u32, mispredicted: bool, committed: bool) -> OutcomeEvent<'static> {
        OutcomeEvent {
            seq: 0,
            pc,
            predicted_taken: true,
            actual_taken: !mispredicted,
            mispredicted,
            committed,
            fetch_cycle: 0,
            resolve_cycle: None,
            ghr: 0,
            estimates: &[],
        }
    }

    #[test]
    fn records_committed_outcomes_only() {
        let mut o = ProfileObserver::default();
        o.on_branch_outcome(&ev(0x10, false, true));
        o.on_branch_outcome(&ev(0x10, true, true));
        o.on_branch_outcome(&ev(0x10, true, false)); // squashed: ignored
        let c = o.into_collector();
        assert_eq!(c.total(), 2);
        assert!((c.accuracy(0x10).unwrap() - 0.5).abs() < 1e-12);
    }
}
