//! The estimator roster of the timing core.
//!
//! The [`Roster`] owns the attached confidence estimators with their
//! labels, quadrants and estimate slab, flattened into two parts:
//!
//! * **Leaf columns**: every non-composite estimator, each writing one slot
//!   of a branch's estimate row. A leaf gets only the optional hooks it
//!   declares ([`ConfidenceEstimator::hooks`]): the roster keeps one
//!   subscriber list per hook, so an estimator that never trains is never
//!   called at commit.
//! * **Combiners**: every [`Voting`](cestim_core::Voting) and
//!   [`Boosted`](cestim_core::Boosted) composite, reduced to its rule
//!   ([`Quorum`] or [`KRun`]) over the slots of its components. A component
//!   equal (same state, not same name) to an existing leaf reads that
//!   leaf's slot; any other component gets a hidden column of its own.
//!   Combiners run after the leaves, inner before outer.
//!
//! Attached estimator `i` writes slot `i`, so a row starts with the
//! estimates observers see; hidden columns fill the slots after them.

use crate::EstimatorQuadrants;
use cestim_bpred::Prediction;
use cestim_core::{AnyEstimator, Confidence, ConfidenceEstimator, KRun, Quorum};

/// Preallocated per-branch estimate rows, one per speculation-window entry.
///
/// The speculation window bounds the number of in-flight branches, so the
/// estimates of every in-flight branch live in one flat buffer of
/// `window × width` entries. In-flight branches hold consecutive rows
/// (modulo the window) in fetch order, so a new branch takes the row after
/// the youngest one's and a row is free again as soon as its branch commits
/// or is squashed. This keeps a per-fetched-branch `Vec<Confidence>`
/// allocation off the hot path (sweep experiments attach 30–60 estimators
/// to one pipeline, so an inline array is not an option).
#[derive(Debug)]
struct EstimateSlab {
    /// Attached estimators: the observable prefix of each row.
    visible: usize,
    /// Slots per row: attached estimators plus hidden columns.
    width: usize,
    buf: Vec<Confidence>,
}

impl EstimateSlab {
    fn new(visible: usize, width: usize, slots: usize) -> EstimateSlab {
        EstimateSlab {
            visible,
            width,
            buf: vec![Confidence::High; width * slots],
        }
    }

    #[inline]
    fn row(&self, slot: u32) -> &[Confidence] {
        let start = slot as usize * self.width;
        &self.buf[start..start + self.visible]
    }

    #[inline]
    fn row_mut(&mut self, slot: u32) -> &mut [Confidence] {
        let start = slot as usize * self.width;
        &mut self.buf[start..start + self.width]
    }
}

/// A non-composite estimator and the row slot it writes.
#[derive(Debug)]
struct Leaf {
    estimator: AnyEstimator,
    slot: u32,
}

/// A composite's rule over the slots of its components.
#[derive(Debug)]
enum Rule {
    Vote(Quorum, Vec<u32>),
    Boost(KRun, u32),
}

/// A composite estimator, evaluated from a row's component slots into its
/// own slot.
#[derive(Debug)]
struct Combiner {
    rule: Rule,
    slot: u32,
}

/// The attached estimators (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct Roster {
    leaves: Vec<Leaf>,
    /// Leaves subscribed to `update`, `on_branch_resolved` and
    /// `note_resolve_latency` (indices into `leaves`).
    trainers: Vec<u32>,
    resolvers: Vec<u32>,
    timed: Vec<u32>,
    /// In dependency order: a combiner's components come before it.
    combiners: Vec<Combiner>,
    labels: Vec<String>,
    quadrants: Vec<EstimatorQuadrants>,
    slab: EstimateSlab,
    /// Rows in the slab: the speculation window.
    window: usize,
}

impl Roster {
    /// An empty roster for a speculation window of `window` branches.
    pub(crate) fn new(window: usize) -> Roster {
        Roster {
            leaves: Vec::new(),
            trainers: Vec::new(),
            resolvers: Vec::new(),
            timed: Vec::new(),
            combiners: Vec::new(),
            labels: Vec::new(),
            quadrants: Vec::new(),
            slab: EstimateSlab::new(0, 0, window),
            window,
        }
    }

    /// Attaches `estimator` as the next index; returns that index.
    pub(crate) fn add(&mut self, estimator: AnyEstimator) -> usize {
        let index = self.labels.len();
        self.labels.push(estimator.name());
        self.quadrants.push(EstimatorQuadrants::default());
        // Slot `index` is the new estimator's: hidden columns move up one.
        let at = index as u32;
        let bump = |s: &mut u32| *s += (*s >= at) as u32;
        for leaf in &mut self.leaves {
            bump(&mut leaf.slot);
        }
        for c in &mut self.combiners {
            bump(&mut c.slot);
            match &mut c.rule {
                Rule::Vote(_, inputs) => inputs.iter_mut().for_each(bump),
                Rule::Boost(_, input) => bump(input),
            }
        }
        let mut width = self.slab.width + 1;
        self.place(estimator, at, &mut width);
        self.slab = EstimateSlab::new(self.labels.len(), width, self.window);
        index
    }

    /// Places `estimator` so it writes `slot`; `width` is the row width,
    /// grown by any hidden column the estimator needs.
    fn place(&mut self, estimator: AnyEstimator, slot: u32, width: &mut usize) {
        let rule = match estimator {
            AnyEstimator::Voting(v) => {
                let (components, quorum) = v.into_parts();
                let inputs = components
                    .into_iter()
                    .map(|c| self.component(c, width))
                    .collect();
                Rule::Vote(quorum, inputs)
            }
            AnyEstimator::Boosted(b) => {
                let (inner, run) = b.into_parts();
                Rule::Boost(run, self.component(inner, width))
            }
            estimator => {
                let i = self.leaves.len() as u32;
                let hooks = estimator.hooks();
                for (subscribed, list) in [
                    (hooks.update, &mut self.trainers),
                    (hooks.resolve, &mut self.resolvers),
                    (hooks.latency, &mut self.timed),
                ] {
                    if subscribed {
                        list.push(i);
                    }
                }
                self.leaves.push(Leaf { estimator, slot });
                return;
            }
        };
        self.combiners.push(Combiner { rule, slot });
    }

    /// The slot a composite reads `component` from: an equal leaf's (equal
    /// state evolves equally under the same calls), else a new hidden
    /// column's.
    fn component(&mut self, component: AnyEstimator, width: &mut usize) -> u32 {
        if let Some(leaf) = self.leaves.iter().find(|l| l.estimator == component) {
            return leaf.slot;
        }
        let slot = *width as u32;
        *width += 1;
        self.place(component, slot, width);
        slot
    }

    /// Names of the attached estimators, in index order.
    pub(crate) fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Per-estimator quadrants accumulated so far.
    pub(crate) fn quadrants(&self) -> &[EstimatorQuadrants] {
        &self.quadrants
    }

    /// The attached estimators' estimates in row `slot`.
    #[inline]
    pub(crate) fn row(&self, slot: u32) -> &[Confidence] {
        self.slab.row(slot)
    }

    /// Estimates the branch at `pc`, resolving `latency` cycles from now,
    /// into row `slot`; returns whether estimator 0 said low confidence.
    #[inline]
    pub(crate) fn estimate(
        &mut self,
        slot: u32,
        pc: u32,
        ghr: u32,
        pred: &Prediction,
        latency: u64,
    ) -> bool {
        for &i in &self.timed {
            self.leaves[i as usize]
                .estimator
                .note_resolve_latency(latency);
        }
        let attached = self.slab.visible > 0;
        let row = self.slab.row_mut(slot);
        for leaf in &mut self.leaves {
            row[leaf.slot as usize] = leaf.estimator.estimate(pc, ghr, pred);
        }
        for c in &mut self.combiners {
            row[c.slot as usize] = match &mut c.rule {
                Rule::Vote(quorum, inputs) => quorum.tally(inputs.iter().map(|&s| row[s as usize])),
                Rule::Boost(run, input) => run.observe(row[*input as usize]),
            };
        }
        attached && row[0].is_low()
    }

    /// A branch resolved somewhere in the pipeline.
    #[inline]
    pub(crate) fn resolved(&mut self, mispredicted: bool) {
        for &i in &self.resolvers {
            self.leaves[i as usize]
                .estimator
                .on_branch_resolved(mispredicted);
        }
    }

    /// Trains on a committed branch.
    #[inline]
    pub(crate) fn train(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        for &i in &self.trainers {
            self.leaves[i as usize]
                .estimator
                .update(pc, ghr, pred, correct);
        }
    }

    /// Records row `slot` of a committed or squashed branch in the
    /// quadrants; returns the row.
    #[inline]
    pub(crate) fn record(&mut self, slot: u32, correct: bool, committed: bool) -> &[Confidence] {
        let estimates = self.slab.row(slot);
        for (q, &c) in self.quadrants.iter_mut().zip(estimates) {
            q.all.record(correct, c);
            if committed {
                q.committed.record(correct, c);
            }
        }
        estimates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cestim_core::{DistanceEstimator, Jrs, SaturatingConfidence, TimingEstimator, Voting};

    fn vote() -> AnyEstimator {
        Voting::new(
            vec![
                SaturatingConfidence::selected().into(),
                DistanceEstimator::new(3).into(),
                TimingEstimator::new(4).into(),
            ],
            2,
        )
        .into()
    }

    /// (leaves, combiners, row width) of a roster.
    fn shape(roster: &Roster) -> (usize, usize, usize) {
        (
            roster.leaves.len(),
            roster.combiners.len(),
            roster.slab.width,
        )
    }

    #[test]
    fn components_equal_to_leaves_share_their_columns() {
        let mut r = Roster::new(4);
        r.add(SaturatingConfidence::selected().into());
        r.add(Jrs::paper_enhanced().into());
        r.add(DistanceEstimator::new(3).into());
        r.add(TimingEstimator::new(4).into());
        assert_eq!(r.add(vote()), 4);
        assert_eq!(shape(&r), (4, 1, 5), "the vote added no column");
        assert_eq!(
            (r.trainers.len(), r.resolvers.len(), r.timed.len()),
            (1, 1, 1)
        );
        let Rule::Vote(_, inputs) = &r.combiners[0].rule else {
            panic!("a vote")
        };
        assert_eq!(inputs, &[0, 2, 3]);
    }

    #[test]
    fn other_components_get_hidden_columns_after_the_attached_slots() {
        let mut r = Roster::new(4);
        r.add(vote());
        assert_eq!(shape(&r), (3, 1, 4));
        assert_eq!(r.combiners[0].slot, 0);
        // Attaching moves the hidden columns up one; a distance leaf in a
        // different state from the vote's gets its own column.
        let mut used = DistanceEstimator::new(3);
        let pred = Prediction {
            taken: true,
            info: cestim_bpred::PredictorInfo::Bimodal {
                counter: 3,
                index: 0,
            },
        };
        used.estimate(0, 0, &pred);
        r.add(used.into());
        assert_eq!(shape(&r), (4, 1, 5));
        let Rule::Vote(_, inputs) = &r.combiners[0].rule else {
            panic!("a vote")
        };
        assert_eq!(inputs, &[2, 3, 4]);
        assert_eq!(r.leaves[3].slot, 1);
        assert_eq!(r.row(0).len(), 2, "observers see the attached slots only");
    }
}
