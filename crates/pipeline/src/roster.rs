//! The estimator roster of the timing core.
//!
//! The [`Roster`] owns the attached confidence estimators with their
//! labels, quadrants and estimate slab, flattened into two parts:
//!
//! * **Leaf groups**: every non-composite estimator, each writing one slot
//!   of a branch's estimate row, filed in the group of its type (one
//!   `Vec<(estimator, slot)>` per leaf variant of [`AnyEstimator`]). Each
//!   per-branch call is one statically dispatched loop per group through
//!   all four [`ConfidenceEstimator`] methods: a method an estimator type
//!   leaves empty inlines away, so the type alone decides which calls cost
//!   anything.
//! * **Combiners**: every [`Voting`] and [`Boosted`] composite, reduced to
//!   its rule ([`Quorum`] or [`KRun`]) over the slots of its components.
//!   A component equal (same state, not same name) to an existing leaf
//!   reads that leaf's slot; any other component gets a hidden column of
//!   its own.
//!   Combiners run after the leaves, inner before outer.
//!
//! Attached estimator `i` writes slot `i`, so a row starts with the
//! estimates observers see; hidden columns fill the slots after them.

use crate::EstimatorQuadrants;
use cestim_bpred::Prediction;
use cestim_core::{
    AlwaysHigh, AlwaysLow, AnyEstimator, Boosted, Cir, Confidence, ConfidenceEstimator,
    DistanceEstimator, Jrs, JrsCombining, KRun, PatternHistory, Quorum, SaturatingConfidence,
    StaticProfile, TimingEstimator, Voting,
};

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

/// A composite estimator, handed back by [`Leaves::insert`] to be
/// reduced to a combiner.
enum Composite {
    Vote(Voting<AnyEstimator>),
    Boost(Boosted<AnyEstimator>),
}

/// Generates [`Leaves`] from the leaf variants of [`AnyEstimator`]. Its
/// `insert` matches every variant with no wildcard, so a variant missing
/// here does not compile.
macro_rules! leaf_groups {
    ($($variant:ident($ty:ty) => $group:ident),* $(,)?) => {
        /// The leaf estimators, one group per type, each with the row slot
        /// it writes.
        #[derive(Debug, Default)]
        struct Leaves {
            $($group: Vec<($ty, u32)>,)*
        }

        impl Leaves {
            /// Files a leaf in its type's group so it writes `slot`; hands
            /// a composite back.
            fn insert(&mut self, estimator: AnyEstimator, slot: u32) -> Result<(), Composite> {
                match estimator {
                    $(AnyEstimator::$variant(e) => self.$group.push((e, slot)),)*
                    AnyEstimator::Voting(v) => return Err(Composite::Vote(*v)),
                    AnyEstimator::Boosted(b) => return Err(Composite::Boost(*b)),
                }
                Ok(())
            }

            /// The slot of a leaf equal to `component`, if any.
            fn slot_of(&self, component: &AnyEstimator) -> Option<u32> {
                match component {
                    $(AnyEstimator::$variant(c) => {
                        self.$group.iter().find(|(e, _)| e == c).map(|&(_, slot)| slot)
                    })*
                    AnyEstimator::Voting(_) | AnyEstimator::Boosted(_) => None,
                }
            }

            /// Every leaf's slot.
            fn slots_mut(&mut self) -> impl Iterator<Item = &mut u32> + '_ {
                std::iter::empty()$(.chain(self.$group.iter_mut().map(|(_, slot)| slot)))*
            }

            #[inline]
            fn estimate(
                &mut self,
                row: &mut [Confidence],
                pc: u32,
                ghr: u32,
                pred: &Prediction,
                latency: u64,
            ) {
                $(for (e, slot) in &mut self.$group {
                    e.note_resolve_latency(latency);
                    row[*slot as usize] = e.estimate(pc, ghr, pred);
                })*
            }

            #[inline]
            fn resolved(&mut self, mispredicted: bool) {
                $(for (e, _) in &mut self.$group {
                    e.on_branch_resolved(mispredicted);
                })*
            }

            #[inline]
            fn train(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
                $(for (e, _) in &mut self.$group {
                    e.update(pc, ghr, pred, correct);
                })*
            }
        }
    };
}

leaf_groups! {
    Jrs(Jrs) => jrs,
    Saturating(SaturatingConfidence) => saturating,
    Pattern(PatternHistory) => pattern,
    Static(StaticProfile) => static_profile,
    Distance(DistanceEstimator) => distance,
    Cir(Cir) => cir,
    JrsCombining(JrsCombining) => jrs_combining,
    Timing(TimingEstimator) => timing,
    AlwaysHigh(AlwaysHigh) => always_high,
    AlwaysLow(AlwaysLow) => always_low,
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
    leaves: Leaves,
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
            leaves: Leaves::default(),
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
        self.leaves.slots_mut().for_each(bump);
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
        let rule = match self.leaves.insert(estimator, slot) {
            Ok(()) => return,
            Err(Composite::Vote(v)) => {
                let (components, quorum) = v.into_parts();
                let inputs = components
                    .into_iter()
                    .map(|c| self.component(c, width))
                    .collect();
                Rule::Vote(quorum, inputs)
            }
            Err(Composite::Boost(b)) => {
                let (inner, run) = b.into_parts();
                Rule::Boost(run, self.component(inner, width))
            }
        };
        self.combiners.push(Combiner { rule, slot });
    }

    /// The slot a composite reads `component` from: an equal leaf's (equal
    /// state evolves equally under the same calls), else a new hidden
    /// column's.
    fn component(&mut self, component: AnyEstimator, width: &mut usize) -> u32 {
        if let Some(slot) = self.leaves.slot_of(&component) {
            return slot;
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
        let attached = self.slab.visible > 0;
        let row = self.slab.row_mut(slot);
        self.leaves.estimate(row, pc, ghr, pred, latency);
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
        self.leaves.resolved(mispredicted);
    }

    /// Trains on a committed branch.
    #[inline]
    pub(crate) fn train(&mut self, pc: u32, ghr: u32, pred: &Prediction, correct: bool) {
        self.leaves.train(pc, ghr, pred, correct);
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
    use cestim_bpred::PredictorInfo;
    use proptest::prelude::*;
    use std::collections::VecDeque;

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
    fn shape(roster: &mut Roster) -> (usize, usize, usize) {
        (
            roster.leaves.slots_mut().count(),
            roster.combiners.len(),
            roster.slab.width,
        )
    }

    /// The slots a leaf group writes, in attach order.
    fn slots<E>(group: &[(E, u32)]) -> Vec<u32> {
        group.iter().map(|&(_, slot)| slot).collect()
    }

    #[test]
    fn components_equal_to_leaves_share_their_columns() {
        let mut r = Roster::new(4);
        r.add(SaturatingConfidence::selected().into());
        r.add(Jrs::paper_enhanced().into());
        r.add(DistanceEstimator::new(3).into());
        r.add(TimingEstimator::new(4).into());
        assert_eq!(r.add(vote()), 4);
        assert_eq!(shape(&mut r), (4, 1, 5), "the vote added no column");
        let l = &r.leaves;
        assert_eq!(
            [
                slots(&l.saturating),
                slots(&l.jrs),
                slots(&l.distance),
                slots(&l.timing)
            ],
            [[0], [1], [2], [3]],
            "each leaf sits in its type's group"
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
        assert_eq!(shape(&mut r), (3, 1, 4));
        assert_eq!(r.combiners[0].slot, 0);
        // Attaching moves the hidden columns up one; a distance leaf in a
        // different state from the vote's gets its own column.
        let mut used = DistanceEstimator::new(3);
        let pred = Prediction {
            taken: true,
            info: PredictorInfo::Bimodal {
                counter: 3,
                index: 0,
            },
        };
        used.estimate(0, 0, &pred);
        r.add(used.into());
        assert_eq!(shape(&mut r), (4, 1, 5));
        let Rule::Vote(_, inputs) = &r.combiners[0].rule else {
            panic!("a vote")
        };
        assert_eq!(inputs, &[2, 3, 4]);
        assert_eq!(slots(&r.leaves.distance), [3, 1]);
        assert_eq!(r.row(0).len(), 2, "observers see the attached slots only");
    }

    /// One estimator call site of the pipeline.
    #[derive(Debug, Clone)]
    enum Op {
        /// The roster's `estimate`, at fetch.
        Fetch {
            pc: u32,
            ghr: u32,
            pred: Prediction,
            latency: u64,
        },
        /// `resolved`.
        Resolve { mispredicted: bool },
        /// `train`, at commit.
        Commit {
            pc: u32,
            ghr: u32,
            pred: Prediction,
            correct: bool,
        },
    }

    fn prediction() -> impl Strategy<Value = Prediction> {
        let gshare = (any::<bool>(), 0u8..4, 0u32..64, 0u32..64).prop_map(
            |(taken, counter, index, history)| Prediction {
                taken,
                info: PredictorInfo::Gshare {
                    counter,
                    index,
                    history,
                },
            },
        );
        let mcfarling = (
            any::<bool>(),
            0u8..4,
            0u8..4,
            0u8..4,
            0u32..64,
            any::<bool>(),
        )
            .prop_map(
                |(taken, gshare, bimodal, meta, history, chose_gshare)| Prediction {
                    taken,
                    info: PredictorInfo::McFarling {
                        gshare,
                        bimodal,
                        meta,
                        gshare_index: history,
                        bimodal_index: history / 2,
                        history,
                        chose_gshare,
                    },
                },
            );
        prop_oneof![gshare, mcfarling]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u32..32, 0u32..64, prediction(), 0u64..10).prop_map(
                |(pc, ghr, pred, latency)| Op::Fetch { pc, ghr, pred, latency }
            ),
            1 => any::<bool>().prop_map(|mispredicted| Op::Resolve { mispredicted }),
            // Mostly correct, as committed predictions are, so counters climb.
            2 => (0u32..32, 0u32..64, prediction(), 0u8..10).prop_map(
                |(pc, ghr, pred, roll)| Op::Commit { pc, ghr, pred, correct: roll < 8 }
            ),
        ]
    }

    /// One estimator of every leaf type, then a vote whose components equal
    /// two of them and boost a third. Tables are small and thresholds low
    /// so the learning estimators leave their initial state within a
    /// stream.
    fn every_kind() -> Vec<AnyEstimator> {
        let jrs = || Jrs::new(6, 4, 3, true);
        vec![
            jrs().into(),
            SaturatingConfidence::selected().into(),
            PatternHistory::new(6).into(),
            StaticProfile::from_confident_pcs((0..32).step_by(3), 0.9).into(),
            DistanceEstimator::new(3).into(),
            Cir::new(6, 8, 5, true).into(),
            JrsCombining::new(6, 3).into(),
            TimingEstimator::new(4).into(),
            AlwaysHigh.into(),
            AlwaysLow.into(),
            Voting::new(
                vec![
                    SaturatingConfidence::selected().into(),
                    DistanceEstimator::new(3).into(),
                    Boosted::new(AnyEstimator::from(jrs()), 2).into(),
                ],
                2,
            )
            .into(),
        ]
    }

    fn record(
        quadrants: &mut [EstimatorQuadrants],
        estimates: &[Confidence],
        correct: bool,
        committed: bool,
    ) {
        for (q, &c) in quadrants.iter_mut().zip(estimates) {
            q.all.record(correct, c);
            if committed {
                q.committed.record(correct, c);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The roster gives every row and quadrant that the same estimators
        /// give standalone, driven through all four methods.
        #[test]
        fn roster_matches_standalone_estimators(ops in prop::collection::vec(op(), 1..400)) {
            const WINDOW: usize = 4;
            let mut roster = Roster::new(WINDOW);
            for e in every_kind() {
                roster.add(e);
            }
            // The vote's satctr, distance and the boost's jrs share leaf
            // columns; only the boost gets a hidden one.
            prop_assert_eq!(shape(&mut roster), (10, 2, 12));
            let mut standalone = every_kind();
            let mut quadrants = vec![EstimatorQuadrants::default(); standalone.len()];
            // In-flight rows, oldest first, with the estimates each holds.
            let mut inflight: VecDeque<(u32, Vec<Confidence>)> = VecDeque::new();
            let mut next = 0;
            for op in &ops {
                match *op {
                    Op::Fetch { pc, ghr, ref pred, latency } => {
                        if inflight.len() == WINDOW {
                            // A full window squashes its oldest row.
                            let (slot, expect) = inflight.pop_front().unwrap();
                            record(&mut quadrants, &expect, true, false);
                            prop_assert_eq!(roster.record(slot, true, false), &expect[..]);
                        }
                        let slot = next;
                        next = (next + 1) % WINDOW as u32;
                        let low = roster.estimate(slot, pc, ghr, pred, latency);
                        let expect: Vec<Confidence> = standalone
                            .iter_mut()
                            .map(|e| {
                                e.note_resolve_latency(latency);
                                e.estimate(pc, ghr, pred)
                            })
                            .collect();
                        prop_assert_eq!(roster.row(slot), &expect[..]);
                        prop_assert_eq!(low, expect[0].is_low());
                        inflight.push_back((slot, expect));
                    }
                    Op::Resolve { mispredicted } => {
                        roster.resolved(mispredicted);
                        for e in &mut standalone {
                            e.on_branch_resolved(mispredicted);
                        }
                    }
                    Op::Commit { pc, ghr, ref pred, correct } => {
                        roster.train(pc, ghr, pred, correct);
                        for e in &mut standalone {
                            e.update(pc, ghr, pred, correct);
                        }
                        if let Some((slot, expect)) = inflight.pop_front() {
                            record(&mut quadrants, &expect, correct, true);
                            prop_assert_eq!(roster.record(slot, correct, true), &expect[..]);
                        }
                    }
                }
            }
            prop_assert_eq!(roster.quadrants(), &quadrants[..]);
        }
    }
}
