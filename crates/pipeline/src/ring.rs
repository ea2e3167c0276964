//! The speculation window's storage: one fixed ring of in-flight entries.
//!
//! [`Ring`] is allocated once, at the power of two at or above the window,
//! and never grows. Entries are addressed by their position from the oldest
//! (index 0) and live at physical slot `(head + index) & mask`, so commit
//! (pop the front), squash (pop the back) and the resolution scan need no
//! wrap logic beyond one mask. Each entry's resolve deadline sits in a
//! parallel array, so the per-cycle resolution scan reads one small array
//! instead of the full entries.

use std::ops::{Index, IndexMut};

/// The deadline of an entry that already resolved: it never fires again.
pub(crate) const RESOLVED: u64 = u64::MAX;

/// A fixed-capacity FIFO of `T` with a resolve deadline per entry (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Ring<T> {
    entries: Box<[T]>,
    deadlines: Box<[u64]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl<T: Copy> Ring<T> {
    /// A ring holding up to `window` entries, with `window` rounded up to a
    /// power of two; every slot starts as a copy of `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub(crate) fn new(window: usize, fill: T) -> Ring<T> {
        assert!(window > 0, "a ring holds at least one entry");
        let capacity = window.next_power_of_two();
        Ring {
            entries: vec![fill; capacity].into_boxed_slice(),
            deadlines: vec![RESOLVED; capacity].into_boxed_slice(),
            head: 0,
            len: 0,
            mask: capacity - 1,
        }
    }

    /// Physical slots: the power of two the window was rounded up to.
    pub(crate) fn capacity(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Physical slot of the entry at `index` (which need not be occupied).
    #[inline]
    pub(crate) fn slot(&self, index: usize) -> usize {
        (self.head + index) & self.mask
    }

    /// Appends an entry resolving at `deadline` as the youngest and
    /// returns its slot, still holding whatever it held last, for the
    /// caller to fill in place.
    #[inline]
    pub(crate) fn push_back(&mut self, deadline: u64) -> &mut T {
        debug_assert!(self.len <= self.mask, "ring overflow");
        let slot = self.slot(self.len);
        self.deadlines[slot] = deadline;
        self.len += 1;
        &mut self.entries[slot]
    }

    /// Removes the oldest entry.
    #[inline]
    pub(crate) fn pop_front(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty ring");
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
    }

    /// Removes the youngest entry.
    #[inline]
    pub(crate) fn pop_back(&mut self) {
        debug_assert!(self.len > 0, "pop from an empty ring");
        self.len -= 1;
    }

    #[inline]
    pub(crate) fn front(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.entries[self.head])
    }

    #[inline]
    pub(crate) fn back(&self) -> Option<&T> {
        (self.len > 0).then(|| &self.entries[self.slot(self.len - 1)])
    }

    /// Resolve deadline of the entry at `index` ([`RESOLVED`] once it
    /// resolved).
    #[inline]
    pub(crate) fn deadline(&self, index: usize) -> u64 {
        debug_assert!(index < self.len, "deadline past the youngest entry");
        self.deadlines[self.slot(index)]
    }

    #[inline]
    pub(crate) fn set_deadline(&mut self, index: usize, deadline: u64) {
        debug_assert!(index < self.len, "deadline past the youngest entry");
        let slot = self.slot(index);
        self.deadlines[slot] = deadline;
    }

    /// The entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        (0..self.len).map(|i| &self.entries[self.slot(i)])
    }
}

impl<T> Index<usize> for Ring<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        assert!(index < self.len, "ring index {index} out of range");
        &self.entries[(self.head + index) & self.mask]
    }
}

impl<T> IndexMut<usize> for Ring<T> {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut T {
        assert!(index < self.len, "ring index {index} out of range");
        &mut self.entries[(self.head + index) & self.mask]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    #[derive(Debug, Clone)]
    enum Op {
        Push(u32, u64),
        PopFront,
        PopBack,
        Get(usize),
        SetDeadline(usize, u64),
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                4 => (any::<u32>(), any::<u64>()).prop_map(|(v, d)| Op::Push(v, d)),
                2 => Just(Op::PopFront),
                1 => Just(Op::PopBack),
                2 => (0usize..16).prop_map(Op::Get),
                2 => (0usize..16, any::<u64>()).prop_map(|(i, d)| Op::SetDeadline(i, d)),
            ],
            0..200,
        )
    }

    proptest! {
        /// The ring behaves exactly like a `VecDeque` of `(entry, deadline)`
        /// pairs capped at the window, for windows that are and are not
        /// powers of two.
        #[test]
        fn ring_matches_a_vecdeque_model(ops in ops()) {
            for window in [1usize, 3, 8, 12] {
                let mut ring = Ring::new(window, 0u32);
                prop_assert_eq!(ring.capacity(), window.next_power_of_two());
                let mut model: VecDeque<(u32, u64)> = VecDeque::new();
                for op in &ops {
                    match *op {
                        Op::Push(v, d) => {
                            // The core never fetches past the window.
                            if model.len() < window {
                                *ring.push_back(d) = v;
                                model.push_back((v, d));
                            }
                        }
                        Op::PopFront => {
                            if model.pop_front().is_some() {
                                ring.pop_front();
                            }
                        }
                        Op::PopBack => {
                            if model.pop_back().is_some() {
                                ring.pop_back();
                            }
                        }
                        Op::Get(i) => {
                            if let Some(&(v, d)) = model.get(i) {
                                prop_assert_eq!(ring[i], v);
                                prop_assert_eq!(ring.deadline(i), d);
                            }
                        }
                        Op::SetDeadline(i, d) => {
                            if let Some(e) = model.get_mut(i) {
                                e.1 = d;
                                ring.set_deadline(i, d);
                                ring[i] ^= 1;
                                e.0 ^= 1;
                            }
                        }
                    }
                    prop_assert_eq!(ring.len(), model.len());
                    prop_assert_eq!(ring.is_empty(), model.is_empty());
                    prop_assert_eq!(ring.front(), model.front().map(|(v, _)| v));
                    prop_assert_eq!(ring.back(), model.back().map(|(v, _)| v));
                    let entries: Vec<u32> = ring.iter().copied().collect();
                    let expected: Vec<u32> = model.iter().map(|&(v, _)| v).collect();
                    prop_assert_eq!(entries, expected);
                    for (i, &(_, d)) in model.iter().enumerate() {
                        prop_assert_eq!(ring.deadline(i), d);
                    }
                }
            }
        }
    }

    #[test]
    fn slots_are_physical_and_wrap_with_the_mask() {
        let mut ring = Ring::new(3, 0u8);
        assert_eq!(ring.capacity(), 4);
        for v in 0..3 {
            *ring.push_back(0) = v;
        }
        ring.pop_front();
        ring.pop_front();
        *ring.push_back(0) = 3;
        *ring.push_back(0) = 4;
        assert_eq!(ring.slot(0), 2);
        assert_eq!(ring.slot(2), 0, "the third entry wrapped to slot 0");
        assert_eq!(ring.iter().copied().collect::<Vec<_>>(), [2, 3, 4]);
    }
}
