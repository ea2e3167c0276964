//! The undo log that rewinds speculative state.

use std::collections::VecDeque;

/// A log of overwritten values, for rewinding speculative writes.
///
/// Every write that may need undoing appends an entry `E` describing what
/// it overwrote. A checkpoint is just a [`mark`](UndoLog::mark): an
/// absolute position that keeps its meaning as old entries are released.
/// Recovery [rolls back](UndoLog::rollback) to a mark by handing the
/// entries younger than it back, newest first; commit of the oldest
/// outstanding checkpoint [releases](UndoLog::release) the entries older
/// than its mark, keeping the log bounded by the speculation window.
#[derive(Debug, Clone)]
pub struct UndoLog<E> {
    entries: VecDeque<E>,
    /// Absolute position of `entries[0]`.
    base: u64,
}

impl<E> Default for UndoLog<E> {
    fn default() -> UndoLog<E> {
        UndoLog {
            entries: VecDeque::new(),
            base: 0,
        }
    }
}

impl<E> UndoLog<E> {
    /// Creates an empty log.
    pub fn new() -> UndoLog<E> {
        UndoLog::default()
    }

    /// The current position: rolling back to it undoes every entry pushed
    /// after this call.
    #[inline]
    pub fn mark(&self) -> u64 {
        self.base + self.entries.len() as u64
    }

    /// Records one overwritten value.
    #[inline]
    pub fn push(&mut self, entry: E) {
        self.entries.push_back(entry);
    }

    /// Pops every entry pushed since `mark`, newest first, handing each to
    /// `undo`.
    ///
    /// # Panics
    ///
    /// Panics if entries after `mark` have been released (a younger mark
    /// was released past it): a checkpoint-discipline bug in the caller.
    #[inline]
    pub fn rollback(&mut self, mark: u64, mut undo: impl FnMut(E)) {
        assert!(mark >= self.base, "rollback to a released undo mark");
        while self.mark() > mark {
            undo(self.entries.pop_back().expect("undo log underflow"));
        }
    }

    /// Drops the entries older than `mark`, making states before it
    /// unreachable. Call when the checkpoint owning `mark` commits.
    #[inline]
    pub fn release(&mut self, mark: u64) {
        let n = (mark.saturating_sub(self.base) as usize).min(self.entries.len());
        if n > 0 {
            self.entries.drain(..n);
            self.base += n as u64;
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entry is live.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SparseMemory;

    /// Memory whose writes feed an undo log through the returned old word.
    #[derive(Default)]
    struct Logged {
        mem: SparseMemory,
        log: UndoLog<(u32, u32)>,
    }

    impl Logged {
        fn write(&mut self, addr: u32, val: u32) {
            let old = self.mem.write(addr, val);
            self.log.push((addr, old));
        }

        fn rollback(&mut self, mark: u64) {
            let mem = &mut self.mem;
            self.log.rollback(mark, |(addr, old)| {
                mem.write(addr, old);
            });
        }
    }

    #[test]
    fn rollback_restores_previous_values() {
        let mut m = Logged::default();
        m.write(10, 1);
        let mark = m.log.mark();
        m.write(10, 2);
        m.write(11, 3);
        assert_eq!(m.mem.read(10), 2);
        m.rollback(mark);
        assert_eq!(m.mem.read(10), 1);
        assert_eq!(m.mem.read(11), 0);
    }

    #[test]
    fn nested_rollback_pops_in_lifo_order() {
        let mut m = Logged::default();
        m.write(0, 1);
        let outer = m.log.mark();
        m.write(0, 2);
        let inner = m.log.mark();
        m.write(0, 3);
        m.rollback(inner);
        assert_eq!(m.mem.read(0), 2);
        m.rollback(outer);
        assert_eq!(m.mem.read(0), 1);
    }

    #[test]
    fn release_bounds_the_log() {
        let mut m = Logged::default();
        for i in 0..100 {
            m.write(i, i);
        }
        let mark = m.log.mark();
        assert_eq!(m.log.len(), 100);
        m.log.release(mark);
        assert!(m.log.is_empty());
        // Later marks still roll back correctly.
        let mark2 = m.log.mark();
        m.write(5, 99);
        m.rollback(mark2);
        assert_eq!(m.mem.read(5), 5);
    }

    #[test]
    #[should_panic(expected = "released undo mark")]
    fn rollback_past_release_panics() {
        let mut m = Logged::default();
        let early = m.log.mark();
        m.write(0, 1);
        let late = m.log.mark();
        m.log.release(late);
        m.rollback(early);
    }
}
