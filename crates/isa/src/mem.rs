//! Sparse word-addressed memory.

use std::cell::Cell;

const PAGE_BITS: u32 = 12;
const PAGE_WORDS: usize = 1 << PAGE_BITS;
const OFFSET_MASK: u32 = (PAGE_WORDS as u32) - 1;

/// Sparse, word-addressed 32-bit memory. Reads of unwritten locations
/// return `0`.
///
/// [`write`](SparseMemory::write) returns the word it overwrote, which is
/// all a caller needs to rewind it: the [`Machine`](crate::Machine) pushes
/// that word onto its [`UndoLog`](crate::UndoLog) while a checkpoint is
/// outstanding.
#[derive(Debug, Clone, Default)]
pub struct SparseMemory {
    /// Resident pages sorted by page number. Programs touch a handful of
    /// pages, so a sorted vector + binary search beats hashing every access;
    /// the one-entry MRU hint below turns the strong page locality of real
    /// address streams into an O(1) fast path.
    pages: Vec<(u32, Box<[u32; PAGE_WORDS]>)>,
    /// Index of the most recently accessed page (a hint, validated on use).
    mru: Cell<usize>,
}

impl SparseMemory {
    /// Creates an empty memory (all words read as zero).
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Index of the page `page_no` in `pages`, if resident.
    #[inline]
    fn find_page(&self, page_no: u32) -> Option<usize> {
        let hint = self.mru.get();
        if let Some((p, _)) = self.pages.get(hint) {
            if *p == page_no {
                return Some(hint);
            }
        }
        match self.pages.binary_search_by_key(&page_no, |(p, _)| *p) {
            Ok(i) => {
                self.mru.set(i);
                Some(i)
            }
            Err(_) => None,
        }
    }

    /// The page containing `page_no`, allocated (zeroed) on first touch.
    fn page_mut(&mut self, page_no: u32) -> &mut [u32; PAGE_WORDS] {
        let idx = match self.find_page(page_no) {
            Some(i) => i,
            None => {
                let i = self
                    .pages
                    .binary_search_by_key(&page_no, |(p, _)| *p)
                    .unwrap_err();
                self.pages
                    .insert(i, (page_no, Box::new([0u32; PAGE_WORDS])));
                self.mru.set(i);
                i
            }
        };
        &mut self.pages[idx].1
    }

    /// Reads the word at `addr`.
    #[inline]
    pub fn read(&self, addr: u32) -> u32 {
        match self.find_page(addr >> PAGE_BITS) {
            Some(i) => self.pages[i].1[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes `val` to `addr`, returning the overwritten word.
    #[inline]
    pub fn write(&mut self, addr: u32, val: u32) -> u32 {
        let page = self.page_mut(addr >> PAGE_BITS);
        std::mem::replace(&mut page[(addr & OFFSET_MASK) as usize], val)
    }

    /// Number of resident pages (each covering 4 Ki words).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(u32::MAX), 0);
    }

    #[test]
    fn write_then_read() {
        let mut m = SparseMemory::new();
        m.write(42, 7);
        m.write(u32::MAX, 9);
        assert_eq!(m.read(42), 7);
        assert_eq!(m.read(u32::MAX), 9);
        assert_eq!(m.read(41), 0);
        assert_eq!(m.write(42, 8), 7, "write returns the overwritten word");
    }

    #[test]
    fn pages_are_shared_across_neighbouring_addresses() {
        let mut m = SparseMemory::new();
        m.write(0, 1);
        m.write(1, 2);
        assert_eq!(m.page_count(), 1);
        m.write(1 << PAGE_BITS, 3);
        assert_eq!(m.page_count(), 2);
    }
}
