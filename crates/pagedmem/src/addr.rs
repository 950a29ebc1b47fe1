//! Byte addresses and address ranges within the shared space.

use std::fmt;
use std::ops::Add;

use crate::{PageId, PAGE_SIZE};

/// A byte address within the shared address space.
///
/// Shared addresses are logical offsets from the start of the shared heap,
/// not host pointers; every node lays the shared heap out identically (see
/// [`SharedAlloc`](crate::SharedAlloc)), so an `Addr` names the same datum on
/// every node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(usize);

impl Addr {
    /// The first address of the shared space.
    pub const ZERO: Addr = Addr(0);

    /// Creates an address from a byte offset.
    pub const fn new(offset: usize) -> Addr {
        Addr(offset)
    }

    /// The raw byte offset.
    pub const fn as_usize(self) -> usize {
        self.0
    }

    /// Offset of this address within its page.
    pub const fn page_offset(self) -> usize {
        self.0 % PAGE_SIZE
    }

    /// The page containing this address.
    pub fn page(self) -> PageId {
        PageId::containing(self)
    }

    /// Address advanced by `bytes`.
    pub const fn offset(self, bytes: usize) -> Addr {
        Addr(self.0 + bytes)
    }

    /// Rounds up to the next page boundary (identity if already aligned).
    pub const fn page_align_up(self) -> Addr {
        Addr(self.0.div_ceil(PAGE_SIZE) * PAGE_SIZE)
    }
}

impl Add<usize> for Addr {
    type Output = Addr;

    fn add(self, rhs: usize) -> Addr {
        Addr(self.0 + rhs)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A half-open range of shared addresses `[start, start + len)`.
///
/// The compiler interface translates regular sections into sets of
/// `AddrRange`s before calling into the run-time system (Section 3.3 of the
/// paper notes that the implementation passes contiguous address ranges
/// rather than sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AddrRange {
    start: Addr,
    len: usize,
}

impl AddrRange {
    /// Creates the range `[start, start + len)`.
    pub const fn new(start: Addr, len: usize) -> AddrRange {
        AddrRange { start, len }
    }

    /// Creates the range covering exactly one page.
    pub fn page(page: PageId) -> AddrRange {
        AddrRange { start: page.base(), len: PAGE_SIZE }
    }

    /// First address of the range.
    pub const fn start(&self) -> Addr {
        self.start
    }

    /// One past the last address of the range.
    pub const fn end(&self) -> Addr {
        Addr(self.start.0 + self.len)
    }

    /// Length in bytes.
    pub const fn len(&self) -> usize {
        self.len
    }

    /// Whether the range is empty.
    pub const fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The intersection of two ranges, if it is non-empty.
    pub fn intersect(&self, other: &AddrRange) -> Option<AddrRange> {
        let start = self.start.max(other.start);
        let end = self.end().min(other.end());
        if start < end {
            Some(AddrRange::new(start, end.as_usize() - start.as_usize()))
        } else {
            None
        }
    }

    /// Iterator over the pages the range touches (inclusive of partially
    /// covered first and last pages).
    pub fn pages(&self) -> impl Iterator<Item = PageId> {
        let first = if self.len == 0 { 1 } else { self.start.as_usize() / PAGE_SIZE };
        let last = if self.len == 0 { 0 } else { (self.end().as_usize() - 1) / PAGE_SIZE };
        (first..=last).map(PageId)
    }

    /// Coalesces a set of ranges: sorts them and merges adjacent or
    /// overlapping ranges into maximal contiguous ranges.
    pub fn coalesce(mut ranges: Vec<AddrRange>) -> Vec<AddrRange> {
        ranges.retain(|r| !r.is_empty());
        ranges.sort_by_key(|r| r.start);
        let mut out: Vec<AddrRange> = Vec::with_capacity(ranges.len());
        for r in ranges {
            match out.last_mut() {
                Some(last) if r.start <= last.end() => {
                    let new_end = last.end().max(r.end());
                    *last = AddrRange::new(last.start, new_end.as_usize() - last.start.as_usize());
                }
                _ => out.push(r),
            }
        }
        out
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}..{}) ({} bytes)", self.start, self.end(), self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_page_arithmetic() {
        let a = Addr::new(PAGE_SIZE + 10);
        assert_eq!(a.page(), PageId(1));
        assert_eq!(a.page_offset(), 10);
        assert_eq!(a.page_align_up(), Addr::new(2 * PAGE_SIZE));
        assert_eq!(Addr::new(2 * PAGE_SIZE).page_align_up(), Addr::new(2 * PAGE_SIZE));
    }

    #[test]
    fn range_basic_queries() {
        let r = AddrRange::new(Addr::new(100), 50);
        assert_eq!(r.end(), Addr::new(150));
        assert!(!r.is_empty());
        assert!(AddrRange::new(Addr::ZERO, 0).is_empty());
    }

    #[test]
    fn range_intersection() {
        let a = AddrRange::new(Addr::new(0), 100);
        let b = AddrRange::new(Addr::new(50), 100);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, AddrRange::new(Addr::new(50), 50));
        let c = AddrRange::new(Addr::new(200), 10);
        assert!(a.intersect(&c).is_none());
        // Touching but not overlapping ranges do not intersect.
        let d = AddrRange::new(Addr::new(100), 10);
        assert!(a.intersect(&d).is_none());
    }

    #[test]
    fn range_page_enumeration() {
        let r = AddrRange::new(Addr::new(PAGE_SIZE - 1), 2);
        let pages: Vec<_> = r.pages().collect();
        assert_eq!(pages, vec![PageId(0), PageId(1)]);

        let empty = AddrRange::new(Addr::new(10), 0);
        assert_eq!(empty.pages().count(), 0);

        let exact = AddrRange::new(Addr::new(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(exact.pages().collect::<Vec<_>>(), vec![PageId(1)]);
    }

    #[test]
    fn coalesce_merges_adjacent_and_overlapping() {
        let ranges = vec![
            AddrRange::new(Addr::new(100), 50),
            AddrRange::new(Addr::new(0), 50),
            AddrRange::new(Addr::new(50), 50),
            AddrRange::new(Addr::new(120), 100),
            AddrRange::new(Addr::new(400), 0),
        ];
        let merged = AddrRange::coalesce(ranges);
        assert_eq!(merged, vec![AddrRange::new(Addr::new(0), 220)]);
    }
}
