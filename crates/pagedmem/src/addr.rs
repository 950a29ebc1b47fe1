//! Byte addresses and address ranges within the shared space.

use std::fmt;
use std::ops::{Add, Range};

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

    /// The range cut at page boundaries, the one place that cuts: for each
    /// page it touches, ascending, the page, the page-relative bytes the
    /// range covers in it, and where those bytes start within the range.
    pub fn page_runs(&self) -> impl Iterator<Item = (PageId, Range<usize>, usize)> {
        let (start, end) = (self.start.as_usize(), self.end().as_usize());
        self.pages().map(move |page| {
            let base = page.base().as_usize();
            let from = start.max(base);
            (page, from - base..end.min(base + PAGE_SIZE) - base, from - start)
        })
    }

    /// Coalesces a set of ranges: sorts them and merges adjacent or
    /// overlapping ranges into maximal contiguous ranges.
    pub fn coalesce(mut ranges: Vec<AddrRange>) -> Vec<AddrRange> {
        ranges.retain(|r| !r.is_empty());
        ranges.sort_by_key(|r| r.start);
        // In place: each range either extends the last one kept or is kept.
        ranges.dedup_by(|r, last| {
            let overlaps = r.start <= last.end();
            if overlaps {
                let new_end = last.end().max(r.end());
                *last = AddrRange::new(last.start, new_end.as_usize() - last.start.as_usize());
            }
            overlaps
        });
        ranges
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

    /// Random aligned and unaligned starts, lengths of 0–3 pages: the runs
    /// ascend by page, stay inside their page and tile the range with
    /// consecutive offsets; an empty range has none.
    #[test]
    fn page_runs_tile_the_range_page_by_page() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        for case in 0..2000 {
            let aligned = case % 2 == 0;
            let start = next(4) * PAGE_SIZE + if aligned { 0 } else { next(PAGE_SIZE) };
            let len = if case % 4 < 2 { next(4) * PAGE_SIZE } else { next(3 * PAGE_SIZE + 1) };
            let range = AddrRange::new(Addr::new(start), len);
            let runs: Vec<_> = range.page_runs().collect();
            assert_eq!(runs.is_empty(), len == 0, "{range}");
            let mut covered = 0;
            for (i, (page, bytes, at)) in runs.iter().enumerate() {
                if i > 0 {
                    assert_eq!(page.0, runs[i - 1].0 .0 + 1, "{range}: ascending by page");
                }
                assert!(bytes.start < bytes.end && bytes.end <= PAGE_SIZE, "{range}: {bytes:?}");
                assert_eq!(*at, covered, "{range}: consecutive offsets");
                assert_eq!(page.base().as_usize() + bytes.start, start + at, "{range}");
                covered += bytes.len();
            }
            assert_eq!(covered, len, "{range}: the runs tile the range");
        }
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
