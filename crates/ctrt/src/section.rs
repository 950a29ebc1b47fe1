//! Regular sections: the compiler's description of future accesses.
//!
//! The compile-time analysis of the paper summarises the shared accesses of
//! a program phase as *regular section descriptors* — `[lo:hi:stride]`
//! triplets per array dimension, tagged with the kind of access. Section
//! 3.3 of the paper notes that the implementation lowers sections to sets
//! of contiguous address ranges before calling into the run-time system;
//! [`RegularSection::ranges`] is that lowering.

use pagedmem::AddrRange;
use treadmarks::{Shareable, SharedArray};

pub use treadmarks::SyncOp;

/// The access kind the compiler asserts for a section.
///
/// The `..All` variants carry the paper's `WRITE_ALL` guarantee: every byte
/// of the section is overwritten before the next release operation, so the
/// runtime keeps no twin and fetches no old contents for pages the section
/// fully covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Access {
    /// The section is only read.
    Read,
    /// The section is partially written (a twin is required, and the old
    /// contents must be valid because unwritten words survive).
    Write,
    /// The section is read and partially written.
    ReadWrite,
    /// Every byte of the section is overwritten before the next release:
    /// no twin, no fetch.
    WriteAll,
    /// The section is read, then every byte is overwritten: fetch but no
    /// twin.
    ReadWriteAll,
}

impl Access {
    /// Whether the old contents must be made valid before the access.
    pub fn needs_fetch(self) -> bool {
        !matches!(self, Access::WriteAll)
    }

    /// Whether the section is written at all.
    pub fn is_write(self) -> bool {
        !matches!(self, Access::Read)
    }

    /// Whether writes are covered by the `WRITE_ALL` guarantee.
    pub fn is_write_all(self) -> bool {
        matches!(self, Access::WriteAll | Access::ReadWriteAll)
    }
}

/// The operator of a reduction: a commutative, associative update, so the
/// partials may be combined in any order and any grouping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Wrapping addition of `u64` words.
    WrappingAdd,
}

/// A regular section lowered to address ranges, tagged with its access.
///
/// ```
/// use ctrt::{Access, RegularSection};
/// use pagedmem::Addr;
/// use treadmarks::SharedArray;
///
/// let a = SharedArray::<f64>::new(Addr::new(0), 1000);
/// let s = RegularSection::array(&a, 100..200, Access::Read);
/// assert_eq!(s.ranges().len(), 1);
/// assert_eq!(s.ranges()[0].len(), 800);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegularSection {
    ranges: Vec<AddrRange>,
    access: Access,
}

impl RegularSection {
    /// A section over arbitrary address ranges (what the lowering of a
    /// multi-dimensional descriptor produces). Empty ranges are dropped and
    /// adjacent ranges are coalesced.
    pub fn from_ranges(ranges: Vec<AddrRange>, access: Access) -> RegularSection {
        RegularSection { ranges: AddrRange::coalesce(ranges), access }
    }

    /// The section `array[lo..hi]` (stride 1).
    ///
    /// # Panics
    ///
    /// Panics if the element range is out of bounds.
    pub fn array<T: Shareable>(
        array: &SharedArray<T>,
        elems: std::ops::Range<usize>,
        access: Access,
    ) -> RegularSection {
        RegularSection::from_ranges(vec![array.range_of(elems.start, elems.end)], access)
    }

    /// The lowered address ranges (coalesced, in address order).
    pub fn ranges(&self) -> &[AddrRange] {
        &self.ranges
    }

    /// The asserted access kind.
    pub fn access(&self) -> Access {
        self.access
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::{Addr, PAGE_SIZE};
    use treadmarks::SharedMatrix;

    #[test]
    fn access_predicates_encode_the_write_all_contract() {
        assert!(Access::Read.needs_fetch());
        assert!(!Access::Read.is_write());
        assert!(Access::Write.needs_fetch());
        assert!(Access::Write.is_write());
        assert!(!Access::Write.is_write_all());
        assert!(!Access::WriteAll.needs_fetch());
        assert!(Access::WriteAll.is_write_all());
        assert!(Access::ReadWriteAll.needs_fetch());
        assert!(Access::ReadWriteAll.is_write_all());
    }

    #[test]
    fn array_sections_lower_to_one_range() {
        let a = SharedArray::<u32>::new(Addr::new(64), 100);
        let s = RegularSection::array(&a, 10..20, Access::ReadWrite);
        assert_eq!(s.ranges(), &[AddrRange::new(Addr::new(64 + 40), 40)]);
        assert_eq!(s.access(), Access::ReadWrite);
    }

    #[test]
    fn whole_columns_coalesce_into_one_contiguous_range() {
        let rows = PAGE_SIZE / 8;
        let a = SharedArray::<f64>::new(Addr::new(0), rows * 4);
        let m = SharedMatrix::new(a, rows, 4);
        let columns =
            (0..4).map(|j| m.array().range_of(m.index(0, j), m.index(0, j) + rows)).collect();
        let s = RegularSection::from_ranges(columns, Access::Read);
        assert_eq!(s.ranges(), [AddrRange::new(Addr::new(0), 4 * PAGE_SIZE)]);
    }

    #[test]
    fn empty_ranges_are_dropped() {
        let s = RegularSection::from_ranges(
            vec![AddrRange::new(Addr::new(0), 0), AddrRange::new(Addr::new(8), 8)],
            Access::Read,
        );
        assert_eq!(s.ranges().len(), 1);
    }
}
