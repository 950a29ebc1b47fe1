//! Pages, page identifiers and protection state.

use std::fmt;

use crate::Addr;

/// The page size used throughout the system, in bytes.
///
/// The IBM SP/2 nodes in the paper use 4 KiB pages; diffs, twins and all
/// consistency bookkeeping operate at this granularity.
pub const PAGE_SIZE: usize = 4096;

/// Identifies one page of the shared address space.
///
/// Page `n` covers byte addresses `[n * PAGE_SIZE, (n + 1) * PAGE_SIZE)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub usize);

impl PageId {
    /// The page containing byte address `addr`.
    pub fn containing(addr: Addr) -> PageId {
        PageId(addr.as_usize() / PAGE_SIZE)
    }

    /// First byte address of this page.
    pub fn base(self) -> Addr {
        Addr::new(self.0 * PAGE_SIZE)
    }

    /// One past the last byte address of this page.
    pub fn end(self) -> Addr {
        Addr::new((self.0 + 1) * PAGE_SIZE)
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One page's worth of bytes.
///
/// Pages are heap allocated and zero-initialised, matching the behaviour of
/// freshly mapped anonymous memory.
#[derive(Clone, PartialEq, Eq)]
pub struct Page {
    bytes: Box<[u8]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Page {
        Page { bytes: vec![0u8; PAGE_SIZE].into_boxed_slice() }
    }

    /// Read-only view of the page contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable view of the page contents.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.bytes.iter().filter(|&&b| b != 0).count();
        write!(f, "Page {{ nonzero_bytes: {nonzero} }}")
    }
}

/// Protection / validity state of a page on one node.
///
/// This mirrors the states a TreadMarks page can be in:
///
/// * `Unmapped` — the node has never touched the page; the first access
///   fetches a whole copy,
/// * `Invalid` — a write notice invalidated the local copy; the data is stale
///   and an access must fetch and apply the missing diffs,
/// * `ReadOnly` — the copy is consistent and write-protected (writes fault and
///   trigger twin creation),
/// * `ReadWrite` — the copy is consistent and writable; a twin records the
///   pre-modification contents unless twinning was bypassed by the compiler
///   interface (`WRITE_ALL`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protection {
    /// Never mapped on this node.
    Unmapped,
    /// Mapped but invalidated by consistency actions.
    Invalid,
    /// Mapped, consistent, and write-protected.
    ReadOnly,
    /// Mapped, consistent, and writable.
    ReadWrite,
}

impl Protection {
    /// Whether a read access is allowed without faulting.
    pub fn allows_read(self) -> bool {
        matches!(self, Protection::ReadOnly | Protection::ReadWrite)
    }

    /// Whether a write access is allowed without faulting.
    pub fn allows_write(self) -> bool {
        matches!(self, Protection::ReadWrite)
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protection::Unmapped => "unmapped",
            Protection::Invalid => "invalid",
            Protection::ReadOnly => "read-only",
            Protection::ReadWrite => "read-write",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_ids_partition_the_address_space() {
        let addr = Addr::new(3 * PAGE_SIZE + 17);
        let page = PageId::containing(addr);
        assert_eq!(page, PageId(3));
        assert!(page.base() <= addr && addr < page.end());
    }

    #[test]
    fn pages_start_zeroed() {
        let p = Page::zeroed();
        assert!(p.as_slice().iter().all(|&b| b == 0));
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
    }

    #[test]
    fn protection_predicates() {
        assert!(!Protection::Unmapped.allows_read());
        assert!(!Protection::Invalid.allows_read());
        assert!(Protection::ReadOnly.allows_read());
        assert!(!Protection::ReadOnly.allows_write());
        assert!(Protection::ReadWrite.allows_read());
        assert!(Protection::ReadWrite.allows_write());
    }

    #[test]
    fn debug_reports_nonzero_bytes() {
        let mut p = Page::zeroed();
        p.as_mut_slice()[0] = 1;
        p.as_mut_slice()[1] = 2;
        assert!(format!("{p:?}").contains("2"));
    }
}
