//! Pages, page identifiers and protection state.

use std::fmt;
use std::sync::Arc;

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

    /// This page's slot in a page-indexed vector, grown to it if need be.
    /// The buffer grows in runs of 64 pages, so a node that maps a few pages
    /// of each of a few arrays allocates it once.
    pub fn slot_in<T: Default>(self, slots: &mut Vec<T>) -> &mut T {
        if slots.len() <= self.0 {
            slots.reserve((self.0 + 1).next_multiple_of(64) - slots.len());
            slots.resize_with(self.0 + 1, T::default);
        }
        &mut slots[self.0]
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One page's worth of bytes, copy-on-write.
///
/// Pages are zero-initialised, matching the behaviour of freshly mapped
/// anonymous memory. The bytes live behind one shared buffer: a
/// [`clone`](Clone::clone) shares it (a reference-count bump, no copy), and
/// the first [`as_mut_slice`](Self::as_mut_slice) of a page whose buffer is
/// shared gives that page a copy of its own, leaving every other holder's
/// bytes as they were. So a frame, its twin and the copy a flush keeps of it
/// hold one buffer until the frame is next written, and a twinned interval
/// copies its page once, at its first write. Reads never touch the
/// reference count; a write pays one uniqueness check.
#[derive(Clone)]
pub struct Page {
    bytes: Arc<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Page {
        Page { bytes: Arc::new([0u8; PAGE_SIZE]) }
    }

    /// Read-only view of the page contents.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..]
    }

    /// Mutable view of the page contents: copies the bytes first if another
    /// page shares them.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut Arc::make_mut(&mut self.bytes)[..]
    }
}

/// Pages compare by content; two that share one buffer are equal without
/// looking at it (a page enabled for writing but never written is equal to
/// its twin at once).
impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes) || self.bytes == other.bytes
    }
}

impl Eq for Page {}

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
        assert!(page.base() <= addr && addr < page.base().offset(PAGE_SIZE));
    }

    #[test]
    fn pages_start_zeroed() {
        let p = Page::zeroed();
        assert!(p.as_slice().iter().all(|&b| b == 0));
        assert_eq!(p.as_slice().len(), PAGE_SIZE);
    }

    #[test]
    fn a_clone_shares_the_bytes_and_a_write_detaches_only_the_writer() {
        let mut frame = Page::zeroed();
        frame.as_mut_slice()[0] = 1;
        let twin = frame.clone();
        let copy = frame.clone();
        // A clone copies nothing: all three read one buffer.
        assert_eq!(twin.as_slice().as_ptr(), frame.as_slice().as_ptr());
        assert_eq!(copy.as_slice().as_ptr(), frame.as_slice().as_ptr());
        frame.as_mut_slice()[1] = 2;
        assert_ne!(frame.as_slice().as_ptr(), twin.as_slice().as_ptr(), "the writer detaches");
        assert_eq!(twin.as_slice().as_ptr(), copy.as_slice().as_ptr(), "the others still share");
        assert_eq!(twin.as_slice()[..2], [1, 0], "the write reaches only the writer");
        assert_eq!(frame.as_slice()[..2], [1, 2]);
        // A page that holds its buffer alone is written in place.
        let alone = frame.as_slice().as_ptr();
        frame.as_mut_slice()[2] = 3;
        assert_eq!(frame.as_slice().as_ptr(), alone);
    }

    #[test]
    fn equality_compares_content() {
        let mut a = Page::zeroed();
        let b = Page::zeroed();
        assert_eq!(a, b, "two buffers, same bytes");
        assert_eq!(a, a.clone(), "one buffer");
        a.as_mut_slice()[PAGE_SIZE - 1] = 7;
        assert_ne!(a, b);
        let mut c = b.clone();
        c.as_mut_slice()[PAGE_SIZE - 1] = 7;
        assert_eq!(a, c, "equal bytes in different buffers");
        assert_ne!(b, c, "a detached write is not seen through the old buffer");
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
