//! The deterministic shared-heap allocator.

use crate::{Addr, AddrRange, MemError, PAGE_SIZE};

/// A bump allocator for the shared address space.
///
/// TreadMarks programs allocate shared data with `Tmk_malloc`; every process
/// must agree on where each shared object lives. In this reproduction every
/// node performs the same allocation sequence (SPMD style), so a simple
/// deterministic bump allocator guarantees identical layouts without any
/// communication. All shared variables live in a single arena, mirroring the
/// paper's requirement that shared variables be allocated in one common block
/// (`shared_common`).
///
/// ```
/// use pagedmem::SharedAlloc;
/// let mut heap = SharedAlloc::new();
/// let a = heap.alloc_array_page_aligned::<f64>(100).unwrap();
/// let b = heap.alloc_array_page_aligned::<f64>(100).unwrap();
/// assert_ne!(a.start(), b.start());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedAlloc {
    next: usize,
    limit: usize,
}

impl SharedAlloc {
    /// Creates an allocator over 1 GiB of shared address space (pages are
    /// mapped lazily, so this costs nothing until touched).
    pub fn new() -> SharedAlloc {
        SharedAlloc { next: 0, limit: 1 << 30 }
    }

    /// Allocates `bytes` bytes aligned to `align`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if the arena is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    fn alloc(&mut self, bytes: usize, align: usize) -> Result<AddrRange, MemError> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let start = (self.next + align - 1) & !(align - 1);
        let available = self.limit - self.next;
        let end = start
            .checked_add(bytes)
            .ok_or(MemError::OutOfMemory { requested: bytes, available })?;
        if end > self.limit {
            return Err(MemError::OutOfMemory { requested: bytes, available });
        }
        self.next = end;
        Ok(AddrRange::new(Addr::new(start), bytes))
    }

    /// Allocates an array of `len` elements of `T`, aligned to a page
    /// boundary. Page alignment is what the paper's Jacobi discussion assumes
    /// for boundary columns, and what real TreadMarks programs arrange to
    /// minimise false sharing.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfMemory`] if the arena is exhausted.
    pub fn alloc_array_page_aligned<T>(&mut self, len: usize) -> Result<AddrRange, MemError> {
        self.alloc(len * std::mem::size_of::<T>(), PAGE_SIZE)
    }
}

impl Default for SharedAlloc {
    fn default() -> Self {
        SharedAlloc::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut heap = SharedAlloc::new();
        let a = heap.alloc(100, 8).unwrap();
        let b = heap.alloc(100, 8).unwrap();
        assert!(a.intersect(&b).is_none());
        assert!(b.start() >= a.end());
    }

    #[test]
    fn alignment_is_respected() {
        let mut heap = SharedAlloc::new();
        heap.alloc(3, 1).unwrap();
        let a = heap.alloc(16, 64).unwrap();
        assert_eq!(a.start().as_usize() % 64, 0);
        let p = heap.alloc_array_page_aligned::<f64>(10).unwrap();
        assert_eq!(p.start().page_offset(), 0);
    }

    #[test]
    fn identical_sequences_give_identical_layouts() {
        let mut a = SharedAlloc::new();
        let mut b = SharedAlloc::new();
        let seq_a: Vec<_> = (1..10).map(|i| a.alloc(i * 28, 4).unwrap()).collect();
        let seq_b: Vec<_> = (1..10).map(|i| b.alloc(i * 28, 4).unwrap()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let mut heap = SharedAlloc { next: 0, limit: 128 };
        assert!(heap.alloc(100, 1).is_ok());
        let err = heap.alloc(100, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { requested: 100, .. }));
    }

    #[test]
    fn accounting_tracks_usage() {
        let mut heap = SharedAlloc { next: 0, limit: 1000 };
        heap.alloc(100, 1).unwrap();
        let err = heap.alloc(1000, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { requested: 1000, available: 900 }));
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_alignment_panics() {
        let mut heap = SharedAlloc::new();
        let _ = heap.alloc(8, 3);
    }
}
