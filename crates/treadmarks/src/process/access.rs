//! The checked access path: the software-TLB fast path, the faulting slow
//! path behind it, and TLB warming. There is one path — a [`SharedArray`]'s
//! elements never straddle a page (see [`SharedArray::new`]), so every
//! access is a `page_op` on exactly one frame.

use pagedmem::{AddrRange, PageFrame, PageId, PageTable, Protection, PAGE_SIZE};

use super::Process;
use crate::sharedarray::{Shareable, SharedArray};
use crate::tlb::Unleased;

/// Pre-loads the software TLB for every already-consistent page of the warm
/// list, under an already-held table lock. Invalid pages are skipped (they
/// fault — and refill — lazily). Only the mappings are cached; each takes
/// its lease at its first access.
pub(super) fn warm_ranges_locked(
    node: &mut Unleased<'_>,
    table: &PageTable,
    warm: &[(AddrRange, bool)],
) -> usize {
    let epoch = table.epoch();
    let mut warmed = 0;
    for &(range, is_write) in warm {
        for page in range.pages() {
            let Ok(frame) = table.frame(page) else { continue };
            let protection = frame.lock().protection;
            let allowed =
                if is_write { protection.allows_write() } else { protection.allows_read() };
            if !allowed {
                continue;
            }
            node.cache(page, frame, epoch, protection.allows_write());
            warmed += 1;
        }
    }
    warmed
}

impl Process {
    /// The node's current protection epoch. The epoch advances on every
    /// protection or validity change; software-TLB entries are valid only at
    /// the epoch they were filled at.
    pub fn protection_epoch(&self) -> u64 {
        self.epoch.current()
    }

    /// Runs `f` on the frame of `page` with the access's legality
    /// established. The warm path revalidates a cached mapping against the
    /// protection epoch and reads the protection of the frame the TLB
    /// holds on lease — no lock of any kind and no atomic
    /// read-modify-write. The cold path runs the fault handler and refills
    /// the TLB.
    #[inline]
    fn page_op<R>(
        &mut self,
        page: PageId,
        is_write: bool,
        f: impl FnOnce(&mut PageFrame) -> R,
    ) -> R {
        loop {
            let now = self.epoch.current();
            if let Some(frame) = self.node.access(page, is_write, now) {
                return f(frame);
            }
            self.stats.tlb_misses(1);
            self.slow_fill(page, is_write);
        }
    }

    /// The cold path of an access: resolve any fault on `page`, then cache
    /// the mapping (frame handle, epoch, writability) in the software TLB.
    #[cold]
    fn slow_fill(&mut self, page: PageId, is_write: bool) {
        self.resolve_fault(page, is_write);
        let mut node = self.node.unleased();
        let (frame, epoch, writable) = {
            let table = node.table();
            (table.frame(page).ok(), table.epoch(), table.protection(page).allows_write())
        };
        if let Some(frame) = frame {
            node.cache(page, frame, epoch, writable);
        }
    }

    /// Reads element `index` of `array` through the DSM consistency
    /// protocol, faulting and fetching diffs if the page is not valid.
    pub fn get<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize) -> T {
        let addr = array.addr_of(index);
        let offset = addr.page_offset();
        self.page_op(addr.page(), false, |frame| T::load(&frame.page.as_slice()[offset..]))
    }

    /// Writes element `index` of `array`, faulting (twin creation, write
    /// enable) if the page is not writable.
    pub fn set<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize, value: T) {
        let addr = array.addr_of(index);
        let offset = addr.page_offset();
        self.page_op(addr.page(), true, |frame| {
            value.store(&mut frame.page.as_mut_slice()[offset..]);
        });
    }

    /// Reads elements `elems` of `array` into `out`, checking protection
    /// **once per page** instead of once per element.
    ///
    /// # Panics
    ///
    /// Panics if the element range is out of bounds or `out` does not have
    /// exactly `elems.len()` elements.
    pub fn get_slice<T: Shareable>(
        &mut self,
        array: &SharedArray<T>,
        elems: std::ops::Range<usize>,
        out: &mut [T],
    ) {
        assert_eq!(out.len(), elems.len(), "output must hold the requested elements exactly");
        let mut idx = elems.start;
        let mut filled = 0;
        while idx < elems.end {
            let addr = array.addr_of(idx);
            let offset = addr.page_offset();
            // At least one: the element at `offset` lies inside the page.
            let fit = ((PAGE_SIZE - offset) / T::BYTES).min(elems.end - idx);
            self.page_op(addr.page(), false, |frame| {
                let bytes = frame.page.as_slice();
                for (k, slot) in out[filled..filled + fit].iter_mut().enumerate() {
                    *slot = T::load(&bytes[offset + k * T::BYTES..]);
                }
            });
            idx += fit;
            filled += fit;
        }
    }

    /// Writes `values` over elements `elems` of `array`, checking protection
    /// once per page instead of once per element.
    ///
    /// # Panics
    ///
    /// Panics if the element range is out of bounds or `values` does not
    /// have exactly `elems.len()` elements.
    pub fn set_slice<T: Shareable>(
        &mut self,
        array: &SharedArray<T>,
        elems: std::ops::Range<usize>,
        values: &[T],
    ) {
        assert_eq!(values.len(), elems.len(), "values must cover the element range exactly");
        let mut idx = elems.start;
        let mut consumed = 0;
        while idx < elems.end {
            let addr = array.addr_of(idx);
            let offset = addr.page_offset();
            let fit = ((PAGE_SIZE - offset) / T::BYTES).min(elems.end - idx);
            self.page_op(addr.page(), true, |frame| {
                let bytes = frame.page.as_mut_slice();
                for (k, value) in values[consumed..consumed + fit].iter().enumerate() {
                    value.store(&mut bytes[offset + k * T::BYTES..]);
                }
            });
            idx += fit;
            consumed += fit;
        }
    }

    /// Pre-loads the software TLB for a whole warm list — `(range,
    /// writable)` pairs from any number of sections — under a **single**
    /// table lock. Pages not yet valid for the access are skipped and
    /// fault normally. Returns the number of pages warmed.
    ///
    /// This is the run-time half of the compiler interface's section
    /// grants: a `Validate`/`Push` aggregate call warms the phase's
    /// sections so the phase body takes zero checks.
    pub fn warm_mappings(&mut self, warm: &[(AddrRange, bool)]) -> usize {
        let mut node = self.node.unleased();
        let table = node.table();
        warm_ranges_locked(&mut node, &table, warm)
    }

    /// The fault handler: runs when a checked access finds the page in a
    /// state that does not allow it. One application access takes at most
    /// one fault (the handler performs fetch, twin and enable together,
    /// like the SIGSEGV handler of the original system).
    fn resolve_fault(&mut self, page: PageId, is_write: bool) {
        let outcome = self.node.unleased().table().check_access(page, is_write);
        if !outcome.is_fault() {
            return;
        }
        self.stats.page_faults(1);
        let pages_in_use = self.node.unleased().table().pages_in_use();
        self.clock.advance(self.cost.page_fault_cost(pages_in_use));
        match outcome {
            pagedmem::AccessOutcome::Unmapped | pagedmem::AccessOutcome::Invalid => {
                let handle = self.fetch_diffs(&[AddrRange::page(page)]);
                self.apply_fetch(handle);
                if is_write {
                    self.enable_write_after_fault(page);
                }
            }
            pagedmem::AccessOutcome::WriteProtected => self.enable_write_after_fault(page),
            pagedmem::AccessOutcome::Hit => unreachable!("hit is not a fault"),
        }
    }

    /// Makes a valid page writable: twin (unless the page is under
    /// `WRITE_ALL`), enable, and put it on the dirty list.
    fn enable_write_after_fault(&mut self, page: PageId) {
        let node = self.node.unleased();
        let proto = node.proto();
        let mut table = node.table();
        if !proto.write_all_pages.contains(&page) && !table.has_twin(page) {
            table.make_twin(page);
            self.stats.twins_created(1);
            self.clock.advance(self.cost.twin_cost(1));
        }
        let pages_in_use = table.pages_in_use();
        table.set_protection(page, Protection::ReadWrite);
        table.mark_dirty(page);
        drop(table);
        drop(proto);
        self.stats.protection_ops(1);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use));
    }
}
