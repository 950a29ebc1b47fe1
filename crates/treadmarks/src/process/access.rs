//! The checked access path: the software-TLB fast path, the faulting slow
//! path behind it, and first-touch caching of mappings. There is one path —
//! a [`SharedArray`]'s elements never straddle a page (see
//! [`SharedArray::new`]), so every access is a `page_op` on exactly one frame.

use pagedmem::{AccessOutcome, AddrRange, PageFrame, PageId, PageTable};

use super::sync::PrepTally;
use super::Process;
use crate::sharedarray::{Shareable, SharedArray};
use crate::tlb::Unleased;

/// Caches the mappings of the warm list's mapped pages, skipping those
/// already cached, under a table lock the caller holds for another reason.
/// Whether a page is valid is not looked at (no frame is locked): an access
/// through the entry reads the frame's own protection and faults as it must.
pub(super) fn warm_ranges_locked(node: &mut Unleased<'_>, table: &PageTable, warm: &[AddrRange]) {
    for page in warm.iter().flat_map(AddrRange::pages) {
        node.cache(page, table);
    }
}

impl Process {
    /// Runs `f` on the frame of `page` with the access's legality
    /// established. The warm path finds the page's entry and reads the
    /// protection of the frame it holds on lease — no lock of any kind and
    /// no atomic operation. The cold path runs the fault handler.
    #[inline]
    fn page_op<R>(
        &mut self,
        page: PageId,
        is_write: bool,
        f: impl FnOnce(&mut PageFrame) -> R,
    ) -> R {
        loop {
            if let Some(frame) = self.node.access(page, is_write) {
                return f(frame);
            }
            self.stats.tlb_misses(1);
            self.slow_fill(page, is_write);
        }
    }

    /// The cold path of an access: one look at the table says whether the
    /// access faults and caches the page's mapping if it had none; then the
    /// fault, if any, is resolved.
    #[cold]
    fn slow_fill(&mut self, page: PageId, is_write: bool) {
        let (outcome, pages_in_use) = {
            let mut node = self.node.unleased();
            let table = node.table();
            node.cache(page, &table);
            (table.check_access(page, is_write), table.pages_in_use())
        };
        if outcome.is_fault() {
            self.resolve_fault(page, is_write, outcome, pages_in_use);
        }
        if outcome == AccessOutcome::Unmapped {
            // The fault mapped the page; only now is there a frame to cache.
            let mut node = self.node.unleased();
            let table = node.table();
            node.cache(page, &table);
        }
    }

    /// Reads element `index` of `array` through the DSM consistency
    /// protocol, faulting and fetching diffs if the page is not valid.
    #[inline]
    pub fn get<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize) -> T {
        let addr = array.addr_of(index);
        let bytes = addr.page_offset()..addr.page_offset() + T::BYTES;
        self.page_op(addr.page(), false, |frame| T::load(&frame.page.as_slice()[bytes]))
    }

    /// Writes element `index` of `array`, faulting (twin creation, write
    /// enable) if the page is not writable.
    #[inline]
    pub fn set<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize, value: T) {
        let addr = array.addr_of(index);
        let bytes = addr.page_offset()..addr.page_offset() + T::BYTES;
        self.page_op(addr.page(), true, |frame| value.store(&mut frame.page.as_mut_slice()[bytes]));
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
        assert!(elems.end <= array.len(), "elements {elems:?} out of bounds for {}", array.len());
        for (page, run, at) in array.range_of(elems.start, elems.end).page_runs() {
            let out = &mut out[at / T::BYTES..][..run.len() / T::BYTES];
            self.page_op(page, false, |frame| {
                let bytes = frame.page.as_slice()[run].chunks_exact(T::BYTES);
                for (slot, bytes) in out.iter_mut().zip(bytes) {
                    *slot = T::load(bytes);
                }
            });
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
        assert!(elems.end <= array.len(), "elements {elems:?} out of bounds for {}", array.len());
        for (page, run, at) in array.range_of(elems.start, elems.end).page_runs() {
            let values = &values[at / T::BYTES..][..run.len() / T::BYTES];
            self.page_op(page, true, |frame| {
                let bytes = frame.page.as_mut_slice()[run].chunks_exact_mut(T::BYTES);
                for (value, bytes) in values.iter().zip(bytes) {
                    value.store(bytes);
                }
            });
        }
    }

    /// The fault handler: runs when a checked access finds the page in a
    /// state that does not allow it. One application access takes at most
    /// one fault (the handler performs fetch, twin and enable together,
    /// like the SIGSEGV handler of the original system).
    ///
    /// A page the in-flight synchronization's merged fetch covers is not
    /// fetched a second time: its data is already on the wire, so the first
    /// touch runs that synchronization's completion — wait, install,
    /// deferred write preparation — and an ordinary fetch follows only for
    /// what the page still misses afterwards.
    fn resolve_fault(
        &mut self,
        page: PageId,
        is_write: bool,
        mut outcome: AccessOutcome,
        pages_in_use: usize,
    ) {
        self.stats.page_faults(1);
        self.clock.advance(self.cost.page_fault_cost(pages_in_use));
        if outcome != AccessOutcome::WriteProtected && self.in_flight_covers(page) {
            self.complete_in_flight(true);
            outcome = self.node.unleased().table().check_access(page, is_write);
            if !outcome.is_fault() {
                return;
            }
        }
        if outcome != AccessOutcome::WriteProtected {
            // Unmapped or invalidated: bring the copy up to date first.
            self.fetch_diffs(&[page]);
        }
        if is_write {
            // Make the now valid page writable: twin (unless the page is
            // under `WRITE_ALL`), enable, and put it on the dirty list.
            let (prep, pages_in_use) = {
                let mut table = self.node.unleased().table();
                let twinned = table.write_enable(page, true);
                (PrepTally { twinned: u64::from(twinned), protect_ranges: 1 }, table.pages_in_use())
            };
            self.charge_prep(&prep, pages_in_use);
        }
    }
}
