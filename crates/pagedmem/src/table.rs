//! Per-node page tables.
//!
//! A table is one lock level: whoever owns the `PageTable` (a node-level
//! mutex) guards every frame with it, and each slot holds its
//! [`PageFrame`] — contents, protection state, twin and dirty flag —
//! directly. A checked access is one hold of that lock: the frame's
//! `protection` decides it ([`PageTable::checked_frame`]) and the byte
//! operation runs under the same hold.
//!
//! The frame is the only record of a page's write state, and two methods
//! change it: [`write_enable`](PageTable::write_enable) (twin, if asked,
//! make writable, mark dirty) and [`write_protect`](PageTable::write_protect)
//! (take the twin and a copy, make read-only, clear dirty). A dirty frame
//! without a twin is therefore a page written under `WRITE_ALL` in the open
//! interval, by construction. Twin and copy are [`Page`] clones, which share
//! the frame's bytes until the frame is next written, so neither copies
//! anything itself.

use crate::{Addr, AddrRange, Diff, MemError, Page, PageId, Protection};

/// One mapped page on a node: its contents, protection state, optional twin
/// and dirty flag.
#[derive(Debug)]
pub struct PageFrame {
    /// Current contents of the page.
    pub page: Page,
    /// Protection / validity state.
    pub protection: Protection,
    /// Twin saved when the page became writable (absent when twinning was
    /// bypassed via `WRITE_ALL`).
    pub twin: Option<Page>,
    /// Whether the page has been write-enabled since the last flush; dirty
    /// pages are diffed at release/barrier time.
    pub dirty: bool,
}

impl PageFrame {
    fn new(protection: Protection) -> PageFrame {
        PageFrame { page: Page::zeroed(), protection, twin: None, dirty: false }
    }
}

/// The result of checking whether an access may proceed without a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The access can proceed.
    Hit,
    /// The node has never mapped the page; a whole copy must be fetched.
    Unmapped,
    /// The local copy was invalidated; missing diffs must be fetched.
    Invalid,
    /// The page is valid but write-protected and the access is a write.
    WriteProtected,
}

impl AccessOutcome {
    /// The outcome of an access against a page in state `protection`.
    fn of(protection: Protection, is_write: bool) -> AccessOutcome {
        match protection {
            Protection::Unmapped => AccessOutcome::Unmapped,
            Protection::Invalid => AccessOutcome::Invalid,
            Protection::ReadOnly if is_write => AccessOutcome::WriteProtected,
            Protection::ReadOnly | Protection::ReadWrite => AccessOutcome::Hit,
        }
    }

    /// Whether the access faults.
    pub fn is_fault(self) -> bool {
        self != AccessOutcome::Hit
    }
}

/// A fault found by one of the checked bulk accessors: the first page of the
/// range that does not allow the access, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessFault {
    /// The faulting page.
    pub page: PageId,
    /// Why the access cannot proceed.
    pub outcome: AccessOutcome,
}

/// A node's view of the shared address space.
///
/// One slot per page id, dense from page 0 (shared allocations bump from
/// address 0), up to the highest page the node has mapped; a page is mapped
/// zero-filled on first touch, mirroring anonymous virtual memory, and only
/// a mapping call grows the slots. All bookkeeping needed by the DSM
/// protocol (protection changes, twinning, diffing, the dirty list) lives
/// here; *when* those operations happen is decided by the runtime crates.
#[derive(Debug, Default)]
pub struct PageTable {
    frames: Vec<Option<PageFrame>>,
    /// How many slots hold a frame.
    mapped: usize,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Number of pages currently mapped (the "pages in use" quantity the
    /// SP/2 fault and mprotect costs depend on).
    pub fn pages_in_use(&self) -> usize {
        self.mapped
    }

    /// The frame of `page`, if it is mapped.
    fn slot(&self, page: PageId) -> Option<&PageFrame> {
        self.frames.get(page.0)?.as_ref()
    }

    /// The frame of `page`, if it is mapped, for writing.
    fn slot_mut(&mut self, page: PageId) -> Option<&mut PageFrame> {
        self.frames.get_mut(page.0)?.as_mut()
    }

    /// The protection state of `page` (`Unmapped` if the node never touched
    /// it).
    pub fn protection(&self, page: PageId) -> Protection {
        self.slot(page).map_or(Protection::Unmapped, |f| f.protection)
    }

    /// Checks whether an access may proceed without a fault.
    pub fn check_access(&self, page: PageId, is_write: bool) -> AccessOutcome {
        AccessOutcome::of(self.protection(page), is_write)
    }

    /// The frame of `page` if its protection allows the access, else why
    /// not: the one check a checked access makes, in the same hold as the
    /// byte operation that follows it.
    ///
    /// # Errors
    ///
    /// Returns the access's outcome when it faults.
    pub fn checked_frame(
        &mut self,
        page: PageId,
        is_write: bool,
    ) -> Result<&mut PageFrame, AccessOutcome> {
        let Some(frame) = self.slot_mut(page) else { return Err(AccessOutcome::Unmapped) };
        match AccessOutcome::of(frame.protection, is_write) {
            AccessOutcome::Hit => Ok(frame),
            fault => Err(fault),
        }
    }

    /// Maps `page` zero-filled with the given protection, replacing any
    /// frame it had (contents, twin and dirty flag go with it).
    pub fn map_zeroed(&mut self, page: PageId, protection: Protection) {
        let slot = page.slot_in(&mut self.frames);
        self.mapped += usize::from(slot.is_none());
        *slot = Some(PageFrame::new(protection));
    }

    /// Returns the frame for `page`, mapping it zero-filled with
    /// `protection` if the node never touched it.
    fn frame_or_map(&mut self, page: PageId, protection: Protection) -> &mut PageFrame {
        let slot = page.slot_in(&mut self.frames);
        self.mapped += usize::from(slot.is_none());
        slot.get_or_insert_with(|| PageFrame::new(protection))
    }

    /// Returns the frame for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if the page is not mapped.
    pub fn frame(&self, page: PageId) -> Result<&PageFrame, MemError> {
        self.slot(page).ok_or(MemError::Unmapped(page))
    }

    /// Whether `page` is mapped at all.
    pub fn is_mapped(&self, page: PageId) -> bool {
        self.slot(page).is_some()
    }

    /// Sets the protection of `page`, mapping it zero-filled if necessary.
    pub fn set_protection(&mut self, page: PageId, protection: Protection) {
        self.frame_or_map(page, protection).protection = protection;
    }

    /// Makes a mapped, readable `page` `Invalid` in one table probe and
    /// returns whether it was one; any other page is left alone.
    pub fn invalidate(&mut self, page: PageId) -> bool {
        let Some(frame) = self.slot_mut(page) else { return false };
        let readable = frame.protection.allows_read();
        if readable {
            frame.protection = Protection::Invalid;
        }
        readable
    }

    /// The paper's `Create_twins` and `Write_enable` on one page: makes
    /// `page` writable and dirty, mapping it zero-filled if the node never
    /// touched it. With `twin`, a clean page is twinned and a dirty one
    /// keeps what it has; without it (`WRITE_ALL`: every byte is
    /// overwritten) any twin is dropped. So a dirty frame without a twin is
    /// a `WRITE_ALL` page until [`write_protect`](Self::write_protect).
    ///
    /// The twin shares the page's bytes: the interval's first write to the
    /// frame is what copies them, and a page that is enabled but never
    /// written is never copied.
    ///
    /// Returns whether a twin was created.
    pub fn write_enable(&mut self, page: PageId, twin: bool) -> bool {
        let frame = self.frame_or_map(page, Protection::ReadWrite);
        let twinned = twin && !frame.dirty;
        if twinned {
            frame.twin = Some(frame.page.clone());
        } else if !twin {
            frame.twin = None;
        }
        frame.dirty = true;
        frame.protection = Protection::ReadWrite;
        twinned
    }

    /// The paper's `Write_protect` on one dirty page: clears the dirty flag,
    /// makes the page read-only and moves its twin out together with a copy
    /// of the page's current contents — the two pages a diff of the interval
    /// that just ended is encoded from, whenever that happens. The copy
    /// shares the frame's bytes (and is the next interval's twin's bytes
    /// too) until the frame is next written; a twin that still shares them
    /// with the copy marks an interval that never wrote the page.
    ///
    /// Returns `None` for a `WRITE_ALL` page (dirty without a twin), or if
    /// `page` is not mapped.
    pub fn write_protect(&mut self, page: PageId) -> Option<(Page, Page)> {
        let frame = self.slot_mut(page)?;
        frame.dirty = false;
        frame.protection = Protection::ReadOnly;
        let twin = frame.twin.take()?;
        Some((twin, frame.page.clone()))
    }

    /// The pages currently on the dirty list, in address order (which is
    /// slot order).
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let slots = self.frames.iter().enumerate();
        let dirty = slots.filter(|(_, f)| f.as_ref().is_some_and(|f| f.dirty));
        dirty.map(|(page, _)| PageId(page)).collect()
    }

    /// Whether `page` currently has a twin.
    pub fn has_twin(&self, page: PageId) -> bool {
        self.slot(page).is_some_and(|f| f.twin.is_some())
    }

    /// Encodes the modifications made to `page` since its twin was created:
    /// the write set of an interval still open, which only the race detector
    /// reads (a flushed interval's diff is encoded from
    /// [`write_protect`](Self::write_protect)'s pages).
    ///
    /// Returns `None` if the page has no twin (nothing was recorded). The twin
    /// is left in place.
    pub fn create_diff(&self, page: PageId) -> Option<Diff> {
        let frame = self.slot(page)?;
        let twin = frame.twin.as_ref()?;
        Some(Diff::create(twin.as_slice(), frame.page.as_slice()))
    }

    /// Applies a batch of diffs, mapping a page zero-filled if the node never
    /// touched it. This is the entry point the runtime's
    /// synchronization-point batching builds on — all diffs collected at one
    /// barrier or lock acquire are applied in a single pass. Callers are
    /// expected to pre-sort the batch (same-page records adjacent, causal
    /// order within a page); the method applies records exactly in the order
    /// given. A page's twin receives every diff too: it records the
    /// pre-*local*-modification state, so remote diffs must not be
    /// re-reported as local writes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MemError`] from a diff application; records
    /// before the failing one remain applied.
    pub fn apply_diff_batch<'a, I>(&mut self, records: I) -> Result<(), MemError>
    where
        I: IntoIterator<Item = (PageId, &'a Diff)>,
    {
        for (page, diff) in records {
            let frame = self.frame_or_map(page, Protection::ReadWrite);
            diff.apply(frame.page.as_mut_slice())?;
            if let Some(twin) = frame.twin.as_mut() {
                diff.apply(twin.as_mut_slice())?;
            }
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// The caller is responsible for having resolved faults first; unmapped
    /// pages read as zero.
    pub fn read_bytes(&self, addr: Addr, buf: &mut [u8]) {
        for (page, run, at) in AddrRange::new(addr, buf.len()).page_runs() {
            let buf = &mut buf[at..at + run.len()];
            match self.slot(page) {
                Some(frame) => buf.copy_from_slice(&frame.page.as_slice()[run]),
                None => buf.fill(0),
            }
        }
    }

    /// Installs remotely produced `data` starting at `addr`, mirroring the
    /// bytes into each page's twin (if one exists), exactly as
    /// [`apply_diff_batch`](Self::apply_diff_batch) mirrors applied diffs.
    /// An install moves data, not local modifications, so installed bytes
    /// must never show up in a later twin-vs-page diff as the receiver's
    /// own writes. A page not mapped yet is mapped zero-filled and
    /// read-only, so the next local write to it faults and twins after the
    /// install, like a write to any fetched page.
    pub fn install_bytes(&mut self, addr: Addr, data: &[u8]) {
        for (page, run, at) in AddrRange::new(addr, data.len()).page_runs() {
            let data = &data[at..at + run.len()];
            let frame = self.frame_or_map(page, Protection::ReadOnly);
            frame.page.as_mut_slice()[run.clone()].copy_from_slice(data);
            if let Some(twin) = frame.twin.as_mut() {
                twin.as_mut_slice()[run].copy_from_slice(data);
            }
        }
    }

    /// Reads `range` into `buf` with the protection check and the copy done
    /// once per page-run (the bulk entry point, instead of check + copy per
    /// element).
    ///
    /// On a fault the bytes of preceding pages have already been copied;
    /// callers resolve the fault and retry.
    ///
    /// # Errors
    ///
    /// Returns the first page that does not allow a read.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not exactly `range.len()` bytes.
    pub fn read_checked(&self, range: AddrRange, buf: &mut [u8]) -> Result<(), AccessFault> {
        assert_eq!(buf.len(), range.len(), "buffer must cover the range exactly");
        for (page, run, at) in range.page_runs() {
            let Some(frame) = self.slot(page).filter(|f| f.protection.allows_read()) else {
                return Err(AccessFault { page, outcome: self.check_access(page, false) });
            };
            buf[at..at + run.len()].copy_from_slice(&frame.page.as_slice()[run]);
        }
        Ok(())
    }

    /// Writes `data` over `range` with the protection check and the copy done
    /// once per page-run. Unlike [`install_bytes`](Self::install_bytes) this
    /// never maps pages: a page that is not mapped read-write is a fault the
    /// caller must resolve (twin + write-enable), which keeps the
    /// write-detection protocol honest.
    ///
    /// # Errors
    ///
    /// Returns the first page that does not allow a write.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `range.len()` bytes.
    pub fn write_checked(&mut self, range: AddrRange, data: &[u8]) -> Result<(), AccessFault> {
        assert_eq!(data.len(), range.len(), "data must cover the range exactly");
        for (page, run, at) in range.page_runs() {
            let frame =
                self.checked_frame(page, true).map_err(|outcome| AccessFault { page, outcome })?;
            frame.page.as_mut_slice()[run.clone()].copy_from_slice(&data[at..at + run.len()]);
        }
        Ok(())
    }

    /// Copies the bytes of `range` out of the table (unmapped bytes read as
    /// zero).
    pub fn read_range(&self, range: AddrRange) -> Vec<u8> {
        let mut buf = vec![0u8; range.len()];
        self.read_bytes(range.start(), &mut buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn installed_bytes_never_reappear_in_a_diff() {
        let mut table = PageTable::new();
        let page = PageId(2);
        table.map_zeroed(page, Protection::ReadWrite);
        table.write_enable(page, true);
        // A local write followed by an install into a disjoint region: the
        // diff must contain the write and nothing of the install.
        table.write_checked(AddrRange::new(page.base(), 4), &[5; 4]).unwrap();
        table.install_bytes(page.base().offset(64), &[9; 16]);
        let diff = table.create_diff(page).expect("twinned page diffs");
        assert_eq!(diff.modified_ranges(), vec![(0, 4)]);
        // The installed bytes are present in the page itself.
        let mut buf = [0u8; 16];
        table.read_bytes(page.base().offset(64), &mut buf);
        assert_eq!(buf, [9; 16]);
    }

    #[test]
    fn unmapped_pages_fault() {
        let table = PageTable::new();
        assert_eq!(table.check_access(PageId(0), false), AccessOutcome::Unmapped);
        assert_eq!(table.protection(PageId(0)), Protection::Unmapped);
        assert_eq!(table.pages_in_use(), 0);
    }

    #[test]
    fn protection_transitions_drive_access_outcomes() {
        let mut table = PageTable::new();
        table.map_zeroed(PageId(1), Protection::ReadOnly);
        assert_eq!(table.check_access(PageId(1), false), AccessOutcome::Hit);
        assert_eq!(table.check_access(PageId(1), true), AccessOutcome::WriteProtected);
        table.set_protection(PageId(1), Protection::ReadWrite);
        assert_eq!(table.check_access(PageId(1), true), AccessOutcome::Hit);
        table.set_protection(PageId(1), Protection::Invalid);
        assert_eq!(table.check_access(PageId(1), false), AccessOutcome::Invalid);
        assert!(table.check_access(PageId(1), false).is_fault());
    }

    #[test]
    fn invalidate_revokes_only_a_readable_mapping() {
        let mut table = PageTable::new();
        table.map_zeroed(PageId(1), Protection::ReadOnly);
        table.map_zeroed(PageId(2), Protection::ReadWrite);
        table.map_zeroed(PageId(3), Protection::Invalid);
        assert_eq!([1, 2, 3, 4].map(|p| table.invalidate(PageId(p))), [true, true, false, false]);
        for page in 1..=3 {
            assert_eq!(table.protection(PageId(page)), Protection::Invalid);
        }
        assert!(!table.is_mapped(PageId(4)), "an unmapped page stays unmapped");
    }

    #[test]
    fn twin_and_diff_capture_local_writes() {
        let mut table = PageTable::new();
        let page = PageId(3);
        table.map_zeroed(page, Protection::ReadWrite);
        assert!(table.write_enable(page, true));
        assert!(!table.write_enable(page, true), "a dirty page keeps the twin it has");
        table.write_checked(AddrRange::new(page.base().offset(8), 4), &[7; 4]).unwrap();
        let diff = table.create_diff(page).expect("twin exists");
        assert_eq!(diff.modified_bytes(), 4);

        // Applying the diff on another node reproduces the write.
        let mut other = PageTable::new();
        other.apply_diff_batch([(page, &diff)]).unwrap();
        let mut buf = [0u8; 4];
        other.read_bytes(page.base().offset(8), &mut buf);
        assert_eq!(buf, [7, 7, 7, 7]);
    }

    #[test]
    fn taking_the_twin_leaves_the_frame_without_one() {
        let mut table = PageTable::new();
        let page = PageId(4);
        assert!(table.write_protect(page).is_none(), "unmapped, nothing to take");
        table.map_zeroed(page, Protection::ReadWrite);
        assert!(table.write_protect(page).is_none(), "no twin, nothing to take");
        table.write_enable(page, true);
        table.write_checked(AddrRange::new(page.base(), 4), &[3; 4]).unwrap();
        let (twin, copy) = table.write_protect(page).expect("twinned");
        assert!(!table.has_twin(page));
        assert!(table.dirty_pages().is_empty());
        assert_eq!(table.check_access(page, true), AccessOutcome::WriteProtected);
        assert_eq!(Diff::create(twin.as_slice(), copy.as_slice()).modified_ranges(), [(0, 4)]);
        // The copy is the page as it was taken: later writes do not reach it.
        table.install_bytes(page.base().offset(64), &[5; 4]);
        assert_eq!(copy.as_slice()[64..68], [0; 4]);
    }

    #[test]
    fn remote_diffs_do_not_reappear_as_local_modifications() {
        let mut table = PageTable::new();
        let page = PageId(0);
        table.map_zeroed(page, Protection::ReadWrite);
        table.write_enable(page, true);
        // A remote diff arrives for a word this node did not write.
        let mut remote_page = vec![0u8; PAGE_SIZE];
        remote_page[100..104].copy_from_slice(&[5, 5, 5, 5]);
        let remote = Diff::create(&vec![0u8; PAGE_SIZE], &remote_page);
        table.apply_diff_batch([(page, &remote)]).unwrap();
        // The local diff must be empty: this node made no writes of its own.
        let local = table.create_diff(page).unwrap();
        assert!(local.modified_ranges().is_empty(), "remote modifications must not be re-diffed");
    }

    #[test]
    fn dirty_list_tracks_write_enabled_pages() {
        let mut table = PageTable::new();
        assert!(table.write_enable(PageId(2), true), "enabling maps and twins the page");
        assert!(!table.write_enable(PageId(2), true));
        table.write_enable(PageId(5), false);
        assert_eq!(table.dirty_pages(), vec![PageId(2), PageId(5)]);
        assert_eq!(table.check_access(PageId(5), true), AccessOutcome::Hit);
        table.write_protect(PageId(2));
        assert_eq!(table.dirty_pages(), vec![PageId(5)]);
    }

    #[test]
    fn a_write_all_enable_drops_the_twin_and_a_twinned_one_never_adds_it_back() {
        let mut table = PageTable::new();
        let page = PageId(3);
        table.write_enable(page, true);
        assert!(!table.write_enable(page, false), "WRITE_ALL never twins");
        assert!(!table.has_twin(page), "WRITE_ALL drops the twin the interval had");
        assert!(!table.write_enable(page, true), "a dirty page keeps what it has: no twin");
        assert!(!table.has_twin(page));
        assert!(table.write_protect(page).is_none(), "a dirty page without a twin is WRITE_ALL");
        assert!(table.write_enable(page, true), "the next interval twins the clean page");
    }

    #[test]
    fn apply_diff_batch_matches_per_record_application() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut a = twin.clone();
        a[0..8].fill(1);
        let mut b = twin.clone();
        b[0..8].fill(2);
        let mut c = twin.clone();
        c[64..72].fill(9);
        let da = Diff::create(&twin, &a);
        let db = Diff::create(&twin, &b);
        let dc = Diff::create(&twin, &c);

        // Batch order is preserved: the later record of a same-page run wins
        // on overlapping words, and a second page in the batch is applied
        // through its own frame.
        let mut table = PageTable::new();
        table.apply_diff_batch(vec![(PageId(3), &da), (PageId(3), &db), (PageId(7), &dc)]).unwrap();
        let mut buf = [0u8; 8];
        table.read_bytes(PageId(3).base(), &mut buf);
        assert_eq!(buf, [2; 8], "the causally later record must win");
        table.read_bytes(PageId(7).base().offset(64), &mut buf);
        assert_eq!(buf, [9; 8]);

        // Twins stay coherent exactly like the per-record path.
        let mut other = PageTable::new();
        other.map_zeroed(PageId(3), Protection::ReadWrite);
        other.write_enable(PageId(3), true);
        other.apply_diff_batch(vec![(PageId(3), &da)]).unwrap();
        assert!(other.create_diff(PageId(3)).unwrap().modified_ranges().is_empty());
    }

    #[test]
    fn byte_io_spans_page_boundaries() {
        let mut table = PageTable::new();
        let addr = Addr::new(PAGE_SIZE - 2);
        table.install_bytes(addr, &[1, 2, 3, 4]);
        let mut buf = [0u8; 4];
        table.read_bytes(addr, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
        assert_eq!(table.pages_in_use(), 2);
        let mapped = [PageId(0), PageId(1)].map(|page| table.protection(page));
        assert_eq!(mapped, [Protection::ReadOnly; 2], "a later write faults and twins");
    }

    #[test]
    fn unmapped_reads_are_zero() {
        let table = PageTable::new();
        let bytes = table.read_range(AddrRange::new(Addr::new(100), 16));
        assert_eq!(bytes, vec![0u8; 16]);
    }

    #[test]
    fn frame_lookup_errors_on_unmapped() {
        let table = PageTable::new();
        assert!(matches!(table.frame(PageId(9)), Err(MemError::Unmapped(PageId(9)))));
    }

    /// The slot holds the frame itself: what an apply and a protection
    /// change did is what the next lookup reads, and a remap replaces the
    /// frame with a zeroed one.
    #[test]
    fn a_frame_reads_what_was_applied_and_a_remap_zeroes_it() {
        let mut table = PageTable::new();
        let page = PageId(2);
        table.map_zeroed(page, Protection::ReadWrite);
        let mut incoming = vec![0u8; PAGE_SIZE];
        incoming[7] = 9;
        let diff = Diff::create(&vec![0u8; PAGE_SIZE], &incoming);
        table.apply_diff_batch([(page, &diff)]).unwrap();
        table.set_protection(page, Protection::ReadOnly);
        let frame = table.frame(page).unwrap();
        assert_eq!(frame.protection, Protection::ReadOnly);
        assert_eq!(frame.page.as_slice()[7], 9);
        assert_eq!(table.checked_frame(page, false).unwrap().page.as_slice()[7], 9);
        assert_eq!(table.checked_frame(page, true).unwrap_err(), AccessOutcome::WriteProtected);
        table.write_enable(page, true);
        table.map_zeroed(page, Protection::Invalid);
        let frame = table.frame(page).unwrap();
        assert_eq!((frame.protection, frame.page.as_slice()[7]), (Protection::Invalid, 0));
        assert!(!frame.dirty && frame.twin.is_none(), "a remap drops twin and dirty flag");
        assert_eq!(table.checked_frame(page, false).unwrap_err(), AccessOutcome::Invalid);
        assert_eq!(table.pages_in_use(), 1, "a remap maps no second frame");
    }

    #[test]
    fn read_checked_copies_or_faults_per_page_run() {
        let mut table = PageTable::new();
        let range = AddrRange::new(Addr::new(PAGE_SIZE - 4), 8);
        let mut buf = [0u8; 8];
        // Both pages unmapped: fault on the first.
        let fault = table.read_checked(range, &mut buf).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(0), outcome: AccessOutcome::Unmapped });
        table.map_zeroed(PageId(0), Protection::ReadOnly);
        table.map_zeroed(PageId(1), Protection::Invalid);
        let fault = table.read_checked(range, &mut buf).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(1), outcome: AccessOutcome::Invalid });
        table.set_protection(PageId(1), Protection::ReadOnly);
        table.install_bytes(Addr::new(PAGE_SIZE - 4), &[1, 2, 3, 4, 5, 6, 7, 8]);
        table.read_checked(range, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    /// A write and a read across a page boundary, raw and checked, cut at
    /// the same place: a fault on the second page comes after the first
    /// page's bytes were copied, as `read_checked` documents.
    #[test]
    fn raw_and_checked_byte_io_cut_a_range_at_the_same_boundary() {
        let mut table = PageTable::new();
        let range = AddrRange::new(Addr::new(2 * PAGE_SIZE - 3), 6);
        table.install_bytes(range.start(), &[1, 2, 3, 4, 5, 6]);
        let mut buf = [0u8; 6];
        table.read_checked(range, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
        table.set_protection(PageId(1), Protection::ReadWrite);
        let fault = table.write_checked(range, &[7; 6]).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(2), outcome: AccessOutcome::WriteProtected });
        table.read_bytes(range.start(), &mut buf);
        assert_eq!(buf, [7, 7, 7, 4, 5, 6], "the first page's bytes are written");
        table.set_protection(PageId(2), Protection::Invalid);
        let mut buf = [0u8; 6];
        let fault = table.read_checked(range, &mut buf).unwrap_err();
        assert_eq!(fault, AccessFault { page: PageId(2), outcome: AccessOutcome::Invalid });
        assert_eq!(buf, [7, 7, 7, 0, 0, 0], "the first page's bytes are copied");
        table.set_protection(PageId(2), Protection::ReadWrite);
        table.write_checked(range, &[8, 9, 10, 11, 12, 13]).unwrap();
        table.read_bytes(range.start(), &mut buf);
        assert_eq!(buf, [8, 9, 10, 11, 12, 13]);
    }

    /// Pages mapped out of order and sparsely: a remap counts its frame
    /// once, the dirty list is in address order, and every read of an
    /// unmapped page, inside the slots or past their end, answers unmapped
    /// and grows nothing.
    #[test]
    fn a_sparse_table_reads_past_its_end_as_unmapped_and_grows_only_to_map() {
        let mut table = PageTable::new();
        for page in [9, 0, 700] {
            table.write_enable(PageId(page), true);
        }
        table.map_zeroed(PageId(9), Protection::ReadOnly);
        assert_eq!(table.pages_in_use(), 3, "a remap maps no second frame");
        assert_eq!(table.dirty_pages(), [PageId(0), PageId(700)]);
        let slots = table.frames.len();
        for page in [5, 701, 5000].map(PageId) {
            assert_eq!(table.protection(page), Protection::Unmapped);
            assert!(!table.is_mapped(page));
            assert!(matches!(table.frame(page), Err(MemError::Unmapped(p)) if p == page));
            assert!(!table.invalidate(page));
            assert!(table.write_protect(page).is_none());
            assert!(!table.has_twin(page));
            assert!(table.create_diff(page).is_none());
            let mut buf = [1u8; 8];
            table.read_bytes(page.base(), &mut buf);
            assert_eq!(buf, [0; 8]);
            let fault = table.read_checked(AddrRange::new(page.base(), 8), &mut buf);
            assert_eq!(fault, Err(AccessFault { page, outcome: AccessOutcome::Unmapped }));
            let fault = table.write_checked(AddrRange::new(page.base(), 8), &buf);
            assert_eq!(fault, Err(AccessFault { page, outcome: AccessOutcome::Unmapped }));
        }
        assert_eq!(table.frames.len(), slots, "no read grew the slots");
        assert_eq!(table.pages_in_use(), 3);
    }

    #[test]
    fn write_checked_requires_read_write_and_never_maps() {
        let mut table = PageTable::new();
        let range = AddrRange::new(Addr::new(16), 4);
        let fault = table.write_checked(range, &[9; 4]).unwrap_err();
        assert_eq!(fault.outcome, AccessOutcome::Unmapped);
        assert_eq!(table.pages_in_use(), 0, "a faulting write must not map the page");
        table.map_zeroed(PageId(0), Protection::ReadOnly);
        let fault = table.write_checked(range, &[9; 4]).unwrap_err();
        assert_eq!(fault.outcome, AccessOutcome::WriteProtected);
        table.set_protection(PageId(0), Protection::ReadWrite);
        table.write_checked(range, &[9; 4]).unwrap();
        assert_eq!(table.read_range(range), vec![9; 4]);
    }
}
