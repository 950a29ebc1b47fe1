//! Per-node page tables.
//!
//! The table has two levels of locking, mirroring the structure of a real
//! fine-granularity DSM fast path:
//!
//! * the **table lock** (taken by whoever owns the `PageTable`, typically a
//!   node-level mutex) protects the page-id → frame mapping, and
//! * a per-page [`Frame`] protects each frame's contents, protection state,
//!   twin and dirty flag.
//!
//! The frame is the only record of a page's write state, and two methods
//! change it, each under one frame lock: [`write_enable`](PageTable::write_enable)
//! (twin, if asked, make writable, mark dirty) and
//! [`write_protect`](PageTable::write_protect) (take the twin and a copy,
//! make read-only, clear dirty). A dirty frame without a twin is therefore a
//! page written under `WRITE_ALL` in the open interval, by construction.
//! Twin and copy are [`Page`] clones, which share the frame's bytes until
//! the frame is next written, so neither copies anything itself.
//!
//! A [`FrameRef`] is a shared handle onto one frame. Frame handles are
//! stable: once a page is mapped, its `Arc` identity never changes
//! ([`map_zeroed`](PageTable::map_zeroed) resets the existing frame in
//! place), so a cached handle always reaches the frame's *current* state.
//!
//! A frame's state can be used in two ways. [`Frame::lock`] is the ordinary
//! short critical section every method of this table uses.
//! [`Frame::checkout`] instead *moves the state out* to the caller — a
//! **lease**: until the matching [`Frame::checkin`] the holder owns the
//! contents outright and touches them with no lock at all, and every
//! `lock()` or `checkout()` by anyone else waits. That is what lets a
//! software TLB above this table serve a warm access from the frame it
//! holds, and it puts one obligation on the lessee: return every lease
//! before calling into the table (which locks frames) or blocking on a
//! thread that might. A cached handle never goes stale, so the frame's own
//! `protection`, read through the lease, is all a warm access checks.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::{Arc, Condvar, MutexGuard, PoisonError};

use dsm_core::sync::Mutex;

use crate::{Addr, AddrRange, Diff, MemError, Page, PageId, Protection, PAGE_SIZE};

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
    fn new(page: Page, protection: Protection) -> PageFrame {
        PageFrame { page, protection, twin: None, dirty: false }
    }
}

/// One page's frame behind its own lock, leasable: the state is either
/// present (reachable through [`lock`](Frame::lock)) or checked out to a
/// single lessee.
#[derive(Debug)]
pub struct Frame {
    slot: Mutex<Slot>,
    returned: Condvar,
}

#[derive(Debug)]
struct Slot {
    /// `None` while the state is checked out.
    state: Option<PageFrame>,
    /// Threads blocked until the state comes back; a check-in with nobody
    /// waiting skips the condition variable's wake-up call.
    waiting: usize,
}

impl Frame {
    /// A frame holding `state`.
    fn new(state: PageFrame) -> Frame {
        Frame {
            slot: Mutex::new(Slot { state: Some(state), waiting: 0 }),
            returned: Condvar::new(),
        }
    }

    /// The slot with the state present, waiting for the lessee if it is out.
    fn present(&self) -> MutexGuard<'_, Slot> {
        let mut slot = self.slot.lock();
        while slot.state.is_none() {
            slot.waiting += 1;
            slot = self.returned.wait(slot).unwrap_or_else(PoisonError::into_inner);
            slot.waiting -= 1;
        }
        slot
    }

    /// Locks the frame for a short critical section, waiting first if the
    /// state is checked out.
    pub fn lock(&self) -> FrameGuard<'_> {
        FrameGuard(self.present())
    }

    /// Takes a lease: moves the state out to the caller, waiting first if
    /// another lessee has it. Until [`checkin`](Self::checkin) every
    /// `lock()` and `checkout()` on this frame blocks, so the lessee must
    /// not do either itself.
    pub fn checkout(&self) -> PageFrame {
        self.present().state.take().expect("present() returns with the state in place")
    }

    /// Returns a lease taken with [`checkout`](Self::checkout).
    ///
    /// # Panics
    ///
    /// Panics if the frame's state is not checked out.
    pub fn checkin(&self, state: PageFrame) {
        let mut slot = self.slot.lock();
        assert!(slot.state.is_none(), "checkin without a matching checkout");
        slot.state = Some(state);
        if slot.waiting > 0 {
            self.returned.notify_all();
        }
    }
}

/// Exclusive access to a present frame's state; see [`Frame::lock`].
#[derive(Debug)]
pub struct FrameGuard<'a>(MutexGuard<'a, Slot>);

impl Deref for FrameGuard<'_> {
    type Target = PageFrame;

    fn deref(&self) -> &PageFrame {
        self.0.state.as_ref().expect("a guard exists only while the state is present")
    }
}

impl DerefMut for FrameGuard<'_> {
    fn deref_mut(&mut self) -> &mut PageFrame {
        self.0.state.as_mut().expect("a guard exists only while the state is present")
    }
}

/// A shared handle onto one page frame.
///
/// Obtained from [`PageTable::frame`] / [`PageTable::map_zeroed`]; the
/// handle stays valid (and reaches the frame's current state) for the
/// lifetime of the table.
pub type FrameRef = Arc<Frame>;

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
/// The page table stores only pages the node has touched; pages materialise
/// lazily, zero-filled, mirroring anonymous virtual memory. All bookkeeping
/// needed by the DSM protocol (protection changes, twinning, diffing, the
/// dirty list) lives here; *when* those operations happen is decided by the
/// runtime crates.
#[derive(Debug, Default)]
pub struct PageTable {
    frames: BTreeMap<PageId, FrameRef>,
}

impl PageTable {
    /// Creates an empty page table.
    pub fn new() -> PageTable {
        PageTable::default()
    }

    /// Number of pages currently mapped (the "pages in use" quantity the
    /// SP/2 fault and mprotect costs depend on).
    pub fn pages_in_use(&self) -> usize {
        self.frames.len()
    }

    /// The protection state of `page` (`Unmapped` if the node never touched
    /// it).
    pub fn protection(&self, page: PageId) -> Protection {
        self.frames.get(&page).map_or(Protection::Unmapped, |f| f.lock().protection)
    }

    /// Checks whether an access may proceed without a fault.
    pub fn check_access(&self, page: PageId, is_write: bool) -> AccessOutcome {
        AccessOutcome::of(self.protection(page), is_write)
    }

    /// Maps `page` zero-filled with the given protection. An existing frame
    /// is reset in place (contents zeroed, twin dropped, dirty cleared) so
    /// that outstanding [`FrameRef`]s keep observing the live frame.
    pub fn map_zeroed(&mut self, page: PageId, protection: Protection) -> FrameRef {
        match self.frames.get(&page) {
            Some(frame) => {
                let mut guard = frame.lock();
                guard.page = Page::zeroed();
                guard.protection = protection;
                guard.twin = None;
                guard.dirty = false;
                Arc::clone(frame)
            }
            None => {
                let frame = Arc::new(Frame::new(PageFrame::new(Page::zeroed(), protection)));
                self.frames.insert(page, Arc::clone(&frame));
                frame
            }
        }
    }

    /// Returns the frame for `page`, mapping it zero-filled with
    /// `protection` if the node never touched it.
    fn frame_or_map(&mut self, page: PageId, protection: Protection) -> FrameRef {
        if let Some(frame) = self.frames.get(&page) {
            return Arc::clone(frame);
        }
        let frame = Arc::new(Frame::new(PageFrame::new(Page::zeroed(), protection)));
        self.frames.insert(page, Arc::clone(&frame));
        frame
    }

    /// Returns the frame for `page`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Unmapped`] if the page is not mapped.
    pub fn frame(&self, page: PageId) -> Result<FrameRef, MemError> {
        self.frames.get(&page).map(Arc::clone).ok_or(MemError::Unmapped(page))
    }

    /// Whether `page` is mapped at all.
    pub fn is_mapped(&self, page: PageId) -> bool {
        self.frames.contains_key(&page)
    }

    /// Sets the protection of `page`, mapping it zero-filled if necessary.
    pub fn set_protection(&mut self, page: PageId, protection: Protection) {
        self.frame_or_map(page, protection).lock().protection = protection;
    }

    /// Makes a mapped, readable `page` `Invalid` in one table probe and
    /// returns whether it was one; any other page is left alone.
    pub fn invalidate(&mut self, page: PageId) -> bool {
        let Some(frame) = self.frames.get(&page) else { return false };
        let mut guard = frame.lock();
        let readable = guard.protection.allows_read();
        if readable {
            guard.protection = Protection::Invalid;
        }
        readable
    }

    /// The paper's `Create_twins` and `Write_enable` on one page, under one
    /// frame lock: makes `page` writable and dirty, mapping it zero-filled
    /// if the node never touched it. With `twin`, a clean page is twinned
    /// and a dirty one keeps what it has; without it (`WRITE_ALL`: every
    /// byte is overwritten) any twin is dropped. So a dirty frame without a
    /// twin is a `WRITE_ALL` page until [`write_protect`](Self::write_protect).
    ///
    /// The twin shares the page's bytes: the interval's first write to the
    /// frame is what copies them, and a page that is enabled but never
    /// written is never copied.
    ///
    /// Returns whether a twin was created.
    pub fn write_enable(&mut self, page: PageId, twin: bool) -> bool {
        let frame = self.frame_or_map(page, Protection::ReadWrite);
        let mut guard = frame.lock();
        let twinned = twin && !guard.dirty;
        if twinned {
            guard.twin = Some(guard.page.clone());
        } else if !twin {
            guard.twin = None;
        }
        guard.dirty = true;
        guard.protection = Protection::ReadWrite;
        twinned
    }

    /// The paper's `Write_protect` on one dirty page, under one frame lock:
    /// clears the dirty flag, makes the page read-only and moves its twin
    /// out together with a copy of the page's current contents — the two
    /// pages a diff of the interval that just ended is encoded from,
    /// whenever that happens. The copy shares the frame's bytes (and is the
    /// next interval's twin's bytes too) until the frame is next written; a
    /// twin that still shares them with the copy marks an interval that
    /// never wrote the page.
    ///
    /// Returns `None` for a `WRITE_ALL` page (dirty without a twin), or if
    /// `page` is not mapped.
    pub fn write_protect(&mut self, page: PageId) -> Option<(Page, Page)> {
        let frame = self.frames.get(&page)?;
        let mut guard = frame.lock();
        guard.dirty = false;
        guard.protection = Protection::ReadOnly;
        let twin = guard.twin.take()?;
        Some((twin, guard.page.clone()))
    }

    /// The pages currently on the dirty list, in address order.
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.frames.iter().filter(|(_, f)| f.lock().dirty).map(|(&id, _)| id).collect()
    }

    /// Whether `page` currently has a twin.
    pub fn has_twin(&self, page: PageId) -> bool {
        self.frames.get(&page).is_some_and(|f| f.lock().twin.is_some())
    }

    /// Encodes the modifications made to `page` since its twin was created:
    /// the write set of an interval still open, which only the race detector
    /// reads (a flushed interval's diff is encoded from
    /// [`write_protect`](Self::write_protect)'s pages).
    ///
    /// Returns `None` if the page has no twin (nothing was recorded). The twin
    /// is left in place.
    pub fn create_diff(&self, page: PageId) -> Option<Diff> {
        let frame = self.frames.get(&page)?;
        let guard = frame.lock();
        let twin = guard.twin.as_ref()?;
        Some(Diff::create(twin.as_slice(), guard.page.as_slice()))
    }

    /// Applies a batch of diffs, mapping a page zero-filled if the node never
    /// touched it, with **one frame resolution per page-run**: consecutive
    /// records for the same page reuse the frame handle (and its lock)
    /// instead of re-walking the table per record. This is the entry point
    /// the runtime's synchronization-point batching builds on — all diffs
    /// collected at one barrier or lock acquire are applied in a single
    /// pass. Callers are expected to pre-sort the batch (same-page records
    /// adjacent, causal order within a page); the method applies records
    /// exactly in the order given. A page's twin receives every diff too: it
    /// records the pre-*local*-modification state, so remote diffs must not
    /// be re-reported as local writes.
    ///
    /// # Errors
    ///
    /// Propagates the first [`MemError`] from a diff application; records
    /// before the failing one remain applied.
    pub fn apply_diff_batch<'a, I>(&mut self, records: I) -> Result<(), MemError>
    where
        I: IntoIterator<Item = (PageId, &'a Diff)>,
    {
        let mut run: Option<(PageId, FrameRef)> = None;
        for (page, diff) in records {
            let frame = match &run {
                Some((current, frame)) if *current == page => Arc::clone(frame),
                _ => {
                    let frame = self.frame_or_map(page, Protection::ReadWrite);
                    run = Some((page, Arc::clone(&frame)));
                    frame
                }
            };
            let mut guard = frame.lock();
            diff.apply(guard.page.as_mut_slice())?;
            if let Some(twin) = guard.twin.as_mut() {
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
        let mut cursor = addr;
        let mut filled = 0;
        while filled < buf.len() {
            let page = cursor.page();
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(buf.len() - filled);
            match self.frames.get(&page) {
                Some(frame) => {
                    buf[filled..filled + chunk]
                        .copy_from_slice(&frame.lock().page.as_slice()[offset..offset + chunk]);
                }
                None => buf[filled..filled + chunk].fill(0),
            }
            filled += chunk;
            cursor = cursor.offset(chunk);
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
        let mut cursor = addr;
        let mut written = 0;
        while written < data.len() {
            let page = cursor.page();
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(data.len() - written);
            let frame = self.frame_or_map(page, Protection::ReadOnly);
            let mut guard = frame.lock();
            guard.page.as_mut_slice()[offset..offset + chunk]
                .copy_from_slice(&data[written..written + chunk]);
            if let Some(twin) = guard.twin.as_mut() {
                twin.as_mut_slice()[offset..offset + chunk]
                    .copy_from_slice(&data[written..written + chunk]);
            }
            drop(guard);
            written += chunk;
            cursor = cursor.offset(chunk);
        }
    }

    /// Reads `range` into `buf` with the protection check and the copy done
    /// under **one frame resolution per page-run** (the bulk entry point the
    /// fast access layer builds on, instead of check + copy per element).
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
        let mut cursor = range.start();
        let mut filled = 0;
        while filled < buf.len() {
            let page = cursor.page();
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(buf.len() - filled);
            let Some(frame) = self.frames.get(&page) else {
                return Err(AccessFault { page, outcome: AccessOutcome::Unmapped });
            };
            let guard = frame.lock();
            if !guard.protection.allows_read() {
                return Err(AccessFault {
                    page,
                    outcome: AccessOutcome::of(guard.protection, false),
                });
            }
            buf[filled..filled + chunk]
                .copy_from_slice(&guard.page.as_slice()[offset..offset + chunk]);
            filled += chunk;
            cursor = cursor.offset(chunk);
        }
        Ok(())
    }

    /// Writes `data` over `range` with the protection check and the copy done
    /// under one frame resolution per page-run. Unlike
    /// [`install_bytes`](Self::install_bytes) this never maps pages: a page that
    /// is not mapped read-write is a fault the caller must resolve (twin +
    /// write-enable), which keeps the write-detection protocol honest.
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
        let mut cursor = range.start();
        let mut written = 0;
        while written < data.len() {
            let page = cursor.page();
            let offset = cursor.page_offset();
            let chunk = (PAGE_SIZE - offset).min(data.len() - written);
            let Some(frame) = self.frames.get(&page) else {
                return Err(AccessFault { page, outcome: AccessOutcome::Unmapped });
            };
            let mut guard = frame.lock();
            if !guard.protection.allows_write() {
                return Err(AccessFault {
                    page,
                    outcome: AccessOutcome::of(guard.protection, true),
                });
            }
            guard.page.as_mut_slice()[offset..offset + chunk]
                .copy_from_slice(&data[written..written + chunk]);
            written += chunk;
            cursor = cursor.offset(chunk);
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

    #[test]
    fn a_leased_frame_is_the_lessees_alone_until_checkin() {
        let mut table = PageTable::new();
        let frame = table.map_zeroed(PageId(6), Protection::ReadWrite);
        // The lease is taken before the other thread exists, so its lock()
        // cannot return until the check-in — and must then see the
        // lessee's write.
        let mut lease = frame.checkout();
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| frame.lock().page.as_slice()[3]);
            lease.page.as_mut_slice()[3] = 8;
            lease.protection = Protection::ReadOnly;
            frame.checkin(lease);
            assert_eq!(waiter.join().unwrap(), 8);
        });
        assert_eq!(table.protection(PageId(6)), Protection::ReadOnly);
        // A second lease on the same frame starts from the returned state.
        assert_eq!(frame.checkout().page.as_slice()[3], 8);
    }

    #[test]
    #[should_panic(expected = "without a matching checkout")]
    fn checkin_requires_a_checkout() {
        let mut table = PageTable::new();
        let frame = table.map_zeroed(PageId(1), Protection::ReadOnly);
        frame.checkin(PageFrame::new(Page::zeroed(), Protection::ReadOnly));
    }

    #[test]
    fn frame_handles_are_stable_across_install_and_remap() {
        // A cached FrameRef must keep observing the live frame, or a stale
        // software-TLB entry could read a detached copy with old protection.
        let mut table = PageTable::new();
        let page = PageId(2);
        let frame = table.map_zeroed(page, Protection::ReadWrite);
        let mut incoming = vec![0u8; PAGE_SIZE];
        incoming[7] = 9;
        let diff = Diff::create(&vec![0u8; PAGE_SIZE], &incoming);
        table.apply_diff_batch([(page, &diff)]).unwrap();
        table.set_protection(page, Protection::ReadOnly);
        let again = table.frame(page).unwrap();
        assert!(Arc::ptr_eq(&frame, &again), "applying must not replace the frame");
        assert_eq!(frame.lock().protection, Protection::ReadOnly);
        assert_eq!(frame.lock().page.as_slice()[7], 9);
        let remapped = table.map_zeroed(page, Protection::Invalid);
        assert!(Arc::ptr_eq(&frame, &remapped), "remapping must not replace the frame");
        assert_eq!(frame.lock().protection, Protection::Invalid);
        assert_eq!(frame.lock().page.as_slice()[7], 0);
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
