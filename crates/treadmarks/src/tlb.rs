//! The per-processor software TLB, and the compute thread's gate to its
//! node's locks.
//!
//! [`SoftTlb`] caches, per page, the [`FrameRef`] of the mapping together
//! with the protection epoch it was observed at and whether it was
//! writable. A probe is valid only while the table's protection epoch is
//! unchanged — the epoch bumps on *every* protection or validity change, so
//! a stale entry can never satisfy a probe.
//!
//! An entry that has been used also holds a **lease** on its frame (see
//! [`pagedmem::Frame::checkout`]): the frame's state is moved into the
//! entry, the processor owns it outright, and a warm access is an epoch
//! compare, a set probe, a read of the leased frame's protection field and
//! the bytes — no lock and no atomic read-modify-write. Whoever else wants
//! the frame (the node's protocol server, or this thread's own calls into
//! the page table) waits until the lease is returned, which is why
//! [`NodeGate`] is the *only* path from the `process` modules to the
//! node's `proto` and `table` locks: [`NodeGate::unleased`] returns every
//! lease before it hands out either. An entry whose lease was returned
//! stays cached and re-takes the lease on its next hit. See `DESIGN.md` §3.
//!
//! The cache is two-way set associative: page id modulo [`TLB_SETS`]
//! selects a set, and within a set the insert evicts the entry observed at
//! the older epoch (a cheap, deterministic LRU proxy). Two ways matter for
//! the phase plans of the compiler interface, which warm a read section
//! and a write section in one call — with a direct-mapped cache a single
//! unlucky alignment makes the two sections evict each other on every
//! access. Conflicts still only evict — correctness never depends on an
//! entry being present.

use std::cell::Cell;
use std::sync::{Arc, MutexGuard};

use msgnet::Endpoint;
use pagedmem::{FrameRef, PageFrame, PageId, PageTable};
use sp2model::VirtualTime;

use crate::message::TmkMessage;
use crate::server;
use crate::state::{NodeShared, PendingLockRequest, ProtoState};
use crate::types::LockId;

/// Total number of TLB entries per processor.
pub(crate) const TLB_SLOTS: usize = 256;

/// Associativity: entries per set.
const TLB_WAYS: usize = 2;

/// Number of sets (`page.0 % TLB_SETS` selects the set).
pub(crate) const TLB_SETS: usize = TLB_SLOTS / TLB_WAYS;

#[derive(Debug)]
struct TlbEntry {
    page: PageId,
    frame: FrameRef,
    epoch: u64,
    writable: bool,
    /// The frame's state while this entry holds the lease on it.
    lease: Option<PageFrame>,
}

impl TlbEntry {
    fn matches(&self, page: PageId, is_write: bool, epoch: u64) -> bool {
        self.page == page && self.epoch == epoch && (!is_write || self.writable)
    }

    fn return_lease(&mut self) {
        if let Some(state) = self.lease.take() {
            self.frame.checkin(state);
        }
    }
}

/// A two-way set-associative cache of page → frame mappings, validated by
/// epoch, whose used entries hold their frames on lease.
#[derive(Debug)]
pub(crate) struct SoftTlb {
    sets: Vec<[Option<TlbEntry>; TLB_WAYS]>,
    /// The slots (`set · TLB_WAYS + way`) that took a lease since the last
    /// [`return_leases`](Self::return_leases), so returning them costs the
    /// number of live leases, not a sweep of the cache.
    leased: Vec<u16>,
}

impl SoftTlb {
    pub(crate) fn new() -> SoftTlb {
        SoftTlb { sets: (0..TLB_SETS).map(|_| [None, None]).collect(), leased: Vec::new() }
    }

    fn set(page: PageId) -> usize {
        page.0 % TLB_SETS
    }

    /// The frame of `page`, held on lease, provided the entry was filled at
    /// the current protection `epoch` and both the entry and the frame's
    /// own protection allow the requested access. An entry without its
    /// lease takes it here, waiting if the frame is locked at this moment.
    #[inline]
    pub(crate) fn access(
        &mut self,
        page: PageId,
        is_write: bool,
        epoch: u64,
    ) -> Option<&mut PageFrame> {
        let set = Self::set(page);
        for (way, slot) in self.sets[set].iter_mut().enumerate() {
            let Some(entry) = slot else { continue };
            if !entry.matches(page, is_write, epoch) {
                continue;
            }
            if entry.lease.is_none() {
                entry.lease = Some(entry.frame.checkout());
                self.leased.push((set * TLB_WAYS + way) as u16);
            }
            let frame = entry.lease.as_mut()?;
            let allowed = if is_write {
                frame.protection.allows_write()
            } else {
                frame.protection.allows_read()
            };
            return allowed.then_some(frame);
        }
        None
    }

    /// Caches `frame` as the mapping of `page`, observed at `epoch`. An
    /// existing entry for the page is replaced in place; otherwise an empty
    /// way is used, and failing that the way filled at the older epoch is
    /// evicted (ties evict way 0, deterministically). A replaced entry's
    /// lease is returned.
    pub(crate) fn insert(&mut self, page: PageId, frame: FrameRef, epoch: u64, writable: bool) {
        let set = &mut self.sets[Self::set(page)];
        let victim = set
            .iter()
            .position(|way| way.as_ref().is_some_and(|e| e.page == page))
            .or_else(|| set.iter().position(Option::is_none))
            .unwrap_or_else(|| match (&set[0], &set[1]) {
                (Some(first), Some(second)) if second.epoch < first.epoch => 1,
                _ => 0,
            });
        let entry = TlbEntry { page, frame, epoch, writable, lease: None };
        if let Some(mut replaced) = set[victim].replace(entry) {
            replaced.return_lease();
        }
    }

    /// Returns every lease; the entries stay cached.
    pub(crate) fn return_leases(&mut self) {
        for slot in self.leased.drain(..) {
            let slot = usize::from(slot);
            if let Some(entry) = &mut self.sets[slot / TLB_WAYS][slot % TLB_WAYS] {
                entry.return_lease();
            }
        }
    }
}

impl Drop for SoftTlb {
    fn drop(&mut self) {
        self.return_leases();
    }
}

/// The compute thread's side of its node: the software TLB, and the only
/// way from the processor's code to the node's `proto` and `table` locks.
///
/// The lock-order rule — **no lease is held while a node lock is taken or
/// awaited, or while the thread blocks on another** — is enforced by
/// construction: the shared state is private to this module, both locks
/// are reached through [`unleased`](Self::unleased), which returns the
/// leases first, and the [`Unleased`] it hands out borrows the gate
/// mutably, so no access (which could take a lease) can happen while a
/// guard obtained from it is alive.
pub(crate) struct NodeGate {
    shared: Arc<NodeShared>,
    tlb: SoftTlb,
    /// TLB hits not yet added into the node's statistics. A plain integer
    /// on the access path; published whenever the leases are returned and
    /// before anyone can read the statistics through the processor.
    hits: Cell<u64>,
}

impl NodeGate {
    pub(crate) fn new(shared: Arc<NodeShared>) -> NodeGate {
        NodeGate { shared, tlb: SoftTlb::new(), hits: Cell::new(0) }
    }

    /// The warm half of a checked access: the leased frame of `page` if
    /// the TLB holds a mapping valid at `epoch` that allows the access,
    /// counted as a hit.
    #[inline]
    pub(crate) fn access(
        &mut self,
        page: PageId,
        is_write: bool,
        epoch: u64,
    ) -> Option<&mut PageFrame> {
        let frame = self.tlb.access(page, is_write, epoch)?;
        self.hits.set(self.hits.get() + 1);
        Some(frame)
    }

    /// Adds the hits counted since the last call into the node's
    /// statistics.
    pub(crate) fn publish_hits(&self) {
        let hits = self.hits.take();
        if hits > 0 {
            self.shared.stats.tlb_hits(hits);
        }
    }

    /// Returns every lease (and publishes the hit count). Called through
    /// [`unleased`](Self::unleased) before a node lock is taken, and
    /// directly before the thread blocks on another.
    pub(crate) fn return_leases(&mut self) {
        self.tlb.return_leases();
        self.publish_hits();
    }

    /// Returns every lease and opens the way to the node's locks.
    pub(crate) fn unleased(&mut self) -> Unleased<'_> {
        self.return_leases();
        Unleased { shared: &self.shared, tlb: &mut self.tlb }
    }
}

impl Drop for NodeGate {
    fn drop(&mut self) {
        // Normal exit and unwind alike, a processor that is gone must not
        // lose counted hits — nor leave its server waiting for a frame,
        // which the TLB's own drop sees to.
        self.publish_hits();
    }
}

/// The node's shared state as seen by a compute thread that holds no
/// lease. The guards it hands out borrow the [`NodeGate`] for as long as
/// they live.
pub(crate) struct Unleased<'a> {
    shared: &'a NodeShared,
    tlb: &'a mut SoftTlb,
}

impl<'a> Unleased<'a> {
    /// Locks the node's protocol state (lock order: before the table).
    pub(crate) fn proto(&self) -> MutexGuard<'a, ProtoState> {
        self.shared.proto.lock()
    }

    /// Locks the node's page table, counting the acquisition.
    pub(crate) fn table(&self) -> MutexGuard<'a, PageTable> {
        self.shared.lock_table()
    }

    /// Caches a mapping in the TLB (see [`SoftTlb::insert`]).
    pub(crate) fn cache(&mut self, page: PageId, frame: FrameRef, epoch: u64, writable: bool) {
        self.tlb.insert(page, frame, epoch, writable);
    }

    /// Grants `lock` to a requester that was queued behind the local
    /// holder, exactly as the node's protocol server would have.
    pub(crate) fn grant(
        &self,
        endpoint: &Endpoint<TmkMessage>,
        lock: LockId,
        request: &PendingLockRequest,
        at: VirtualTime,
    ) {
        server::send_grant(endpoint, self.shared, lock, request, at, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::{Frame, Page, Protection};

    impl SoftTlb {
        /// Whether `page` is cached at `epoch` with a mapping that allows
        /// the access — what [`SoftTlb::access`] matches on, without
        /// taking the lease.
        fn probe(&self, page: PageId, is_write: bool, epoch: u64) -> bool {
            self.sets[Self::set(page)].iter().flatten().any(|e| e.matches(page, is_write, epoch))
        }
    }

    fn frame() -> FrameRef {
        Arc::new(Frame::new(PageFrame {
            page: Page::zeroed(),
            protection: Protection::ReadOnly,
            twin: None,
            dirty: false,
        }))
    }

    #[test]
    fn probe_hits_only_at_the_fill_epoch() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(3), frame(), 7, false);
        assert!(tlb.probe(PageId(3), false, 7));
        assert!(!tlb.probe(PageId(3), false, 8), "stale epoch must miss");
        assert!(!tlb.probe(PageId(3), true, 7), "read entry must not allow writes");
        assert!(!tlb.probe(PageId(4), false, 7));
    }

    #[test]
    fn writable_entries_serve_reads_and_writes() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(1), frame(), 1, true);
        assert!(tlb.probe(PageId(1), false, 1));
        assert!(tlb.probe(PageId(1), true, 1));
    }

    #[test]
    fn two_conflicting_pages_coexist_in_one_set() {
        // The warm-list case that motivated the associativity: a read
        // section and a write section whose pages alias the same set.
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(5), frame(), 1, false);
        tlb.insert(PageId(5 + TLB_SETS), frame(), 1, true);
        assert!(tlb.probe(PageId(5), false, 1), "two ways must hold both");
        assert!(tlb.probe(PageId(5 + TLB_SETS), true, 1));
    }

    #[test]
    fn a_third_conflicting_page_evicts_the_oldest_epoch() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(5), frame(), 1, false);
        tlb.insert(PageId(5 + TLB_SETS), frame(), 3, false);
        tlb.insert(PageId(5 + 2 * TLB_SETS), frame(), 3, false);
        assert!(!tlb.probe(PageId(5), false, 1), "the epoch-1 entry is the victim");
        assert!(tlb.probe(PageId(5 + TLB_SETS), false, 3));
        assert!(tlb.probe(PageId(5 + 2 * TLB_SETS), false, 3));
        // Way 1 holding the older epoch is the victim just the same, and a
        // tie evicts way 0.
        tlb.insert(PageId(5 + 3 * TLB_SETS), frame(), 4, false);
        tlb.insert(PageId(5 + 4 * TLB_SETS), frame(), 4, false);
        assert!(!tlb.probe(PageId(5 + TLB_SETS), false, 3));
        assert!(!tlb.probe(PageId(5 + 2 * TLB_SETS), false, 3));
        tlb.insert(PageId(5), frame(), 4, false);
        assert!(!tlb.probe(PageId(5 + 3 * TLB_SETS), false, 4), "ties evict way 0");
        assert!(tlb.probe(PageId(5 + 4 * TLB_SETS), false, 4));
    }

    #[test]
    fn reinserting_a_cached_page_replaces_in_place() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(9), frame(), 1, false);
        tlb.insert(PageId(9 + TLB_SETS), frame(), 1, false);
        // Upgrade page 9 to writable at a newer epoch: the set's other way
        // must survive.
        tlb.insert(PageId(9), frame(), 2, true);
        assert!(tlb.probe(PageId(9), true, 2));
        assert!(tlb.probe(PageId(9 + TLB_SETS), false, 1));
    }

    /// Whether the entry caching `page` (if any) holds no lease.
    fn is_home(tlb: &SoftTlb, page: PageId) -> bool {
        tlb.sets[SoftTlb::set(page)].iter().flatten().all(|e| e.page != page || e.lease.is_none())
    }

    #[test]
    fn an_access_takes_the_lease_and_a_return_keeps_the_entry() {
        let mut tlb = SoftTlb::new();
        let shared = frame();
        tlb.insert(PageId(2), Arc::clone(&shared), 5, false);
        assert!(is_home(&tlb, PageId(2)), "caching a mapping takes no lease");
        assert!(tlb.access(PageId(2), false, 5).is_some());
        assert!(!is_home(&tlb, PageId(2)));
        assert!(tlb.access(PageId(2), true, 5).is_none(), "a read mapping serves no write");
        assert!(tlb.access(PageId(2), false, 6).is_none(), "a stale epoch serves nothing");
        tlb.return_leases();
        assert!(is_home(&tlb, PageId(2)));
        assert_eq!(shared.lock().protection, Protection::ReadOnly);
        // Still cached: the next hit takes the lease again.
        assert!(tlb.access(PageId(2), false, 5).is_some());
        assert_eq!(tlb.leased.len(), 1);
    }

    #[test]
    fn the_leased_frames_own_protection_is_checked_on_every_access() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(2), frame(), 5, true);
        // The entry claims writability the frame (read-only) does not give.
        assert!(tlb.access(PageId(2), true, 5).is_none());
        let leased = tlb.access(PageId(2), false, 5).expect("reads are allowed");
        leased.protection = Protection::Invalid;
        assert!(tlb.access(PageId(2), false, 5).is_none());
    }

    #[test]
    fn writes_through_a_lease_land_in_the_frame() {
        let mut tlb = SoftTlb::new();
        let shared = frame();
        shared.lock().protection = Protection::ReadWrite;
        tlb.insert(PageId(8), Arc::clone(&shared), 1, true);
        tlb.access(PageId(8), true, 1).unwrap().page.as_mut_slice()[11] = 4;
        tlb.return_leases();
        assert_eq!(shared.lock().page.as_slice()[11], 4);
    }

    #[test]
    fn remapping_a_page_revokes_its_leased_mapping_twice_over() {
        let mut table = PageTable::new();
        let page = PageId(4);
        let frame = table.map_zeroed(page, Protection::ReadWrite);
        let epoch = table.epoch();
        let mut tlb = SoftTlb::new();
        tlb.insert(page, frame, epoch, true);
        tlb.access(page, true, epoch).expect("mapped writable").page.as_mut_slice()[0] = 9;
        // The lessee's rule: every lease goes back before a call into the
        // table, which locks the frame.
        tlb.return_leases();
        table.map_zeroed(page, Protection::Invalid);
        assert!(table.epoch() > epoch, "remapping is a validity change");
        assert!(tlb.access(page, false, table.epoch()).is_none(), "the epoch moved on");
        // Even a probe at the stale epoch is refused: the re-taken lease
        // reads the frame's own protection.
        assert!(tlb.access(page, false, epoch).is_none());
        tlb.return_leases();
        assert_eq!(table.read_range(pagedmem::AddrRange::page(page))[0], 0, "contents were reset");
    }

    #[test]
    fn eviction_and_drop_return_the_lease() {
        let mut tlb = SoftTlb::new();
        let (a, b) = (frame(), frame());
        tlb.insert(PageId(5), Arc::clone(&a), 1, false);
        tlb.insert(PageId(5 + TLB_SETS), Arc::clone(&b), 2, false);
        assert!(tlb.access(PageId(5), false, 1).is_some());
        assert!(tlb.access(PageId(5 + TLB_SETS), false, 2).is_some());
        // Page 5 (older epoch) is evicted while leased: lock() would wait
        // forever if the eviction dropped the state instead of returning it.
        tlb.insert(PageId(5 + 2 * TLB_SETS), frame(), 2, false);
        assert_eq!(a.lock().protection, Protection::ReadOnly);
        drop(tlb);
        assert_eq!(b.lock().protection, Protection::ReadOnly);
    }
}
