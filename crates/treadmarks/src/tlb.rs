//! The per-processor software TLB, and the compute thread's gate to its
//! node's locks.
//!
//! [`SoftTlb`] caches, per page, the [`FrameRef`] of the mapping. A frame
//! handle is stable for the life of the table, so an entry never goes
//! stale: what decides an access is the frame's own `protection`, which a
//! hit reads through the **lease** it holds on the frame (see
//! [`pagedmem::Frame::checkout`]). The frame's state is moved into the
//! entry, the processor owns it outright, and a warm access is a set probe,
//! a read of the leased frame's protection field and the bytes — no lock
//! and no atomic operation. Whoever else wants the frame (a thread serving
//! the node's requests, or this thread's own calls into the page table) waits
//! until the lease is returned, which is why [`NodeGate`] is the *only*
//! path from the `process` modules to the node's `proto` and `table` locks:
//! [`NodeGate::unleased`] returns every lease before it hands out either.
//! Only this thread ever revokes a protection, it does so under the table
//! lock, and it holds no lease by then — so the field a hit reads is always
//! live. An entry whose lease was returned stays cached and re-takes the
//! lease on its next hit. See `DESIGN.md` §3.
//!
//! The cache is two-way set associative: page id modulo [`TLB_SETS`]
//! selects a set, and a set replaces first in, first out (way 0 holds the
//! newer entry). Two ways matter for the phase plans of the compiler
//! interface, which cache a read section and a write section in one call —
//! with a direct-mapped cache a single unlucky alignment makes the two
//! sections evict each other on every access. Conflicts only evict —
//! correctness never depends on an entry being present.

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
    /// The frame's state while this entry holds the lease on it.
    lease: Option<PageFrame>,
}

impl TlbEntry {
    fn return_lease(&mut self) {
        if let Some(state) = self.lease.take() {
            self.frame.checkin(state);
        }
    }
}

/// Takes the lease on `frame` for the entry in `slot` and records the slot.
/// Out of line: an entry takes its lease once per lease-return interval,
/// and a warm access finds it held.
#[cold]
#[inline(never)]
fn take_lease(frame: &FrameRef, leased: &mut Vec<u16>, slot: usize) -> PageFrame {
    leased.push(slot as u16);
    frame.checkout()
}

/// A two-way set-associative cache of page → frame mappings whose used
/// entries hold their frames on lease.
#[derive(Debug)]
pub(crate) struct SoftTlb {
    /// Fixed-size, so the set index (`page.0 % TLB_SETS`) needs no bounds
    /// check.
    sets: Box<[[Option<TlbEntry>; TLB_WAYS]; TLB_SETS]>,
    /// The slots (`set · TLB_WAYS + way`) that took a lease since the last
    /// [`return_leases`](Self::return_leases), so returning them costs the
    /// number of live leases, not a sweep of the cache.
    leased: Vec<u16>,
}

impl SoftTlb {
    pub(crate) fn new() -> SoftTlb {
        let sets: Box<[_]> = (0..TLB_SETS).map(|_| [None, None]).collect();
        SoftTlb { sets: sets.try_into().expect("TLB_SETS sets"), leased: Vec::new() }
    }

    fn set(page: PageId) -> usize {
        page.0 % TLB_SETS
    }

    /// The frame of `page`, held on lease, provided the page is cached and
    /// the frame's own protection allows the requested access. An entry
    /// without its lease takes it here (out of line), waiting if the frame
    /// is locked at this moment.
    #[inline]
    pub(crate) fn access(&mut self, page: PageId, is_write: bool) -> Option<&mut PageFrame> {
        let set = Self::set(page);
        for (way, slot) in self.sets[set].iter_mut().enumerate() {
            let Some(TlbEntry { page: cached, frame, lease }) = slot else { continue };
            if *cached != page {
                continue;
            }
            let leased = &mut self.leased;
            let frame =
                lease.get_or_insert_with(|| take_lease(frame, leased, set * TLB_WAYS + way));
            let allowed = if is_write {
                frame.protection.allows_write()
            } else {
                frame.protection.allows_read()
            };
            return allowed.then_some(frame);
        }
        None
    }

    /// Whether `page` is cached.
    pub(crate) fn contains(&self, page: PageId) -> bool {
        self.sets[Self::set(page)].iter().flatten().any(|e| e.page == page)
    }

    /// Caches `frame` as the mapping of `page`: in place of an entry for
    /// the same page, else in an empty way, else as way 0 with the old way 0
    /// moving to way 1 and the old way 1 evicted. Every lease is returned
    /// first, so moving an entry cannot strand one.
    pub(crate) fn insert(&mut self, page: PageId, frame: FrameRef) {
        self.return_leases();
        let set = &mut self.sets[Self::set(page)];
        let way = set
            .iter()
            .position(|way| way.as_ref().is_some_and(|e| e.page == page))
            .or_else(|| set.iter().position(Option::is_none))
            .unwrap_or_else(|| {
                set.swap(0, 1);
                0
            });
        set[way] = Some(TlbEntry { page, frame, lease: None });
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
    /// the TLB holds its mapping and the frame allows the access, counted
    /// as a hit.
    #[inline]
    pub(crate) fn access(&mut self, page: PageId, is_write: bool) -> Option<&mut PageFrame> {
        let frame = self.tlb.access(page, is_write)?;
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
        // lose counted hits — nor leave a handler waiting for a frame,
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

    /// Caches the mapping of `page` if it is not cached yet and `table`
    /// maps the page. Takes the held table so that caching never costs a
    /// lock of its own, and locks no frame: the frame's protection is read
    /// when the entry is used, not here.
    pub(crate) fn cache(&mut self, page: PageId, table: &PageTable) {
        if self.tlb.contains(page) {
            return;
        }
        if let Ok(frame) = table.frame(page) {
            self.tlb.insert(page, frame);
        }
    }

    /// Grants `lock` to a requester that was queued behind the local
    /// holder, exactly as the node's lock-forward handler would have.
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

    fn frame() -> FrameRef {
        Arc::new(Frame::new(PageFrame {
            page: Page::zeroed(),
            protection: Protection::ReadOnly,
            twin: None,
            dirty: false,
        }))
    }

    /// The pages cached in the set of `page`, way 0 first.
    fn ways(tlb: &SoftTlb, page: PageId) -> Vec<PageId> {
        tlb.sets[SoftTlb::set(page)].iter().flatten().map(|e| e.page).collect()
    }

    #[test]
    fn writable_entries_serve_reads_and_writes() {
        let mut tlb = SoftTlb::new();
        let writable = frame();
        writable.lock().protection = Protection::ReadWrite;
        tlb.insert(PageId(1), writable);
        assert!(tlb.access(PageId(1), false).is_some());
        assert!(tlb.access(PageId(1), true).is_some());
    }

    #[test]
    fn two_conflicting_pages_coexist_in_one_set() {
        // The case that motivated the associativity: a read section and a
        // write section whose pages alias the same set.
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(5), frame());
        tlb.insert(PageId(5 + TLB_SETS), frame());
        assert!(tlb.contains(PageId(5)), "two ways must hold both");
        assert!(tlb.contains(PageId(5 + TLB_SETS)));
        assert!(!tlb.contains(PageId(6)));
    }

    #[test]
    fn a_full_set_replaces_first_in_first_out() {
        let page = |k: usize| PageId(5 + k * TLB_SETS);
        let mut tlb = SoftTlb::new();
        tlb.insert(page(0), frame());
        tlb.insert(page(1), frame());
        assert_eq!(ways(&tlb, page(0)), [page(0), page(1)], "empty ways fill in order");
        // The new entry takes way 0, the old way 0 moves to way 1 and the
        // old way 1 goes.
        tlb.insert(page(2), frame());
        assert_eq!(ways(&tlb, page(0)), [page(2), page(0)]);
        tlb.insert(page(3), frame());
        assert_eq!(ways(&tlb, page(0)), [page(3), page(2)]);
        // Hits do not reorder: the rule is positional, not recency.
        assert!(tlb.access(page(2), false).is_some());
        tlb.insert(page(4), frame());
        assert_eq!(ways(&tlb, page(0)), [page(4), page(3)]);
    }

    #[test]
    fn reinserting_a_cached_page_replaces_in_place() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(9), frame());
        tlb.insert(PageId(9 + TLB_SETS), frame());
        tlb.insert(PageId(9), frame());
        assert_eq!(ways(&tlb, PageId(9)), [PageId(9), PageId(9 + TLB_SETS)]);
    }

    /// Whether the entry caching `page` (if any) holds no lease.
    fn is_home(tlb: &SoftTlb, page: PageId) -> bool {
        tlb.sets[SoftTlb::set(page)].iter().flatten().all(|e| e.page != page || e.lease.is_none())
    }

    #[test]
    fn an_access_takes_the_lease_and_a_return_keeps_the_entry() {
        let mut tlb = SoftTlb::new();
        let shared = frame();
        tlb.insert(PageId(2), Arc::clone(&shared));
        assert!(is_home(&tlb, PageId(2)), "caching a mapping takes no lease");
        assert!(tlb.access(PageId(2), false).is_some());
        assert!(!is_home(&tlb, PageId(2)));
        assert!(tlb.access(PageId(2), true).is_none(), "a read-only frame serves no write");
        assert!(tlb.access(PageId(3), false).is_none(), "an uncached page serves nothing");
        tlb.return_leases();
        assert!(is_home(&tlb, PageId(2)));
        assert_eq!(shared.lock().protection, Protection::ReadOnly);
        // Still cached: the next hit takes the lease again.
        assert!(tlb.access(PageId(2), false).is_some());
        assert_eq!(tlb.leased.len(), 1);
    }

    #[test]
    fn the_leased_frames_own_protection_is_checked_on_every_access() {
        let mut tlb = SoftTlb::new();
        tlb.insert(PageId(2), frame());
        assert!(tlb.access(PageId(2), true).is_none(), "the frame is read-only");
        let leased = tlb.access(PageId(2), false).expect("reads are allowed");
        leased.protection = Protection::Invalid;
        assert!(tlb.access(PageId(2), false).is_none());
    }

    #[test]
    fn writes_through_a_lease_land_in_the_frame() {
        let mut tlb = SoftTlb::new();
        let shared = frame();
        shared.lock().protection = Protection::ReadWrite;
        tlb.insert(PageId(8), Arc::clone(&shared));
        tlb.access(PageId(8), true).unwrap().page.as_mut_slice()[11] = 4;
        tlb.return_leases();
        assert_eq!(shared.lock().page.as_slice()[11], 4);
    }

    #[test]
    fn an_invalidated_frame_serves_nothing_until_it_is_valid_again() {
        let mut table = PageTable::new();
        let page = PageId(4);
        let frame = table.map_zeroed(page, Protection::ReadWrite);
        let mut tlb = SoftTlb::new();
        tlb.insert(page, frame);
        tlb.access(page, true).expect("mapped writable").page.as_mut_slice()[0] = 9;
        // The lessee's rule: every lease goes back before a call into the
        // table, which locks the frame.
        tlb.return_leases();
        table.set_protection(page, Protection::Invalid);
        assert!(tlb.access(page, false).is_none(), "the re-taken lease reads the frame's state");
        tlb.return_leases();
        table.set_protection(page, Protection::ReadOnly);
        // The same entry serves again, with no insert in between.
        assert_eq!(tlb.access(page, false).expect("valid again").page.as_slice()[0], 9);
        assert!(tlb.access(page, true).is_none());
        // Remapping resets the frame in place; the entry sees that too.
        tlb.return_leases();
        table.map_zeroed(page, Protection::ReadOnly);
        assert_eq!(tlb.access(page, false).expect("remapped").page.as_slice()[0], 0);
    }

    #[test]
    fn eviction_and_drop_return_the_lease() {
        let mut tlb = SoftTlb::new();
        let (a, b) = (frame(), frame());
        tlb.insert(PageId(5), Arc::clone(&a));
        tlb.insert(PageId(5 + TLB_SETS), Arc::clone(&b));
        assert!(tlb.access(PageId(5), false).is_some());
        assert!(tlb.access(PageId(5 + TLB_SETS), false).is_some());
        // Way 1 is evicted and way 0 moved while both are leased: lock()
        // would wait forever if either lost its state instead of returning
        // it.
        tlb.insert(PageId(5 + 2 * TLB_SETS), frame());
        assert_eq!(b.lock().protection, Protection::ReadOnly);
        assert_eq!(a.lock().protection, Protection::ReadOnly);
        assert!(tlb.access(PageId(5), false).is_some());
        drop(tlb);
        assert_eq!(a.lock().protection, Protection::ReadOnly);
    }
}
