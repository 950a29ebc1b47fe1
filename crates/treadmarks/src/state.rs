//! Shared per-node protocol state.
//!
//! Each node's state is shared between its compute thread (the application
//! plus the fault handler) and whichever thread is draining the node's
//! request port (the stand-in for the interrupt handler that services remote
//! requests). Both sides take the [`dsm_core::sync::Mutex`]es for short,
//! local-only critical sections — a request handler never blocks on a remote
//! operation, which is what keeps the system deadlock-free.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

use dsm_core::hash::IntMap;
use dsm_core::sync::Mutex;
use pagedmem::{Addr, AddrRange, Diff, Page, PageId, PageTable};
use sp2model::{CostModel, SharedStats, VirtualTime};

use crate::message::DiffRecord;
use crate::notice::{NoticeLog, NoticeRecord};
use crate::run::RunShared;
use crate::types::{Interval, LockId, ProcId, Vt, VtDelta};

/// How a node can reproduce the modifications of one of its own intervals.
#[derive(Debug)]
pub(crate) enum DiffEntry {
    /// An ordinary twin-vs-page diff of the interval's flush, encoded when
    /// it is first read.
    Delta(Delta),
    /// The page was written under `WRITE_ALL`/`READ&WRITE_ALL`: no twin was
    /// kept, so requests are answered with a copy of the whole page (which is
    /// correct because the compiler asserted the entire page is overwritten).
    FullPage,
}

/// One of this node's own interval diffs, encoded the first time anything
/// reads it, as TreadMarks creates a diff only when some processor asks for
/// it.
///
/// The flush keeps the two pages the diff is a function of: the twin and a
/// copy of the page as the interval ended. Both are copy-on-write clones
/// (the copy shares the live frame's bytes until the frame is next written),
/// so keeping them copies nothing. The first read encodes them and drops
/// both; every later read shares that one encoding. A delta the GC
/// trims unread is never encoded. The model is lazy too, but per batch:
/// each reply batch that ships the delta pays one encoding, so the flush
/// charges nothing and the race detector's reads stay off the clock.
/// Readers hold a shared `&ProtoState` under the node's proto lock, hence
/// the cell.
#[derive(Debug)]
pub(crate) struct Delta(RefCell<Encoding>);

#[derive(Debug)]
enum Encoding {
    /// Not read yet: the twin and the page as the interval ended.
    Pending { twin: Page, page: Page },
    /// Read: the encoding every reader shares.
    Done(Diff),
}

impl Delta {
    /// A delta of the interval that changed `twin` into `page`.
    pub(crate) fn new(twin: Page, page: Page) -> Delta {
        Delta(RefCell::new(Encoding::Pending { twin, page }))
    }

    /// The encoded diff, encoding it (and releasing both pages) on the first
    /// call.
    pub(crate) fn diff(&self) -> Diff {
        let mut encoding = self.0.borrow_mut();
        let diff = match &*encoding {
            Encoding::Done(diff) => return diff.clone(),
            Encoding::Pending { twin, page } => Diff::create(twin.as_slice(), page.as_slice()),
        };
        *encoding = Encoding::Done(diff.clone());
        diff
    }
}

/// A cached interval diff plus the happens-before rank of its interval
/// (the flushing timestamp's [`Vt::sum`]), shipped with every
/// [`DiffRecord`] so receivers can apply same-page diffs in causal order.
#[derive(Debug)]
pub(crate) struct CachedDiff {
    pub entry: DiffEntry,
    pub rank: u64,
    /// The creating interval's full vector timestamp, kept only when the
    /// race detector is on (`None` otherwise): the detector needs the
    /// exact happened-before relation, where the scalar `rank` only
    /// approximates it.
    pub vt: Option<Vt>,
}

/// One page's protocol state at one node, slot `PageId.0` of
/// [`ProtoState::pages`]. Lists the trim empties stay for reuse.
#[derive(Debug, Default)]
struct PageProto {
    /// The write notices of the page whose diffs have not been applied
    /// locally, `Some` once the page is *materialised*: mapped, or its list
    /// read or requested ([`materialise`](ProtoState::materialise)). Any
    /// other page's missing set is the log's records that name it plus one
    /// entry per other writer whose trimmed records named it
    /// ([`NoticeLog::trimmed_writers`]), so a notice costs it nothing. At or
    /// below the GC horizon only a processor's lowest entry is ever read,
    /// so [`gc_trim`](ProtoState::gc_trim) folds the rest into it.
    missing: Option<Vec<(ProcId, Interval)>>,
    /// This node's own [`CachedDiff`]s of the page, in interval order.
    diffs: VecDeque<(Interval, CachedDiff)>,
}

/// A lock-acquire request as its handlers pass it along — and as the
/// current holder queues it until it releases.
#[derive(Debug, Clone)]
pub(crate) struct PendingLockRequest {
    pub requester: ProcId,
    pub vt: Vt,
    pub sync_pages: Vec<PageId>,
    pub lowered: Option<VtDelta>,
    pub arrived_at: VirtualTime,
}

/// One lock at one node: the manager's record (`last_holder`, requests
/// `processed` per requester) and the node's own (`held`, `requested` with
/// the grant not yet consumed, requests `sent`, forwards `queued` until the
/// release).
#[derive(Debug, Default)]
pub(crate) struct LockState {
    pub last_holder: Option<ProcId>,
    pub processed: IntMap<ProcId, u64>,
    pub held: bool,
    pub requested: bool,
    pub sent: u64,
    pub queued: Vec<PendingLockRequest>,
}

impl LockState {
    /// Whether a forward the manager sent after processing `processed` of
    /// this node's requests must wait for the release: the lock is held
    /// here, or our request was ordered first and its grant is on its way
    /// (the manager records us as last holder as it processes our request,
    /// so its forward can overtake the grant). A request the manager had
    /// not yet seen is ordered after the forward: the lock is free here,
    /// and queueing would deadlock the two of us.
    pub fn must_queue(&self, processed: u64) -> bool {
        self.held || (self.requested && processed >= self.sent)
    }
}

/// Protocol bookkeeping for one node.
#[derive(Debug)]
pub(crate) struct ProtoState {
    /// This node's id.
    pub me: ProcId,
    /// Number of processors.
    pub nprocs: usize,
    /// This node's vector timestamp. Its own component, `vt[me]`, is the
    /// last interval this node *flushed*: only its own flush raises it, so
    /// the open interval is derived from it ([`open_interval`](Self::open_interval)).
    pub vt: Vt,
    /// Everything this node knows about modifications in the system, down to
    /// the GC horizon: segments of records as they arrived (a departure's
    /// batch whole) behind a per-processor index, appended to by every
    /// flush and notice batch and popped from the front by every barrier's
    /// trim, which notes the pages each dropped record named.
    pub notice_log: NoticeLog,
    /// Per page, its missing list and own cached diffs, at index `PageId.0`.
    /// Every mapped page is materialised, so a notice need invalidate no
    /// other.
    pages: Vec<PageProto>,
    /// This node's own diff cache: its flushed intervals, oldest first, each
    /// with its flush's page list (its [`NoticeRecord`]'s), whose diffs sit
    /// in those pages' slots. Every barrier's trim pops the front.
    diff_cache: VecDeque<(Interval, Arc<[PageId]>)>,
    /// The global vector timestamp distributed at the last barrier departure.
    pub last_global_vt: Vt,
    /// The garbage-collection horizon distributed at the last barrier
    /// departure (component-wise minimum of every processor's applied
    /// timestamp): own diff-cache entries at or below its component for
    /// this node, and notice-log records covered by it, have been dropped.
    /// Monotone, and always covered by
    /// [`last_global_vt`](Self::last_global_vt).
    pub gc_horizon: Vt,
    /// Every lock this node manages, holds, requests or queues for.
    pub locks: IntMap<LockId, LockState>,
    /// Race detector only: the open interval's vector timestamp as of the
    /// *first* lock acquire of the interval, snapshotted before the grant
    /// merged the granter's timestamp. Unflushed local writes may predate
    /// that acquire, so this — not the merged current timestamp — is the
    /// creating timestamp the detector must attribute to them when a
    /// remote diff lands on a later demand fetch (the grant piggyback path
    /// carries its own per-acquire snapshot in `Outstanding::race_vt`).
    /// Cleared when the interval flushes; `None` when the detector is off
    /// or no acquire happened in the open interval.
    pub acquire_race_vt: Option<Vt>,
}

impl ProtoState {
    pub(crate) fn new(me: ProcId, nprocs: usize) -> ProtoState {
        ProtoState {
            me,
            nprocs,
            vt: Vt::new(nprocs),
            notice_log: NoticeLog::new(nprocs),
            pages: Vec::new(),
            diff_cache: VecDeque::new(),
            last_global_vt: Vt::new(nprocs),
            gc_horizon: Vt::new(nprocs),
            locks: IntMap::default(),
            acquire_race_vt: None,
        }
    }

    /// The interval this node is accumulating writes into: the one after
    /// its last flushed interval.
    pub(crate) fn open_interval(&self) -> Interval {
        self.vt.get(self.me) + 1
    }

    /// The manager of `lock`: locks are statically distributed round-robin.
    pub(crate) fn lock_manager(lock: LockId, nprocs: usize) -> ProcId {
        lock as usize % nprocs
    }

    /// Collects the diff records this node holds for `pages`, restricted to
    /// intervals newer than `seen` — the requester's advertised timestamp,
    /// read at this node: the only component a responder needs. Appends to
    /// `examined` the requested pages this node had cached diffs for at
    /// all — the batched serve's real examination count: the per-page
    /// index answers a non-owned page with one probe, so only owned pages
    /// cost a range scan. One list collects the pages of a whole
    /// synchronization point's requests.
    pub(crate) fn diffs_for_pages_after(
        &self,
        pages: &[PageId],
        seen: Interval,
        table: &PageTable,
        examined: &mut Vec<PageId>,
    ) -> Vec<DiffRecord> {
        let mut out = Vec::new();
        for &page in pages {
            // Intervals this node still caches individually and the
            // requester has not yet incorporated. Garbage-collected
            // intervals can never be asked for here: an advertised
            // timestamp is never below the horizon in any component (the
            // requester's own applied timestamp participated in the
            // minimum), so `seen` always covers a page's trimmed range —
            // bases travel only on the explicit `DiffRequest` path.
            let Some(cached) = self.cached_after(page, seen) else { continue };
            debug_assert!(!self.trimmed(page) || self.gc_horizon.get(self.me) <= seen);
            examined.push(page);
            for (interval, cached) in cached {
                out.push(self.record_of(page, interval, cached, table));
            }
        }
        out.sort_by_key(|r| (r.page, r.interval));
        out
    }

    /// The record that ships `cached`, this node's diff of `page` for
    /// `interval` (a `WRITE_ALL` interval ships the current copy whole).
    pub(crate) fn record_of(
        &self,
        page: PageId,
        interval: Interval,
        cached: &CachedDiff,
        table: &PageTable,
    ) -> DiffRecord {
        let diff = match &cached.entry {
            DiffEntry::Delta(delta) => delta.diff(),
            DiffEntry::FullPage => full_page_diff(table, page),
        };
        let (proc, rank, vt) = (self.me, cached.rank, cached.vt.clone());
        DiffRecord { page, proc, interval, rank, base: None, diff, vt }
    }

    /// Gives each of `pages` not materialised yet its exact missing list —
    /// the first read of a page's list does this, as does mapping the page
    /// or naming it in an outgoing request. The list is one entry per other
    /// writer whose trimmed records named the page
    /// ([`NoticeLog::trimmed_writers`]), at the writer's GC-horizon component
    /// (every reader of an entry at or below the horizon depends only on
    /// its writer, see [`lower_below_missing`]), and one per record of the
    /// notice log that names the page, this node's own excluded: what the
    /// eager list, extended by every notice and folded by every trim, would
    /// hold. One walk of the log serves every page of the call.
    pub(crate) fn materialise(&mut self, pages: impl IntoIterator<Item = PageId>) {
        let mut fresh: Vec<(PageId, Vec<(ProcId, Interval)>)> = Vec::new();
        // Until another processor's record reaches this node, which its
        // timestamp then covers, every page's missing set is empty.
        let mut learned = None;
        let (me, nprocs, vt) = (self.me, self.nprocs, &self.vt);
        for page in pages {
            let missing = &mut page.slot_in(&mut self.pages).missing;
            if missing.is_none() {
                *missing = Some(Vec::new());
                if *learned.get_or_insert_with(|| (0..nprocs).any(|p| p != me && vt.get(p) > 0)) {
                    fresh.push((page, Vec::new()));
                }
            }
        }
        if fresh.is_empty() {
            return;
        }
        fresh.sort_unstable_by_key(|&(page, _)| page);
        self.fill(&mut fresh);
        for (page, list) in fresh {
            self.pages[page.0].missing = Some(list);
        }
    }

    /// Fills in the lists [`materialise`](Self::materialise) gives the
    /// pages of `fresh` (ascending, distinct, lists empty).
    fn fill(&self, fresh: &mut [(PageId, Vec<(ProcId, Interval)>)]) {
        for (page, list) in fresh.iter_mut() {
            let writers = self.notice_log.trimmed_writers(*page).filter(|&proc| proc != self.me);
            list.extend(writers.map(|proc| (proc, self.gc_horizon.get(proc))));
        }
        let others = self.notice_log.records_after(&self.gc_horizon).filter(|r| r.proc != self.me);
        for record in others {
            for_each_common(&record.pages, fresh, |list| {
                list.push((record.proc, record.interval));
            });
        }
    }

    /// Whether the GC horizon dropped some of this node's own diffs of
    /// `page`: its own trimmed records name the page. Local write evidence
    /// for the race detector, nothing more; a trimmed interval is served
    /// only inside a base, a copy of the current page (see
    /// [`DiffRecord::base`]).
    pub(crate) fn trimmed(&self, page: PageId) -> bool {
        self.notice_log.trimmed(self.me, page)
    }

    /// The missing entries of `page` if it is materialised; none for any
    /// other page, whose list [`materialise`](Self::materialise) builds.
    pub(crate) fn missing(&self, page: PageId) -> &[(ProcId, Interval)] {
        self.pages.get(page.0).and_then(|slot| slot.missing.as_deref()).unwrap_or_default()
    }

    /// The missing list of `page` if it is materialised.
    pub(crate) fn missing_mut(&mut self, page: PageId) -> Option<&mut Vec<(ProcId, Interval)>> {
        self.pages.get_mut(page.0)?.missing.as_mut()
    }

    /// The materialised pages, ascending, with their missing entries.
    pub(crate) fn lists(&self) -> impl Iterator<Item = (PageId, &[(ProcId, Interval)])> {
        let slots = self.pages.iter().enumerate();
        slots.filter_map(|(page, slot)| Some((PageId(page), slot.missing.as_deref()?)))
    }

    /// Queues `interval`, later than every queued one, with `diffs[k]` its
    /// diff of `pages[k]`.
    pub(crate) fn cache_diffs(
        &mut self,
        interval: Interval,
        pages: Arc<[PageId]>,
        diffs: Vec<CachedDiff>,
    ) {
        debug_assert!(self.diff_cache.back().is_none_or(|&(last, _)| last < interval));
        for (&page, diff) in pages.iter().zip(diffs) {
            page.slot_in(&mut self.pages).diffs.push_back((interval, diff));
        }
        self.diff_cache.push_back((interval, pages));
    }

    /// The diff of `page` that `interval` cached, if it is queued.
    pub(crate) fn cached(&self, page: PageId, interval: Interval) -> Option<&CachedDiff> {
        let diffs = &self.pages.get(page.0)?.diffs;
        diffs.binary_search_by_key(&interval, |&(i, _)| i).ok().map(|at| &diffs[at].1)
    }

    /// `page`'s cached diffs of the intervals above `seen`, ascending, or
    /// `None` when no queued interval cached a diff of it.
    pub(crate) fn cached_after(
        &self,
        page: PageId,
        seen: Interval,
    ) -> Option<impl Iterator<Item = (Interval, &CachedDiff)> + '_> {
        let diffs = &self.pages.get(page.0).filter(|slot| !slot.diffs.is_empty())?.diffs;
        let first = diffs.partition_point(|&(interval, _)| interval <= seen);
        Some(diffs.range(first..).map(|(interval, diff)| (*interval, diff)))
    }

    /// The number of `(page, interval)` diffs queued.
    pub(crate) fn cached_entries(&self) -> usize {
        self.pages.iter().map(|slot| slot.diffs.len()).sum()
    }

    /// The timestamp of this node's copy of `page`: its own, lowered below
    /// every notice of the page it has not applied — exactly what a base
    /// served from that copy contains (see [`DiffRecord::base`]).
    pub(crate) fn page_vt(&mut self, page: PageId) -> Vt {
        self.materialise([page]);
        let mut vt = self.vt.clone();
        lower_below_missing(&mut vt, self.missing(page));
        vt
    }

    /// This node's *applied* timestamp: its vector timestamp, lowered to
    /// just below every write notice it has seen but whose diff it has not
    /// applied to a page it holds a frame for. Every mapped page is
    /// materialised, so the lists say it all.
    ///
    /// Missing entries of **unmapped** pages do not lower the result: this
    /// node has no copy such a diff could complete, and if it first-touches
    /// the page after the interval was garbage-collected, it is answered
    /// with one base (see [`DiffRecord::base`]) from a producer of the page
    /// — whose mapped frame, like every mapped frame, has applied everything
    /// at or below the horizon, so the base's timestamp covers the interval.
    ///
    /// Written into `vt`, whose buffer a barrier keeps.
    pub(crate) fn applied_vt(&self, table: &PageTable, vt: &mut Vt) {
        debug_assert_eq!(
            self.lists().filter(|&(page, _)| table.is_mapped(page)).count(),
            table.pages_in_use(),
            "P{}: a mapped page is not materialised",
            self.me
        );
        vt.clone_from(&self.vt);
        for (page, missing) in self.lists() {
            if !missing.is_empty() && table.is_mapped(page) {
                lower_below_missing(vt, missing);
            }
        }
    }

    /// Pops own diff-cache intervals at or below `horizon`'s component for
    /// this node and notice-log records covered by `horizon`, and folds each
    /// materialised page's missing entries at or below it into one per
    /// processor. Returns `(diff entries, notice records)` removed.
    /// Monotone and idempotent.
    ///
    /// `in_flight` (ascending) are the pages this synchronization's own
    /// merged fetch still waits for, all materialised when its request
    /// left. The request was built against the horizon found here and may
    /// name entries between that one and the merged one as deltas, each of
    /// which claims its own entry only: those pages fold at the horizon
    /// found, and the next trim folds the rest.
    pub(crate) fn gc_trim(&mut self, horizon: &Vt, in_flight: &[PageId]) -> (u64, u64) {
        let found = &self.gc_horizon;
        for (page, slot) in self.pages.iter_mut().enumerate() {
            let Some(missing) = slot.missing.as_mut().filter(|missing| missing.len() >= 2) else {
                continue;
            };
            let fetching = in_flight.binary_search(&PageId(page)).is_ok();
            let fold_at = |proc| {
                if fetching {
                    found.get(proc)
                } else {
                    found.get(proc).max(horizon.get(proc))
                }
            };
            // Sorted, a processor's lowest entry comes first and absorbs
            // its later ones at or below the fold.
            missing.sort_unstable();
            missing.dedup_by(|next, kept| next.0 == kept.0 && next.1 <= fold_at(next.0));
        }
        self.gc_horizon.merge(horizon);
        let (own, mut diffs) = (self.gc_horizon.get(self.me), 0);
        while let Some((_, pages)) = self.diff_cache.pop_front_if(|&mut (i, _)| i <= own) {
            for page in pages.iter() {
                self.pages[page.0].diffs.pop_front();
            }
            diffs += pages.len() as u64;
        }
        let notices = self.notice_log.trim_covered(&self.gc_horizon) as u64;
        (diffs, notices)
    }

    /// Ends the open interval with a diff of each of `pages` (ascending):
    /// queues them, records the interval's write notice (sharing the page
    /// list) and advances this node's own timestamp component.
    pub(crate) fn close_interval(&mut self, pages: Vec<PageId>, diffs: Vec<CachedDiff>) {
        let (proc, interval) = (self.me, self.open_interval());
        let pages: Arc<[PageId]> = pages.into();
        self.cache_diffs(interval, Arc::clone(&pages), diffs);
        self.notice_log.record(NoticeRecord { proc, interval, pages });
        self.vt.advance(proc, interval);
        // The interval the acquire snapshot described is closed; writes
        // of the next interval are ordered after everything known now.
        self.acquire_race_vt = None;
    }

    /// Installs raw bytes (a push's, a reduction's) under the held table
    /// lock through [`PageTable::install_bytes`], materialising the pages
    /// it maps. Debug builds panic on one that misses a write: nothing
    /// would fetch it beneath the bytes.
    pub(crate) fn install_raw(&mut self, table: &mut PageTable, addr: Addr, data: &[u8]) {
        let range = AddrRange::new(addr, data.len());
        self.materialise(range.pages());
        for page in range.pages().filter(|_| cfg!(debug_assertions)) {
            if let Some(&(w, i)) = self.missing(page).first() {
                panic!("P{}: an install onto {page:?} misses P{w}'s interval {i}", self.me);
            }
        }
        table.install_bytes(addr, data);
    }
}

/// Calls `hit` on each entry of `fresh` whose page `pages` holds, both
/// ascending: a binary search per entry, each narrowing the next.
fn for_each_common(
    pages: &[PageId],
    fresh: &mut [(PageId, Vec<(ProcId, Interval)>)],
    mut hit: impl FnMut(&mut Vec<(ProcId, Interval)>),
) {
    let mut rest = pages;
    for (page, list) in fresh {
        match rest.binary_search(page) {
            Ok(at) => {
                hit(list);
                rest = &rest[at + 1..];
            }
            Err(at) => rest = &rest[at..],
        }
        if rest.is_empty() {
            return;
        }
    }
}

/// Lowers `vt` to just below each of the `missing` entries `(proc,
/// interval)`: a timestamp that claims no interval whose diff is still
/// missing. Per processor only the lowest entry decides the result.
///
/// Every reader of a page's entries at or below the GC horizon depends on
/// its writer alone, never on its interval: [`ProtoState::page_vt`] and
/// [`ProtoState::applied_vt`] read them through this function only on
/// mapped pages, which hold none; `sync_vt_locked` skips them;
/// `wants_for_pages_locked` only asks whose exist (one base answers them
/// all); and `install_records` claims them all with a base (which covers
/// the horizon) or with a whole-page delta of their writer (above it).
/// That is why [`ProtoState::gc_trim`] may fold them into one per
/// processor, and why a page materialised after the trim stands for them
/// with one entry per writer at the horizon
/// ([`ProtoState::materialise`]) — except an entry a request in flight
/// names as a delta, which claims that entry only. A request names none at
/// or below the horizon it was built against, and every page it names is
/// materialised as it leaves, so the trim folds the pages of its own
/// synchronization's fetch at the horizon it found, not the one it merges
/// (`a_merged_fetch_keeps_every_delta_the_trim_passes`).
pub(crate) fn lower_below_missing<'a>(
    vt: &mut Vt,
    missing: impl IntoIterator<Item = &'a (ProcId, Interval)>,
) {
    for &(proc, interval) in missing {
        vt.limit(proc, interval.saturating_sub(1));
    }
}

/// The shared all-zeros page: the source for full-page diffs of pages this
/// node never mapped, avoiding a fresh 4 KiB allocation per miss.
static ZERO_PAGE: [u8; pagedmem::PAGE_SIZE] = [0u8; pagedmem::PAGE_SIZE];

/// Creates a full-page diff from the node's current copy of `page`.
pub(crate) fn full_page_diff(table: &PageTable, page: PageId) -> Diff {
    match table.frame(page) {
        Ok(frame) => Diff::full_page(frame.page.as_slice()),
        // The page was never mapped here (it is still all zeros).
        Err(_) => Diff::full_page(&ZERO_PAGE),
    }
}

/// Everything shared between a node's compute thread and the threads that
/// serve its requests.
#[derive(Debug)]
pub(crate) struct NodeShared {
    pub table: Mutex<PageTable>,
    pub proto: Mutex<ProtoState>,
    pub stats: SharedStats,
    pub cost: CostModel,
    /// The run-wide host state: race log, wait board, watchdog deadline
    /// and SPMD once-cells.
    pub run: Arc<RunShared>,
}

impl NodeShared {
    pub(crate) fn new(
        me: ProcId,
        nprocs: usize,
        cost: CostModel,
        stats: SharedStats,
        run: Arc<RunShared>,
    ) -> NodeShared {
        NodeShared {
            table: Mutex::new(PageTable::new()),
            proto: Mutex::new(ProtoState::new(me, nprocs)),
            stats,
            cost,
            run,
        }
    }

    /// Acquires the node's global page-table lock, counting the acquisition.
    ///
    /// Every table access in the runtime goes through this helper, a
    /// checked access included, so `table_lock_acquires` counts every hold.
    pub(crate) fn lock_table(&self) -> std::sync::MutexGuard<'_, PageTable> {
        self.stats.table_lock_acquires(1);
        self.table.lock()
    }
}

#[cfg(test)]
impl Delta {
    /// Whether nobody has read the delta yet: it still holds its two pages.
    pub(crate) fn is_pending(&self) -> bool {
        matches!(*self.0.borrow(), Encoding::Pending { .. })
    }
}

#[cfg(test)]
impl ProtoState {
    /// `page`'s missing list, materialised or not: the list it holds, or
    /// the one [`materialise`](Self::materialise) would give it.
    pub(crate) fn missing_of(&self, page: PageId) -> Vec<(ProcId, Interval)> {
        if self.is_materialised(page) {
            return self.missing(page).to_vec();
        }
        let mut fresh = [(page, Vec::new())];
        self.fill(&mut fresh);
        let [(_, missing)] = fresh;
        missing
    }

    /// Whether `page` is materialised.
    pub(crate) fn is_materialised(&self, page: PageId) -> bool {
        self.pages.get(page.0).is_some_and(|slot| slot.missing.is_some())
    }

    /// The materialised pages, ascending.
    pub(crate) fn materialised_pages(&self) -> Vec<PageId> {
        self.lists().map(|(page, _)| page).collect()
    }

    /// What a reader can tell of `missing` under this node's GC horizon:
    /// the entries above it, and the writers of the entries at or below it
    /// (see [`lower_below_missing`]).
    pub(crate) fn effective(
        &self,
        missing: &[(ProcId, Interval)],
    ) -> (std::collections::BTreeSet<(ProcId, Interval)>, std::collections::BTreeSet<ProcId>) {
        let (below, above): (Vec<_>, Vec<_>) =
            missing.iter().partition(|&&(proc, interval)| interval <= self.gc_horizon.get(proc));
        (above.into_iter().collect(), below.into_iter().map(|(proc, _)| proc).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::PAGE_SIZE;

    #[test]
    fn a_forward_queues_behind_a_hold_or_an_earlier_request_and_not_a_later_one() {
        assert!(LockState { held: true, ..LockState::default() }.must_queue(0));
        let requested = LockState { requested: true, sent: 2, ..LockState::default() };
        assert!(requested.must_queue(2), "the manager processed our request first");
        assert!(!requested.must_queue(1), "our request is ordered after the forward");
        assert!(!LockState::default().must_queue(0), "the lock is free here");
    }

    #[test]
    fn lock_managers_are_distributed_round_robin() {
        assert_eq!(ProtoState::lock_manager(0, 4), 0);
        assert_eq!(ProtoState::lock_manager(5, 4), 1);
        assert_eq!(ProtoState::lock_manager(7, 8), 7);
    }

    #[test]
    fn diffs_for_pages_after_filters_by_requester_timestamp() {
        let mut proto = ProtoState::new(0, 2);
        let table = PageTable::new();
        let mut cur = Page::zeroed();
        cur.as_mut_slice()[0] = 1;
        for interval in [1, 2] {
            let entry = DiffEntry::Delta(Delta::new(Page::zeroed(), cur.clone()));
            let cached = CachedDiff { entry, rank: u64::from(interval), vt: None };
            proto.cache_diffs(interval, [PageId(3)].into(), vec![cached]);
        }

        let after =
            |seen: Interval| proto.diffs_for_pages_after(&[PageId(3)], seen, &table, &mut vec![]);
        // A requester that has already seen interval 1 of proc 0.
        let records = after(1);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].interval, 2);

        // A requester that has seen nothing gets both.
        assert_eq!(after(0).len(), 2);
    }

    #[test]
    fn full_page_entries_materialise_from_the_current_copy() {
        let mut proto = ProtoState::new(1, 2);
        let mut table = PageTable::new();
        table.install_bytes(PageId(7).base(), &[9, 9, 9, 9]);
        let cached = CachedDiff { entry: DiffEntry::FullPage, rank: 1, vt: None };
        proto.cache_diffs(1, [PageId(7)].into(), vec![cached]);
        let records = proto.diffs_for_pages_after(&[PageId(7)], 0, &table, &mut vec![]);
        assert_eq!(records.len(), 1);
        let mut page = vec![0u8; PAGE_SIZE];
        records[0].diff.apply(&mut page).unwrap();
        assert_eq!(&page[0..4], &[9, 9, 9, 9]);
    }

    #[test]
    fn full_page_diff_of_untouched_page_is_zero_filled() {
        let table = PageTable::new();
        let diff = full_page_diff(&table, PageId(11));
        let mut page = vec![1u8; PAGE_SIZE];
        diff.apply(&mut page).unwrap();
        assert!(page.iter().all(|&b| b == 0));
    }
}
