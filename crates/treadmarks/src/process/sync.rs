//! What every synchronization point shares: the lowered [`PhasePlan`], the
//! in-flight synchronization and its receipt, write preparation, the
//! aggregated diff request/response exchange, the single-hold install and
//! the split-phase completion. A barrier or lock acquire performs its own
//! exchange, leaves what is still outstanding with the
//! [`Process`] and hands back a [`PendingSync`] receipt; one completion,
//! with one wait loop, serves them all — run by the program's
//! `sync_phase_complete`, or by the fault handler on the first touch of a
//! page the in-flight fetch covers, whichever comes first.

use std::collections::{BTreeMap, HashSet};

use pagedmem::{AddrRange, PageId, PageTable, Protection, PAGE_SIZE};
use racecheck::SyncKind;

use super::access::warm_ranges_locked;
use super::interval::contiguous_runs;
use super::race::detect_races_locked;
use super::Process;
use crate::message::{DiffRecord, PageWant, TmkMessage};
use crate::state::ProtoState;
use crate::types::{Interval, LockId, ProcId, Vt};

/// The synchronization operation a fetch can be merged with.
///
/// `Validate_w_sync` is only legal when the fetch is issued *at* a
/// synchronization point — the consistency information (write notices) and
/// the requested data then travel on the same messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOp {
    /// Merge the fetch with the next barrier: the page request rides on the
    /// barrier-arrival message and the diffs come back from each producer in
    /// one aggregated message after the departure.
    Barrier,
    /// Merge the fetch with acquiring the given lock: the page request rides
    /// on the acquire request and the last releaser piggybacks its diffs on
    /// the grant.
    Lock(LockId),
}

/// A lowered description of one compiler-analyzed phase: what must be
/// fetched, how written pages are prepared, and which mappings to cache in
/// the software TLB. Built by the `ctrt` crate from `RegularSection`s;
/// consumed by the aggregate entry points
/// ([`Process::sync_phase_issue`]/[`Process::sync_phase_complete`] and
/// [`Process::prepare_phase`]) so that *all* per-phase protocol work happens
/// under a single page-table-lock hold per synchronization step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhasePlan {
    /// Ranges whose old contents must be made consistent before the phase.
    pub fetch: Vec<AddrRange>,
    /// Written ranges that need a twin (partial writes; old contents
    /// survive for unwritten words).
    pub write_twinned: Vec<AddrRange>,
    /// Ranges under the pure `WRITE_ALL` assertion: every byte overwritten
    /// before the next release and never read first — no twin, no fetch,
    /// pending invalidations for fully covered pages are discarded.
    pub write_all: Vec<AddrRange>,
    /// Ranges under `READ&WRITE_ALL`: read first, then every byte
    /// overwritten — fetched like a read, but no twin is kept (the flush
    /// ships the whole page).
    pub read_write_all: Vec<AddrRange>,
    /// Ranges whose mappings the software TLB caches, where it does not
    /// hold them yet, under the lock holds the phase's calls take anyway.
    pub warm: Vec<AddrRange>,
}

impl PhasePlan {
    /// A plan that only fetches `ranges` (no write preparation, no
    /// warming) — what the bare `fetch_diffs_w_sync` primitive needs.
    pub fn fetch_only(ranges: &[AddrRange]) -> PhasePlan {
        PhasePlan { fetch: ranges.to_vec(), ..PhasePlan::default() }
    }
}

/// The distinct pages `ranges` touch, ascending.
pub(super) fn pages_of(ranges: &[AddrRange]) -> Vec<PageId> {
    let mut pages: Vec<PageId> = ranges.iter().flat_map(AddrRange::pages).collect();
    pages.sort_unstable();
    pages.dedup();
    pages
}

/// Write preparation postponed at issue time because the page still had
/// missing diffs: enabling it early would let the phase read stale bytes
/// through the fast path. The preparation is finished at the completion,
/// after the diffs landed.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeferredWrite {
    page: PageId,
    /// `true` for `READ&WRITE_ALL` pages (no twin at completion), `false`
    /// for ordinary twinned writes.
    write_all: bool,
}

/// The receipt of a split-phase `Validate_w_sync`.
///
/// Returned by [`Process::sync_phase_issue`]: the synchronization operation
/// itself has been performed (the barrier crossed or the lock acquired,
/// with the section page list piggybacked), the
/// requests are on the wire, and write preparation has been done for every
/// page that was already consistent. What is still in flight — whom the processor waits for, the
/// records already in hand, the deferred preparation — belongs to the
/// [`Process`]; the receipt only names the synchronization, `(kind,
/// ordinal)`. Pass it to [`Process::sync_phase_complete`] to collect the
/// responses, apply them in causal (rank) order and finish the deferred
/// preparation.
///
/// The receipt never exposes stale data: pages with outstanding diffs stay
/// invalid until their data is installed, and **the first touch of such a
/// page completes the pending synchronization** — the fault handler runs
/// the completion itself, on the data that is already on its way. The later
/// `sync_phase_complete` then charges nothing. A receipt that is dropped
/// leaves its state behind until the next issue replaces it.
#[must_use = "a split-phase sync completes only when passed to sync_phase_complete or \
              validate_w_sync_complete"]
#[derive(Debug)]
pub struct PendingSync {
    kind: SyncKind,
    /// The synchronization's ordinal among those of its kind on this
    /// processor.
    seq: u64,
    outstanding: usize,
}

impl PendingSync {
    /// Number of response messages that were outstanding when the issue
    /// returned.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }
}

/// The synchronization a processor has issued and not yet issued another
/// after: what its completion waits for and installs, until the completion
/// has run. One per processor — a re-issue replaces it.
#[derive(Debug)]
pub(super) struct InFlightSync {
    /// The synchronization kind: names the receipt, and a race detected at
    /// the completion is attributed to it in its [`racecheck::RaceReport`].
    kind: SyncKind,
    /// The ordinal the request rode on (the barrier count for
    /// barrier-merged fetches, the acquire count for locks): with `kind`,
    /// what the
    /// receipt names; a completion accepts only responses carrying this
    /// ordinal, so the responses of an abandoned (dropped) receipt can never
    /// satisfy a later synchronization's completion.
    seq: u64,
    /// How many of the warm list's pages the TLB maps: as of the issue, and
    /// once the completion has run, as of the completion.
    warmed: usize,
    /// What the completion has to do; `None` once it has run.
    todo: Option<Outstanding>,
}

/// What an issued synchronization's completion waits for and installs. The
/// issuing collective fills in what it is waiting for.
#[derive(Debug, Default)]
pub(super) struct Outstanding {
    /// Every page the merged fetch covers, ascending.
    pub(super) pages: Vec<PageId>,
    /// Processors that will answer with a `SyncDiffs` message: a barrier's
    /// resolved producers.
    pub(super) responders: HashSet<ProcId>,
    /// Diff records already in hand (lock-grant piggyback), applied at
    /// completion together with everything else so causally ordered
    /// same-page diffs land in rank order across messages.
    pub(super) piggyback: Vec<DiffRecord>,
    /// Outstanding `(responder, request id)` pairs of third-party fetches.
    pub(super) fetch_expected: Vec<(ProcId, u64)>,
    /// Write preparation postponed until the missing diffs have landed.
    pub(super) deferred: Vec<DeferredWrite>,
    /// Mappings to cache at completion (the fetched pages may be mapped
    /// only then).
    warm: Vec<AddrRange>,
    /// Race detection only: the pre-acquire vector timestamp of a lock
    /// issue — the open interval's knowledge *before* the granter's
    /// timestamp was merged — used as the creating timestamp of the local
    /// unflushed writes when the grant's diffs are applied. `None` means
    /// the current timestamp is correct at completion time (the barrier
    /// path flushes the interval at issue, so any local dirty data at
    /// completion was written after the boundary).
    pub(super) race_vt: Option<Vt>,
}

impl Outstanding {
    /// The state of a synchronization whose merged fetch covers `plan`'s
    /// fetch list, with nothing outstanding yet and `plan`'s mappings to
    /// cache at completion.
    pub(super) fn new(plan: &PhasePlan) -> Outstanding {
        Outstanding {
            pages: pages_of(&plan.fetch),
            warm: plan.warm.clone(),
            ..Outstanding::default()
        }
    }

    /// Whether the completion has nothing to wait for, install or prepare.
    fn is_empty(&self) -> bool {
        self.pages.is_empty()
            && self.responders.is_empty()
            && self.piggyback.is_empty()
            && self.fetch_expected.is_empty()
            && self.deferred.is_empty()
    }
}

/// What write preparation did, for cost charging after the hold.
pub(super) struct PrepTally {
    pub(super) twinned: u64,
    pub(super) protect_ranges: u64,
}

/// Write-enables one page of a written section: the `WRITE_ALL` treatment
/// (no twin — the flush ships the whole page) or the ordinary twinned
/// path. Shared by issue-time preparation, the completion's deferred
/// preparation and the write fault so they can never diverge. Returns
/// whether a twin was created.
pub(super) fn enable_written_page(
    proto: &mut ProtoState,
    table: &mut PageTable,
    page: PageId,
    write_all: bool,
) -> bool {
    let mut twinned = false;
    if write_all {
        proto.write_all_pages.insert(page);
        table.frame_or_map(page);
    } else if !proto.write_all_pages.contains(&page) && table.make_twin(page) {
        twinned = true;
    }
    table.set_protection(page, Protection::ReadWrite);
    table.mark_dirty(page);
    twinned
}

/// Prepares one page as an ordinary twinned write — or, with
/// `defer_missing`, postpones that to the completion while the page still
/// has missing diffs. Returns whether a twin was created.
fn prep_twinned_page(
    proto: &mut ProtoState,
    table: &mut PageTable,
    page: PageId,
    defer_missing: bool,
    deferred: &mut Vec<DeferredWrite>,
) -> bool {
    if defer_missing && proto.page_missing.contains_key(&page) {
        deferred.push(DeferredWrite { page, write_all: false });
        return false;
    }
    enable_written_page(proto, table, page, false)
}

/// Prepares a plan's written pages under an already-held lock pair: twin
/// creation and write enabling for twinned writes, the `WRITE_ALL`
/// treatment for fully covered pages of `write_all`/`read_write_all`
/// ranges. Their partially covered boundary pages are ordinary twinned
/// writes: discarding such a page's missing diffs would lose remote writes
/// to the uncovered bytes. With `defer_missing`, pages that still have
/// missing diffs are *not* enabled (that would let the phase read stale
/// bytes through the fast path) but pushed onto `deferred`, to be finished
/// at the completion after the diffs have been applied. `READ&WRITE_ALL`
/// pages additionally never discard their missing diffs when deferring —
/// the application reads the fetched values before overwriting them.
pub(super) fn prep_writes_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    plan: &PhasePlan,
    defer_missing: bool,
    deferred: &mut Vec<DeferredWrite>,
) -> PrepTally {
    let mut twinned = 0u64;
    for range in &plan.write_twinned {
        for page in range.pages() {
            twinned += u64::from(prep_twinned_page(proto, table, page, defer_missing, deferred));
        }
    }
    for (ranges, reads_first) in [(&plan.write_all, false), (&plan.read_write_all, true)] {
        for range in ranges {
            for page in range.pages() {
                let fully_covered = range.start() <= page.base() && page.end() <= range.end();
                let missing = proto.page_missing.contains_key(&page);
                if !fully_covered {
                    // Without a completion to defer to, a boundary page
                    // that is not consistent is the fault path's (fetch,
                    // then twin): nothing fetched a pure `WRITE_ALL` range.
                    if defer_missing || !missing {
                        twinned += u64::from(prep_twinned_page(
                            proto,
                            table,
                            page,
                            defer_missing,
                            deferred,
                        ));
                    }
                } else if reads_first && defer_missing && missing {
                    deferred.push(DeferredWrite { page, write_all: true });
                } else {
                    if !reads_first {
                        proto.page_missing.remove(&page);
                    }
                    enable_written_page(proto, table, page, true);
                }
            }
        }
    }
    let protect_ranges =
        (plan.write_twinned.len() + plan.write_all.len() + plan.read_write_all.len()) as u64;
    PrepTally { twinned, protect_ranges }
}

/// Builds the per-producer [`PageWant`] lists for everything still missing
/// on `pages` (minus `in_hand`), under an already-held proto lock.
///
/// Intervals above the node's GC horizon are wanted individually; intervals
/// at or below it are folded into one base request per page (the producer
/// may be trimming them concurrently in real time, and the response's byte
/// count — which virtual time is derived from — must not depend on that
/// race, so the requester fixes the shape: one full page).
pub(super) fn wants_for_pages_locked(
    proto: &ProtoState,
    pages: &[PageId],
    in_hand: &HashSet<(PageId, ProcId, Interval)>,
) -> BTreeMap<ProcId, Vec<PageWant>> {
    let mut per_proc: BTreeMap<ProcId, Vec<PageWant>> = BTreeMap::new();
    for &page in pages {
        let Some(missing) = proto.page_missing.get(&page) else { continue };
        let mut by_proc: BTreeMap<ProcId, (Option<Interval>, Vec<Interval>)> = BTreeMap::new();
        for &(proc, interval) in missing {
            if in_hand.contains(&(page, proc, interval)) {
                continue;
            }
            let (base_through, intervals) = by_proc.entry(proc).or_default();
            if interval <= proto.gc_horizon.get(proc) {
                *base_through = Some(base_through.map_or(interval, |t| t.max(interval)));
            } else {
                intervals.push(interval);
            }
        }
        for (proc, (base_through, mut intervals)) in by_proc {
            intervals.sort_unstable();
            per_proc.entry(proc).or_default().push(PageWant { page, base_through, intervals });
        }
    }
    per_proc
}

impl Process {
    /// Charges the costs of a [`prep_writes_locked`] tally after the hold
    /// has been released.
    pub(super) fn charge_prep(&mut self, prep: &PrepTally, pages_in_use: usize) {
        self.stats.twins_created(prep.twinned);
        self.clock.advance(self.cost.twin_cost(prep.twinned as usize));
        self.stats.protection_ops(prep.protect_ranges);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(prep.protect_ranges));
    }

    /// `Fetch_diffs` + `Apply_diffs`: makes every page of `ranges`
    /// consistent.
    ///
    /// All wanted `(page, interval)` pairs are grouped by the processor that
    /// created the modification and sent as **one request message per
    /// destination** — the aggregation that distinguishes `Validate` from a
    /// sequence of page faults. Pages with no missing diffs cost nothing.
    /// The responses are applied in causal (rank) order and the fetched
    /// pages revalidated under a single table-lock hold.
    pub fn fetch_diffs(&mut self, ranges: &[AddrRange]) {
        let pages = pages_of(ranges);
        let per_proc = {
            let proto = self.node.unleased().proto();
            wants_for_pages_locked(&proto, &pages, &HashSet::new())
        };
        let expected = self.send_diff_requests(per_proc);
        let mut records = Vec::new();
        self.collect_diff_responses(&expected, "a diff response (fetch)", &mut records);
        self.install_records(records, &pages, &[], &[], SyncKind::Fetch, None);
    }

    /// Sends one aggregated `DiffRequest` per producer in `per_proc` and
    /// returns the `(responder, request id)` pairs to expect answers from.
    pub(super) fn send_diff_requests(
        &mut self,
        per_proc: BTreeMap<ProcId, Vec<PageWant>>,
    ) -> Vec<(ProcId, u64)> {
        let me = self.proc_id();
        let mut expected = Vec::with_capacity(per_proc.len());
        for (proc, wants) in per_proc {
            debug_assert_ne!(proc, me, "a processor never misses its own diffs");
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            let msg = TmkMessage::DiffRequest { req_id, requester: me, wants };
            self.send_request(proc, msg);
            expected.push((proc, req_id));
        }
        expected
    }

    /// Waits for the `DiffResponse` to every request in `expected`
    /// (labelled `what` on the wait board), observing each arrival, and
    /// appends their records to `records`.
    fn collect_diff_responses(
        &mut self,
        expected: &[(ProcId, u64)],
        what: &str,
        records: &mut Vec<DiffRecord>,
    ) {
        for &(_, want) in expected {
            let env = self.recv_reply(
                what,
                |m| matches!(m, TmkMessage::DiffResponse { req_id, .. } if *req_id == want),
            );
            self.clock.observe(env.arrives_at);
            if let TmkMessage::DiffResponse { diffs, .. } = env.payload {
                records.extend(diffs);
            }
        }
    }

    /// The single-hold installation step shared by every path that applies
    /// diffs: rank-sorts the whole batch (across *all* messages of the
    /// synchronization point, so causally ordered same-page diffs apply in
    /// happens-before order no matter how they were delivered), drops
    /// records that are no longer missing (re-delivery is harmless),
    /// applies the survivors through the page table's batch entry point,
    /// revalidates `pages`, finishes deferred write preparation and caches
    /// the `warm` mappings — one global-lock acquisition for the entire
    /// step. Returns how many of the warm list's pages the TLB now maps.
    /// When the race detector is on, the claimed batch is checked against
    /// concurrent local history *before* it is applied (applying would
    /// update the twins the local unflushed write set is read from);
    /// `sync_kind` labels any report and `race_vt` overrides the creating
    /// timestamp attributed to the local unflushed writes (the lock path's
    /// pre-acquire snapshot — see [`Outstanding::race_vt`]).
    fn install_records(
        &mut self,
        mut records: Vec<DiffRecord>,
        pages: &[PageId],
        deferred: &[DeferredWrite],
        warm: &[AddrRange],
        sync_kind: SyncKind,
        race_vt: Option<&Vt>,
    ) -> usize {
        // Consolidated bases apply before the page's interval diffs
        // regardless of rank: a base is the producer's *current copy*,
        // which may lack a concurrent writer's words (its still-cached
        // delta, applied after, restores them) and may contain values
        // causally ahead of this node's entitlement (the owed diffs,
        // applied after, bring the page back to exactly the view this
        // node's acquires justify).
        records.sort_by_key(|r| (r.page, !r.base, r.rank, r.proc, r.interval));
        let mut node = self.node.unleased();
        let mut proto = node.proto();
        let mut table = node.table();
        // Keep only records still on a page's missing list (claiming the
        // entry), preserving the sorted order. A base — and likewise a
        // `WRITE_ALL` full page — claims *every* missing interval of its
        // creator at or below its own: the whole page is covered, so
        // earlier modifications by the same processor are subsumed, which
        // is what lets a producer answer any number of garbage-collected
        // intervals with one consolidated base copy.
        let mut applicable = Vec::with_capacity(records.len());
        for record in records {
            let Some(missing) = proto.page_missing.get_mut(&record.page) else { continue };
            let whole_page = record.base || record.diff.modified_bytes() == PAGE_SIZE;
            let before = missing.len();
            // A delta removes *every* copy of its interval, not just the
            // first: a duplicated missing entry (however it arose) must not
            // survive the application of its diff, or the leftover phantom
            // would re-fetch this interval after a newer one from the same
            // processor has been applied — and applying the older diff
            // second rolls its bytes back.
            missing.retain(|&(p, i)| {
                p != record.proc
                    || if whole_page { i > record.interval } else { i != record.interval }
            });
            let claimed = before - missing.len();
            if missing.is_empty() {
                proto.page_missing.remove(&record.page);
            }
            if claimed > 0 {
                applicable.push(record);
            }
        }
        if let Some(log) = &self.run.race {
            detect_races_locked(&self.stats, log, &proto, &table, &applicable, sync_kind, race_vt);
        }
        let applied = applicable.len() as u64;
        let apply_bytes: usize = applicable.iter().map(|r| r.diff.encoded_bytes()).sum();
        let full_pages =
            applicable.iter().filter(|r| r.diff.modified_bytes() == PAGE_SIZE).count() as u64;
        table
            .apply_diff_batch(applicable.iter().map(|r| (r.page, &r.diff)))
            .expect("page-sized diff always applies");
        // Revalidate every requested page plus every page a record touched:
        // pages with nothing missing become readable (writable again if
        // mid-interval modifications exist); pages still missing diffs stay
        // invalid; untouched pages materialise zero-filled.
        let mut revalidate: Vec<PageId> = pages.to_vec();
        revalidate.extend(applicable.iter().map(|r| r.page));
        revalidate.sort_unstable();
        revalidate.dedup();
        for &page in &revalidate {
            if proto.page_missing.contains_key(&page) {
                // `apply_diff_batch` may have freshly mapped the frame read-write;
                // the page is not consistent yet, so make that explicit.
                if table.is_mapped(page) {
                    table.set_protection(page, Protection::Invalid);
                }
                continue;
            }
            let dirty = table.frame(page).map(|f| f.lock().dirty).unwrap_or(false);
            let target = if dirty { Protection::ReadWrite } else { Protection::ReadOnly };
            match table.protection(page) {
                Protection::Unmapped => {
                    // First touch of a page nobody has written: materialise
                    // it zero-filled, like fresh anonymous memory.
                    table.map_zeroed(page, Protection::ReadOnly);
                }
                _ => table.set_protection(page, target),
            }
        }
        // Finish the write preparation that was deferred at issue time.
        let mut deferred_twins = 0u64;
        let mut deferred_pages = Vec::new();
        for d in deferred {
            if proto.page_missing.contains_key(&d.page) {
                // Still not consistent (a producer outside this sync point);
                // leave it to the ordinary fault path.
                continue;
            }
            deferred_twins +=
                u64::from(enable_written_page(&mut proto, &mut table, d.page, d.write_all));
            deferred_pages.push(d.page);
        }
        deferred_pages.sort_unstable();
        let deferred_runs = contiguous_runs(&deferred_pages);
        let warmed = warm_ranges_locked(&mut node, &table, warm);
        let pages_in_use = table.pages_in_use();
        drop(table);
        drop(proto);
        self.stats.diffs_applied(applied);
        self.stats.full_page_fetches(full_pages);
        if applied > 0 {
            self.clock.advance(self.cost.diff_apply_cost(apply_bytes));
        }
        self.stats.twins_created(deferred_twins);
        self.clock.advance(self.cost.twin_cost(deferred_twins as usize));
        self.stats.protection_ops(deferred_runs);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(deferred_runs));
        warmed
    }

    /// Merges an aggregated fetch of `ranges` with a synchronization
    /// operation (the blocking form of `Validate_w_sync`): issue and
    /// complete back to back.
    ///
    /// For [`SyncOp::Lock`], the page list rides on the acquire request and
    /// the last releaser piggybacks its diffs on the grant; diffs owned by
    /// third processors are fetched in aggregated messages, and the whole
    /// batch — piggyback plus third-party responses — is applied in one
    /// rank-sorted pass. For [`SyncOp::Barrier`], the request rides on the
    /// barrier arrival, is routed to its producers with the departures, and
    /// every producer answers with one aggregated `SyncDiffs` message.
    pub fn fetch_diffs_w_sync(&mut self, sync: SyncOp, ranges: &[AddrRange]) {
        let pending = self.sync_phase_issue(sync, &PhasePlan::fetch_only(ranges));
        self.sync_phase_complete(pending);
    }

    /// The issue half of a split-phase `Validate_w_sync`: performs the
    /// synchronization operation with the plan's page list piggybacked,
    /// sends every diff request, prepares the pages that are already
    /// consistent, caches the sections' mappings and returns without
    /// waiting for the data.
    ///
    /// All per-synchronization protocol work on this side — write-notice
    /// application, serving the other processors' piggybacked requests,
    /// write preparation and mapping caching — happens under a **single**
    /// page-table-lock hold.
    ///
    /// The caller may run computation that does not touch the still-missing
    /// pages before calling [`sync_phase_complete`](Self::sync_phase_complete),
    /// overlapping the fetch latency. Touching a pending page early is safe:
    /// the access faults and the fault handler completes the pending
    /// synchronization on the spot — a receipt never exposes stale data,
    /// and in-flight data is never fetched a second time.
    pub fn sync_phase_issue(&mut self, sync: SyncOp, plan: &PhasePlan) -> PendingSync {
        match sync {
            SyncOp::Barrier => self.barrier_issue(plan),
            SyncOp::Lock(lock) => self.lock_issue(lock, plan),
        }
    }

    /// Makes `todo` this processor's in-flight synchronization — replacing
    /// whatever an abandoned receipt left behind — and returns its receipt.
    /// `warmed` is the issue's own mapping-caching count.
    pub(super) fn begin_in_flight(
        &mut self,
        kind: SyncKind,
        seq: u64,
        warmed: usize,
        todo: Outstanding,
    ) -> PendingSync {
        let outstanding = todo.responders.len() + todo.fetch_expected.len();
        self.in_flight = Some(InFlightSync { kind, seq, warmed, todo: Some(todo) });
        PendingSync { kind, seq, outstanding }
    }

    /// Whether the in-flight synchronization's merged fetch covers `page`
    /// and its completion has not run yet.
    pub(super) fn in_flight_covers(&self, page: PageId) -> bool {
        self.in_flight
            .as_ref()
            .and_then(|sync| sync.todo.as_ref())
            .is_some_and(|todo| todo.pages.binary_search(&page).is_ok())
    }

    /// The completion half of a split-phase `Validate_w_sync`: waits for
    /// every outstanding response, applies the whole batch in causal (rank)
    /// order, finishes deferred write preparation and caches the mappings
    /// of the fetched pages — again under a single page-table-lock hold.
    /// Returns how many of the warm list's pages the TLB now maps.
    ///
    /// If a first touch already completed the synchronization, this charges
    /// nothing and only reports the count. A receipt whose state a later
    /// issue has replaced reports 0.
    pub fn sync_phase_complete(&mut self, pending: PendingSync) -> usize {
        let named = |sync: &InFlightSync| (sync.kind, sync.seq) == (pending.kind, pending.seq);
        if !self.in_flight.as_ref().is_some_and(named) {
            return 0;
        }
        self.complete_in_flight(false);
        self.in_flight.take().map_or(0, |sync| sync.warmed)
    }

    /// Runs the in-flight synchronization's completion, if it has not run
    /// yet. `first_touch` says who is asking: the fault handler, on the
    /// first access to a page the merged fetch covers (which labels the
    /// waits on the wait board), or the program's own
    /// [`sync_phase_complete`](Self::sync_phase_complete).
    ///
    /// The completion blocks only on messages that are already on their way
    /// from processors that never wait for this one — a barrier's
    /// `SyncDiffs` leave with the departure hold of responders that have
    /// all arrived, a `DiffResponse` is a handler's answer sent by the drain
    /// that followed the request (this thread's or a concurrent one's) — so
    /// running it early cannot deadlock; and every wait is an `observe` of
    /// a virtual arrival time, so when it runs changes no clock but this
    /// processor's own, deterministically.
    pub(super) fn complete_in_flight(&mut self, first_touch: bool) {
        let Some(sync) = self.in_flight.as_mut() else { return };
        let Some(todo) = sync.todo.take() else { return };
        if todo.is_empty() {
            return;
        }
        let (kind, seq) = (sync.kind, sync.seq);
        let Outstanding {
            pages,
            mut responders,
            piggyback,
            fetch_expected,
            deferred,
            warm,
            race_vt,
        } = todo;
        let label = |what: &'static str| {
            if first_touch {
                "the in-flight sync's responses (first touch)"
            } else {
                what
            }
        };
        let before = self.clock.now();
        let mut records = piggyback;
        self.collect_diff_responses(
            &fetch_expected,
            label("a diff response (sync completion)"),
            &mut records,
        );
        // Observe every reply before applying anything (see `barrier_issue`
        // for why observe-all-then-advance is what keeps virtual time
        // independent of thread scheduling). Only a barrier has responders,
        // and a reply is accepted only under its own ordinal; older replies
        // — answers to a receipt the caller dropped instead of completing —
        // are consumed and discarded here so they can never be mistaken for
        // (or park behind) this barrier's data.
        while !responders.is_empty() {
            let env = self.recv_reply(label("a producer's sync-diffs"), |m| {
                matches!(m, TmkMessage::SyncDiffs { from, seq: got, .. }
                    if *got <= seq && responders.contains(from))
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::SyncDiffs { from, seq: got, diffs } = env.payload else {
                unreachable!()
            };
            if got < seq {
                continue;
            }
            responders.remove(&from);
            records.extend(diffs);
        }
        // How long the completion actually stalled: with computation between
        // issue and complete, the responses have already arrived and this
        // approaches zero — the split-phase overlap, made measurable.
        let waited = self.clock.now().saturating_sub(before);
        self.stats.sync_wait_ns(waited.as_nanos());
        let warmed =
            self.install_records(records, &pages, &deferred, &warm, kind, race_vt.as_ref());
        if let Some(sync) = self.in_flight.as_mut() {
            sync.warmed = warmed;
        }
    }

    /// Batch write preparation and mapping caching for a phase whose data
    /// is already consistent (the run-time half of a plain `Validate` after
    /// its fetch, and of the producer side of a push loop) — one table-lock
    /// hold for the whole phase. Returns how many of the warm list's pages
    /// the TLB now maps.
    ///
    /// This is the paper's `Create_twins` and `Write_enable` in one call
    /// ([`PhasePlan`] says what each kind of written range gets), charged
    /// one protection operation per range.
    pub fn prepare_phase(&mut self, plan: &PhasePlan) -> usize {
        let mut deferred = Vec::new();
        let (prep, warmed, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let prep = prep_writes_locked(&mut proto, &mut table, plan, false, &mut deferred);
            let warmed = warm_ranges_locked(&mut node, &table, &plan.warm);
            (prep, warmed, table.pages_in_use())
        };
        debug_assert!(deferred.is_empty(), "immediate preparation never defers");
        self.charge_prep(&prep, pages_in_use);
        warmed
    }
}
