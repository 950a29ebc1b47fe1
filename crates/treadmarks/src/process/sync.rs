//! What every synchronization point shares: the lowered [`PhasePlan`], the
//! in-flight synchronization, write preparation, the aggregated diff
//! request/response exchange, the single-hold install and the split-phase
//! completion. [`Process::sync_phase`] issues a barrier or lock acquire —
//! each performs its own exchange and leaves what is still outstanding with
//! the [`Process`] — runs the caller's overlap body and completes; one
//! completion, with one wait loop, serves them all, run at the end of the
//! call or by the fault handler on the first touch of a page the in-flight
//! fetch covers, whichever comes first.

use std::collections::{BTreeMap, HashSet};

use dsm_core::hash::IntMap;
use pagedmem::{AddrRange, PageId, PageTable, Protection, PAGE_SIZE};
use racecheck::SyncKind;

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
/// fetched and how written pages are prepared. Built by the `ctrt` crate
/// from `RegularSection`s; consumed by the aggregate entry points
/// ([`Process::sync_phase`] and [`Process::prepare_phase`]) so that *all*
/// per-phase protocol work happens under a single page-table-lock hold per
/// synchronization step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhasePlan {
    /// Pages whose old contents must be made consistent before the phase,
    /// ascending and distinct.
    pub fetch: Vec<PageId>,
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
}

/// Write preparation postponed at issue time because the page still had
/// missing diffs: enabling it early would let the phase read stale bytes
/// without a fault. The preparation is finished at the completion, after
/// the diffs landed.
#[derive(Debug, Clone, Copy)]
pub(super) struct DeferredWrite {
    pub(super) page: PageId,
    /// `Twinned` or `ReadWriteAll`: a `WriteAll` page is never deferred.
    write: PageWrite,
}

/// How one written page is prepared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageWrite {
    /// An ordinary write: twinned, so the flush ships a delta.
    Twinned,
    /// `WRITE_ALL`: overwritten unread, so no twin and no missing diffs.
    WriteAll,
    /// `READ&WRITE_ALL`: read first, then overwritten whole; no twin.
    ReadWriteAll,
}

/// The synchronization whose overlap body is running: one per processor,
/// from its issue to the end of [`Process::sync_phase`].
#[derive(Debug)]
pub(super) struct InFlightSync {
    /// The synchronization kind: a race detected at the completion is
    /// attributed to it in its [`racecheck::RaceReport`].
    kind: SyncKind,
    /// What the completion has to do; `None` once it has run.
    todo: Option<Outstanding>,
}

/// What an issued synchronization's completion waits for and installs. The
/// issuing collective fills in what it is waiting for.
#[derive(Debug, Default)]
pub(super) struct Outstanding {
    /// Every page the merged fetch covers, ascending.
    pub(super) pages: Vec<PageId>,
    /// Processors that will answer with a `SyncDiffs` message, ascending: a
    /// barrier's resolved producers.
    pub(super) responders: Vec<ProcId>,
    /// Diff records already in hand (lock-grant piggyback), applied at
    /// completion together with everything else so causally ordered
    /// same-page diffs land in rank order across messages.
    pub(super) piggyback: Vec<DiffRecord>,
    /// Outstanding `(responder, request id)` pairs of third-party fetches.
    pub(super) fetch_expected: Vec<(ProcId, u64)>,
    /// Write preparation postponed until the missing diffs have landed.
    pub(super) deferred: Vec<DeferredWrite>,
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
    /// fetch list, with nothing outstanding yet.
    pub(super) fn new(plan: &PhasePlan) -> Outstanding {
        debug_assert!(plan.fetch.windows(2).all(|w| w[0] < w[1]), "a fetch ascends, distinct");
        Outstanding { pages: plan.fetch.clone(), ..Outstanding::default() }
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

/// Prepares a plan's written pages under an already-held lock pair: twin
/// creation and write enabling for twinned writes, the `WRITE_ALL`
/// treatment for fully covered pages of `write_all`/`read_write_all`
/// ranges. Their partially covered boundary pages are ordinary twinned
/// writes: discarding such a page's missing diffs would lose remote writes
/// to the uncovered bytes. A page that still misses diffs and is not
/// overwritten unread (a twinned page, or any page of `read_write_all`) is
/// not enabled — that would let the phase read stale bytes without a
/// fault — but pushed onto `deferred`, for an in-flight
/// synchronization's completion to finish once the diffs have landed; with
/// nothing in flight it stays the fault path's (fetch, then twin).
///
/// Every written page is mapped here, so every one is materialised first
/// (a `WRITE_ALL` page then discards what it misses).
pub(super) fn prep_writes_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    plan: &PhasePlan,
    deferred: &mut Vec<DeferredWrite>,
) -> PrepTally {
    let mut twinned = 0u64;
    let written = [
        (&plan.write_twinned, PageWrite::Twinned),
        (&plan.write_all, PageWrite::WriteAll),
        (&plan.read_write_all, PageWrite::ReadWriteAll),
    ];
    let ranges = written.iter().flat_map(|&(ranges, _)| ranges);
    proto.materialise(ranges.flat_map(AddrRange::pages));
    for (ranges, kind) in written {
        for range in ranges {
            for (page, run, _) in range.page_runs() {
                let write = if run.len() == PAGE_SIZE { kind } else { PageWrite::Twinned };
                match write {
                    PageWrite::WriteAll => {
                        if let Some(missing) = proto.missing_mut(page) {
                            missing.clear();
                        }
                    }
                    PageWrite::Twinned | PageWrite::ReadWriteAll => {
                        if !proto.missing(page).is_empty() {
                            deferred.push(DeferredWrite { page, write });
                            continue;
                        }
                    }
                }
                twinned += u64::from(table.write_enable(page, write == PageWrite::Twinned));
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
/// Intervals above the node's GC horizon are wanted individually; those at
/// or below it are answered by one base per page, from the lowest-numbered
/// producer of such an interval. That producer holds a mapped frame, and
/// every mapped frame has applied everything at or below the horizon, so
/// the base's timestamp covers them all (the producers may be trimming them
/// concurrently in real time, and the response's byte count — which
/// virtual time is derived from — must not depend on that race, so the
/// requester fixes the shape: one full page).
pub(super) fn wants_for_pages_locked(
    proto: &mut ProtoState,
    pages: &[PageId],
    in_hand: &HashSet<(PageId, ProcId, Interval)>,
) -> BTreeMap<ProcId, Vec<PageWant>> {
    proto.materialise(pages.iter().copied());
    let mut per_proc: BTreeMap<ProcId, Vec<PageWant>> = BTreeMap::new();
    for &page in pages {
        let mut by_proc: BTreeMap<ProcId, Vec<Interval>> = BTreeMap::new();
        let mut base_from = None::<ProcId>;
        for &(proc, interval) in proto.missing(page) {
            if in_hand.contains(&(page, proc, interval)) {
                continue;
            }
            if interval <= proto.gc_horizon.get(proc) {
                base_from = Some(base_from.map_or(proc, |from| from.min(proc)));
            } else {
                by_proc.entry(proc).or_default().push(interval);
            }
        }
        if let Some(from) = base_from {
            by_proc.entry(from).or_default();
        }
        for (proc, mut intervals) in by_proc {
            intervals.sort_unstable();
            let base = base_from == Some(proc);
            per_proc.entry(proc).or_default().push(PageWant { page, base, intervals });
        }
    }
    per_proc
}

/// The claim step of an install, under an already-held proto lock: sorts
/// `records` into the install's order, materialises every page they or
/// `pages` name, and keeps, in that order, each record that claims an entry
/// of its page's missing list, removing what it claims. A page that would
/// still owe an entry at or below the horizon after the batch's claims is
/// parked: it keeps its list and takes none of the batch's records (see
/// [`Process::install_records`]).
pub(super) fn claim_records_locked(
    proto: &mut ProtoState,
    mut records: Vec<DiffRecord>,
    pages: &[PageId],
) -> Vec<DiffRecord> {
    let bases: IntMap<PageId, Vt> =
        records.iter().filter_map(|r| Some((r.page, r.base.clone()?))).collect();
    let layer = |r: &DiffRecord| match (&r.base, bases.get(&r.page)) {
        (Some(_), _) => 1,
        (None, Some(vt)) if r.interval > vt.get(r.proc) => 2,
        _ => 0,
    };
    records.sort_by_key(|r| (r.page, layer(r), r.rank, r.proc, r.interval));
    proto.materialise(pages.iter().copied().chain(records.iter().map(|r| r.page)));
    let parked: Vec<PageId> = records
        .chunk_by(|a, b| a.page == b.page)
        .filter(|group| {
            let owed = proto.missing(group[0].page).iter();
            owed.filter(|&&(p, i)| i <= proto.gc_horizon.get(p))
                .any(|&entry| !group.iter().any(|r| claims(r, entry)))
        })
        .map(|group| group[0].page)
        .collect();
    // A parked page is only ever one whose base is still to come.
    debug_assert!(
        parked.iter().all(|page| !bases.contains_key(page)),
        "P{}: a base misses history at or below the horizon {} on {parked:?}",
        proto.me,
        proto.gc_horizon,
    );
    let mut applicable = Vec::with_capacity(records.len());
    for record in records {
        if parked.contains(&record.page) {
            continue;
        }
        let Some(missing) = proto.missing_mut(record.page) else { continue };
        let before = missing.len();
        missing.retain(|&entry| !claims(&record, entry));
        if missing.len() < before {
            applicable.push(record);
        }
    }
    applicable
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

    /// `Fetch_diffs` + `Apply_diffs`: makes every one of `pages`
    /// consistent.
    ///
    /// All wanted `(page, interval)` pairs are grouped by the processor that
    /// created the modification and sent as **one request message per
    /// destination** — the aggregation that distinguishes `Validate` from a
    /// sequence of page faults. Pages with no missing diffs cost nothing.
    /// The responses are applied in causal (rank) order and the fetched
    /// pages revalidated under a single table-lock hold.
    pub fn fetch_diffs(&mut self, pages: &[PageId]) {
        let per_proc = {
            let mut proto = self.node.proto.lock();
            wants_for_pages_locked(&mut proto, pages, &HashSet::new())
        };
        let expected = self.send_diff_requests(per_proc);
        let mut records = Vec::new();
        self.collect_diff_responses(&expected, "a diff response (fetch)", &mut records);
        self.install_records(records, pages, &[], SyncKind::Fetch, None);
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
        what: &'static str,
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
    /// diffs: sorts the whole batch into happens-before order (across *all*
    /// messages of the synchronization point, so causally ordered same-page
    /// diffs apply in order no matter how they were delivered), drops
    /// records that are no longer missing (re-delivery is harmless),
    /// applies the survivors through the page table's batch entry point,
    /// revalidates `pages` and finishes deferred write preparation — one
    /// global-lock acquisition for the entire step.
    ///
    /// The order has one rule: a page's records apply in rank order, except
    /// that a base ([`DiffRecord::base`]) goes above every delta its
    /// timestamp covers — the copy already holds those writes, or later
    /// ones — and beneath every delta it does not, each of which is
    /// concurrent with or later than everything the copy holds. The base
    /// claims every missing entry its timestamp covers.
    ///
    /// A page that would still owe an entry at or below the horizon after
    /// the batch's claims takes none of the batch's records: only a base
    /// restores that history, and a later base need not cover these
    /// records. Its first touch fetches the base and the deltas in one
    /// batch, so every mapped frame holds all history at or below the
    /// horizon (debug builds assert it after every install).
    ///
    /// When the race detector is on, the claimed batch is checked against
    /// concurrent local history *before* it is applied (applying would
    /// update the twins the local unflushed write set is read from);
    /// `sync_kind` labels any report and `race_vt` overrides the creating
    /// timestamp attributed to the local unflushed writes (the lock path's
    /// pre-acquire snapshot — see [`Outstanding::race_vt`]).
    fn install_records(
        &mut self,
        records: Vec<DiffRecord>,
        pages: &[PageId],
        deferred: &[DeferredWrite],
        sync_kind: SyncKind,
        race_vt: Option<&Vt>,
    ) {
        let mut proto = self.node.proto.lock();
        let mut table = self.node.lock_table();
        let applicable = claim_records_locked(&mut proto, records, pages);
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
        // invalid; untouched pages are mapped zero-filled.
        let mut revalidate = Vec::with_capacity(pages.len() + applicable.len());
        revalidate.extend_from_slice(pages);
        revalidate.extend(applicable.iter().map(|r| r.page));
        revalidate.sort_unstable();
        revalidate.dedup();
        for &page in &revalidate {
            if !proto.missing(page).is_empty() {
                // `apply_diff_batch` may have freshly mapped the frame read-write;
                // the page is not consistent yet, so make that explicit.
                if table.is_mapped(page) {
                    table.set_protection(page, Protection::Invalid);
                }
                continue;
            }
            let dirty = table.frame(page).is_ok_and(|f| f.dirty);
            let target = if dirty { Protection::ReadWrite } else { Protection::ReadOnly };
            match table.protection(page) {
                Protection::Unmapped => {
                    // First touch of a page nobody has written: map it
                    // zero-filled, like fresh anonymous memory.
                    table.map_zeroed(page, Protection::ReadOnly);
                }
                _ => table.set_protection(page, target),
            }
        }
        debug_assert!(
            proto.lists().all(|(page, missing)| {
                !table.is_mapped(page) || missing.iter().all(|&(p, i)| i > proto.gc_horizon.get(p))
            }),
            "P{}: a mapped frame misses history at or below the horizon {}",
            proto.me,
            proto.gc_horizon,
        );
        // Finish the write preparation that was deferred at issue time.
        let mut prep = PrepTally { twinned: 0, protect_ranges: 0 };
        let mut deferred_pages = Vec::new();
        for d in deferred {
            if !proto.missing(d.page).is_empty() {
                // Still not consistent (a producer outside this sync point);
                // leave it to the ordinary fault path.
                continue;
            }
            prep.twinned += u64::from(table.write_enable(d.page, d.write == PageWrite::Twinned));
            deferred_pages.push(d.page);
        }
        deferred_pages.sort_unstable();
        prep.protect_ranges = contiguous_runs(&deferred_pages);
        let pages_in_use = table.pages_in_use();
        drop(table);
        drop(proto);
        self.stats.diffs_applied(applied);
        self.stats.full_page_fetches(full_pages);
        if applied > 0 {
            self.clock.advance(self.cost.diff_apply_cost(apply_bytes));
        }
        self.charge_prep(&prep, pages_in_use);
    }

    /// Merges an aggregated fetch of `pages` (ascending, distinct) with a
    /// synchronization operation (the blocking form of `Validate_w_sync`):
    /// a [`sync_phase`](Self::sync_phase) with nothing to overlap.
    ///
    /// For [`SyncOp::Lock`], the page list rides on the acquire request and
    /// the last releaser piggybacks its diffs on the grant; diffs owned by
    /// third processors are fetched in aggregated messages, and the whole
    /// batch — piggyback plus third-party responses — is applied in one
    /// rank-sorted pass. For [`SyncOp::Barrier`], the request rides on the
    /// barrier arrival, is routed to its producers with the departures, and
    /// every producer answers with one aggregated `SyncDiffs` message.
    pub fn fetch_diffs_w_sync(&mut self, sync: SyncOp, pages: &[PageId]) {
        let plan = PhasePlan { fetch: pages.to_vec(), ..PhasePlan::default() };
        self.sync_phase(sync, &plan, |_| {});
    }

    /// Split-phase `Validate_w_sync`: performs the synchronization operation
    /// with the plan's page list piggybacked, sends every diff request,
    /// and prepares the pages that are already consistent; runs `overlap`;
    /// then waits for every response, applies the whole batch in causal
    /// (rank) order and finishes the deferred write preparation.
    ///
    /// All per-synchronization protocol work on this side — write-notice
    /// application, serving the other processors' piggybacked requests and
    /// write preparation — happens under a **single**
    /// page-table-lock hold at the issue, and the install under one more.
    ///
    /// `overlap` is computation that does not need the still-missing pages:
    /// it runs while their data is on the wire. Touching a pending page in
    /// it is safe: the access faults and the fault handler runs the
    /// completion on the spot, so stale data is never exposed and in-flight
    /// data is never fetched a second time; the completion at the end of the
    /// call is then free.
    ///
    /// # Panics
    ///
    /// Panics if `overlap` issues a synchronization of its own (a barrier,
    /// lock acquire, reduction or merged fetch): one synchronization is in
    /// flight at a time.
    pub fn sync_phase(
        &mut self,
        sync: SyncOp,
        plan: &PhasePlan,
        overlap: impl FnOnce(&mut Process),
    ) {
        match sync {
            SyncOp::Barrier => {
                self.synchronize(SyncKind::Barrier, |p| p.barrier_issue(plan, None), overlap);
            }
            SyncOp::Lock(lock) => {
                self.synchronize(SyncKind::LockGrant, |p| p.lock_issue(lock, plan), overlap);
            }
        }
    }

    /// Issues a synchronization with `issue`, makes what it leaves
    /// outstanding this processor's in-flight synchronization, runs
    /// `overlap` and completes it.
    pub(super) fn synchronize(
        &mut self,
        kind: SyncKind,
        issue: impl FnOnce(&mut Process) -> Outstanding,
        overlap: impl FnOnce(&mut Process),
    ) {
        assert!(
            self.in_flight.is_none(),
            "P{}: a synchronization was issued inside another's overlap body",
            self.me
        );
        let todo = issue(self);
        self.in_flight = Some(InFlightSync { kind, todo: Some(todo) });
        overlap(self);
        self.complete_in_flight(false);
        self.in_flight = None;
    }

    /// Whether the in-flight synchronization's merged fetch covers `page`
    /// and its completion has not run yet.
    pub(super) fn in_flight_covers(&self, page: PageId) -> bool {
        self.in_flight
            .as_ref()
            .and_then(|sync| sync.todo.as_ref())
            .is_some_and(|todo| todo.pages.binary_search(&page).is_ok())
    }

    /// Runs the in-flight synchronization's completion, if it has not run
    /// yet. `first_touch` says who is asking: the fault handler, on the
    /// first access to a page the merged fetch covers (which labels the
    /// waits on the wait board), or [`sync_phase`](Self::sync_phase) after
    /// the overlap body.
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
        let kind = sync.kind;
        let Outstanding { pages, mut responders, piggyback, fetch_expected, deferred, race_vt } =
            todo;
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
        // independent of thread scheduling). Only a barrier has responders.
        // Every reply is this barrier's: a processor requests at one
        // barrier at a time, and this loop consumes all of its replies
        // before the next arrival.
        while !responders.is_empty() {
            let env = self.recv_reply(
                label("a producer's sync-diffs"),
                |m| matches!(m, TmkMessage::SyncDiffs { from, .. } if responders.contains(from)),
            );
            self.clock.observe(env.arrives_at);
            let TmkMessage::SyncDiffs { from, diffs } = env.payload else { unreachable!() };
            responders.retain(|&p| p != from);
            records.extend(diffs);
        }
        // How long the completion actually stalled: with computation in the
        // overlap body, the responses have already arrived and this
        // approaches zero — the split-phase overlap, made measurable.
        let waited = self.clock.now().saturating_sub(before);
        self.stats.sync_wait_ns(waited.as_nanos());
        self.install_records(records, &pages, &deferred, kind, race_vt.as_ref());
    }

    /// Batch write preparation for a phase whose data
    /// is already consistent (the run-time half of a plain `Validate` after
    /// its fetch, and of the producer side of a push loop) — one table-lock
    /// hold for the whole phase.
    ///
    /// This is the paper's `Create_twins` and `Write_enable` in one call
    /// ([`PhasePlan`] says what each kind of written range gets), charged
    /// one protection operation per range.
    pub fn prepare_phase(&mut self, plan: &PhasePlan) {
        let (prep, pages_in_use) = {
            let mut proto = self.node.proto.lock();
            let mut table = self.node.lock_table();
            // Nothing is in flight to finish a deferred page: it stays on
            // the fault path.
            let prep = prep_writes_locked(&mut proto, &mut table, plan, &mut Vec::new());
            (prep, table.pages_in_use())
        };
        self.charge_prep(&prep, pages_in_use);
    }
}

/// Whether installing `record` claims the missing entry `(p, i)`. A base
/// claims every entry its timestamp covers, and a `WRITE_ALL` full page
/// every entry of its creator at or below its own: the whole page is
/// covered, so the earlier modifications are subsumed. A delta claims
/// *every* copy of its interval, not just the first: a duplicated missing
/// entry (however it arose) must not survive the application of its diff,
/// or the leftover phantom would re-fetch this interval after a newer one
/// from the same processor has been applied — and applying the older diff
/// second rolls its bytes back.
pub(super) fn claims(record: &DiffRecord, (p, i): (ProcId, Interval)) -> bool {
    match &record.base {
        Some(vt) => i <= vt.get(p),
        None if record.diff.modified_bytes() == PAGE_SIZE => {
            p == record.proc && i <= record.interval
        }
        None => p == record.proc && i == record.interval,
    }
}
