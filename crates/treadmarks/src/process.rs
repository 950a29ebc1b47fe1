//! The per-processor runtime: checked accesses, the fault handler, locks,
//! barriers, and the Figure-4 run-time primitives.
//!
//! A [`Process`] is one simulated processor's view of the DSM. The
//! application closure passed to [`Dsm::run`](crate::Dsm::run) receives a
//! `&mut Process` and performs every shared access through it:
//!
//! * [`Process::get`] / [`Process::set`] are the *checked software access
//!   path* that replaces the mprotect/SIGSEGV mechanism of the original
//!   system (see `DESIGN.md` for the substitution argument): each access
//!   consults the page table and runs the fault handler on an invalid or
//!   protected page;
//! * [`Process::lock_acquire`] / [`Process::lock_release`] and
//!   [`Process::barrier`] are the synchronization operations that drive
//!   lazy release consistency;
//! * [`Process::fetch_diffs`], [`Process::fetch_diffs_w_sync`],
//!   [`Process::apply_fetch`], [`Process::create_twins`],
//!   [`Process::write_enable`], [`Process::write_protect`] and
//!   [`Process::push_exchange`] are the run-time primitives of Figure 4 of
//!   the paper, out of which the `ctrt` crate composes the compiler-visible
//!   `Validate` / `Validate_w_sync` / `Push` interface.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

use msgnet::{Endpoint, Envelope, NetError, NodeId, Port};
use pagedmem::{AddrRange, EpochProbe, PageFrame, PageId, Protection, SharedAlloc, PAGE_SIZE};
use racecheck::RaceLog;
use sp2model::{CostModel, SharedStats, VirtualClock};

use crate::config::{BarrierTopology, DsmConfig};
use crate::message::{DiffRecord, PageWant, SyncFetchRequest, TmkMessage};
use crate::notice::WriteNotice;
use crate::run::RunShared;
use crate::sharedarray::{Shareable, SharedArray, SharedMatrix};
use crate::state::{CachedDiff, DiffEntry, NodeShared, ProtoState};
use crate::tlb::{NodeGate, Unleased};
use crate::types::{Interval, LockId, ProcId, Vt};

/// The barrier root (the paper assigns the distinguished roles to
/// processor 0; with the flat topology this is the master every arrival
/// goes to, with a tree it is the root of the reduction).
const MASTER: ProcId = 0;

/// The children of `me` in an `arity`-ary barrier tree over `n` processors
/// (node `i`'s children are `i·arity+1 ..= i·arity+arity`, the k-ary heap
/// layout). The flat topology is the degenerate tree of arity `n - 1`:
/// every other processor is a direct child of the master.
fn tree_children(me: ProcId, n: usize, arity: usize) -> Vec<ProcId> {
    let first = me * arity + 1;
    (first..n.min(first.saturating_add(arity))).collect()
}

/// Panic payload used when a processor unwinds because a *peer* panicked
/// (the harness poisons every reply port so processors blocked in a
/// collective do not wait forever). The harness filters these out so the
/// panic it propagates to the caller is the root cause.
pub(crate) struct PeerAbort;

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

/// An in-flight aggregated diff fetch started by [`Process::fetch_diffs`].
///
/// The handle records which responses are outstanding; pass it to
/// [`Process::apply_fetch`] to wait for them and install the diffs. Keeping
/// issue and completion separate lets a caller overlap the fetch latency
/// with local work, which is how the compiler interface hides misses.
#[must_use = "a fetch completes only when passed to Process::apply_fetch"]
#[derive(Debug)]
pub struct FetchHandle {
    /// Outstanding `(responder, request id)` pairs.
    expected: Vec<(ProcId, u64)>,
    /// Every page the fetch was asked to make valid.
    pages: Vec<PageId>,
}

impl FetchHandle {
    /// Number of outstanding response messages.
    pub fn outstanding(&self) -> usize {
        self.expected.len()
    }

    /// The pages the fetch covers.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }
}

/// A lowered description of one compiler-analyzed phase: what must be
/// fetched, how written pages are prepared, and which mappings to pre-load
/// into the software TLB. Built by the `ctrt` crate from `RegularSection`s;
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
    /// `(range, writable)` mappings to pre-load into the software TLB.
    pub warm: Vec<(AddrRange, bool)>,
}

impl PhasePlan {
    /// A plan that only fetches `ranges` (no write preparation, no
    /// warming) — what the bare `fetch_diffs_w_sync` primitive needs.
    pub fn fetch_only(ranges: &[AddrRange]) -> PhasePlan {
        PhasePlan { fetch: ranges.to_vec(), ..PhasePlan::default() }
    }

    /// Whether the plan requests any work at all.
    pub fn is_empty(&self) -> bool {
        self.fetch.is_empty()
            && self.write_twinned.is_empty()
            && self.write_all.is_empty()
            && self.read_write_all.is_empty()
            && self.warm.is_empty()
    }
}

/// Write preparation postponed at issue time because the page still had
/// missing diffs: enabling it early would let the phase read stale bytes
/// through the fast path. The preparation is finished at the completion,
/// after the diffs landed.
#[derive(Debug, Clone, Copy)]
struct DeferredWrite {
    page: PageId,
    /// `true` for `READ&WRITE_ALL` pages (no twin at completion), `false`
    /// for ordinary twinned writes.
    write_all: bool,
}

/// The in-flight half of a split-phase `Validate_w_sync`.
///
/// Returned by [`Process::sync_phase_issue`]: the synchronization operation
/// itself has been performed (the barrier crossed or the lock acquired, with
/// the section page list piggybacked), the diff requests are on the wire,
/// and write preparation plus TLB warming have been done for every page that
/// was already consistent. Pass the handle to
/// [`Process::sync_phase_complete`] to collect the responses, apply them in
/// causal (rank) order and finish the deferred preparation.
///
/// The handle never exposes stale data: pages with outstanding diffs stay
/// invalid until completion, so a premature access simply takes the
/// ordinary fault path (a redundant but correct fetch).
#[must_use = "a split-phase sync completes only when passed to Process::sync_phase_complete"]
#[derive(Debug)]
pub struct PendingSync {
    /// Every page the merged fetch covers.
    pages: Vec<PageId>,
    /// The synchronization ordinal the request rode on (the barrier count
    /// for barrier-merged fetches, the neighbour-sync count for eliminated
    /// boundaries): a completion accepts only responses carrying this
    /// ordinal, so the responses of an abandoned (dropped) handle can never
    /// satisfy a later synchronization's completion.
    seq: u64,
    /// Processors that will answer with a `SyncDiffs` message (barrier).
    responders: HashSet<ProcId>,
    /// Named producers of an *eliminated* barrier that will answer with a
    /// merged data+sync `NeighborAck`. Unlike every other pending kind,
    /// these acks carry the producers' write notices and vector timestamps,
    /// so completing the handle is part of the consistency protocol itself —
    /// a compiled plan always pairs issue with complete.
    neighbor_responders: HashSet<ProcId>,
    /// Diff records already in hand (lock-grant piggyback), applied at
    /// completion together with everything else so causally ordered
    /// same-page diffs land in rank order across messages.
    piggyback: Vec<DiffRecord>,
    /// Outstanding `(responder, request id)` pairs of third-party fetches.
    fetch_expected: Vec<(ProcId, u64)>,
    /// Write preparation postponed until the missing diffs have landed.
    deferred: Vec<DeferredWrite>,
    /// Mappings to (re-)warm at completion.
    warm: Vec<(AddrRange, bool)>,
    /// The synchronization kind a race detected at this completion is
    /// attributed to in its [`racecheck::RaceReport`].
    sync_kind: racecheck::SyncKind,
    /// Race detection only: the pre-acquire vector timestamp of a lock
    /// issue — the open interval's knowledge *before* the granter's
    /// timestamp was merged — used as the creating timestamp of the local
    /// unflushed writes when the grant's diffs are applied. `None` means
    /// the current timestamp is correct at completion time (barrier and
    /// neighbour-sync paths flush the interval at issue, so any local dirty
    /// data at completion was written after the boundary).
    race_vt: Option<Vt>,
}

impl PendingSync {
    /// Number of response messages still outstanding.
    pub fn outstanding(&self) -> usize {
        self.responders.len() + self.neighbor_responders.len() + self.fetch_expected.len()
    }

    /// The pages the merged fetch covers.
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }
}

/// The outcome of a [`Process::push_exchange`].
#[derive(Debug, Clone)]
pub struct PushReceipt {
    /// The address ranges installed by the received pushes, coalesced.
    pub installed: Vec<AddrRange>,
    /// Fast-path mappings warmed for the received data (under the same
    /// table-lock hold as the install).
    pub pages_warmed: usize,
}

/// Counts the maximal runs of consecutive page ids in a sorted list — the
/// number of `mprotect` calls a range-based protection change costs.
fn contiguous_runs(pages: &[PageId]) -> u64 {
    let mut runs = 0u64;
    let mut prev: Option<PageId> = None;
    for &page in pages {
        if prev.is_none_or(|p| p.0 + 1 != page.0) {
            runs += 1;
        }
        prev = Some(page);
    }
    runs
}

/// What [`apply_notices_locked`] did, for cost charging after the hold.
struct NoticeTally {
    recorded: u64,
    invalidation_runs: u64,
}

/// Records incoming write notices under an already-held lock pair: appends
/// them to the notice log, extends the per-page missing lists and
/// invalidates local copies. Duplicate notices are ignored. Costs are
/// charged by the caller from the returned tally (one protection operation
/// per contiguous run of invalidated pages, like the range `mprotect` of
/// the original system).
fn apply_notices_locked(
    proto: &mut ProtoState,
    table: &mut pagedmem::PageTable,
    notices: &[WriteNotice],
) -> NoticeTally {
    let me = proto.me;
    // Bring each `(proc, interval)` group together, groups ascending. The
    // sort is stable, so inside a group the pages stay in arrival order:
    // arrival order decides the invalidation (and hence later fetch)
    // sequence, and sorting the pages too would shift every downstream
    // virtual-time measurement.
    let mut sorted: Vec<WriteNotice> = notices.iter().copied().filter(|n| n.proc != me).collect();
    sorted.sort_by_key(|n| (n.proc, n.interval));
    let mut recorded = 0u64;
    let mut invalidated = Vec::new();
    for group in sorted.chunk_by(|a, b| (a.proc, a.interval) == (b.proc, b.interval)) {
        let (proc, interval) = (group[0].proc, group[0].interval);
        if proto.notice_log.contains(proc, interval) {
            continue;
        }
        // One batch can carry the same notice twice — at a barrier the
        // master concatenates every child's arrival notices, and two
        // children may both have learned a third processor's interval
        // along the lock-grant chain. A duplicated page here would put two
        // copies of `(proc, interval)` on the missing list; the exact-match
        // claim in `install_records` would remove only one, and the
        // surviving phantom entry would later demand-fetch the *old*
        // interval's diff again — re-applying it on top of a newer
        // interval from the same processor and rolling those bytes back.
        // So only a page's first occurrence counts.
        let mut pages = Vec::with_capacity(group.len());
        for n in group {
            if pages.contains(&n.page) {
                continue;
            }
            pages.push(n.page);
            proto.page_missing.entry(n.page).or_default().push((proc, interval));
            match table.protection(n.page) {
                Protection::ReadOnly | Protection::ReadWrite => {
                    table.set_protection(n.page, Protection::Invalid);
                    invalidated.push(n.page);
                }
                Protection::Unmapped | Protection::Invalid => {}
            }
        }
        recorded += pages.len() as u64;
        proto.notice_log.record(proc, interval, pages);
    }
    invalidated.sort_unstable();
    NoticeTally { recorded, invalidation_runs: contiguous_runs(&invalidated) }
}

/// What write preparation did, for cost charging after the hold.
struct PrepTally {
    twinned: u64,
    protect_ranges: u64,
}

/// Write-enables one page of a written section: the `WRITE_ALL` treatment
/// (no twin — the flush ships the whole page) or the ordinary twinned
/// path. Shared by issue-time preparation and the completion's deferred
/// preparation so the two can never diverge. Returns whether a twin was
/// created.
fn enable_written_page(
    proto: &mut ProtoState,
    table: &mut pagedmem::PageTable,
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

/// Prepares a plan's written pages under an already-held lock pair: twin
/// creation and write enabling for twinned writes, the `WRITE_ALL`
/// treatment for fully covered pages of `write_all`/`read_write_all`
/// ranges. With `defer_missing`, pages that still have missing diffs are
/// *not* enabled (that would let the phase read stale bytes through the
/// fast path) but pushed onto `deferred`, to be finished at the completion
/// after the diffs have been applied. `READ&WRITE_ALL` pages additionally
/// never discard their missing diffs when deferring — the application
/// reads the fetched values before overwriting them.
fn prep_writes_locked(
    proto: &mut ProtoState,
    table: &mut pagedmem::PageTable,
    plan: &PhasePlan,
    defer_missing: bool,
    deferred: &mut Vec<DeferredWrite>,
) -> PrepTally {
    let mut twinned = 0u64;
    for range in &plan.write_twinned {
        for page in range.pages() {
            if defer_missing && proto.page_missing.contains_key(&page) {
                deferred.push(DeferredWrite { page, write_all: false });
                continue;
            }
            twinned += u64::from(enable_written_page(proto, table, page, false));
        }
    }
    for (ranges, reads_first) in [(&plan.write_all, false), (&plan.read_write_all, true)] {
        for range in ranges {
            for page in range.pages() {
                // Only fully covered pages get the WRITE_ALL treatment;
                // partially covered boundary pages keep the ordinary fault
                // path (twin + fetch), because discarding their missing
                // diffs would lose remote writes to the uncovered bytes.
                let fully_covered = range.start() <= page.base() && page.end() <= range.end();
                if !fully_covered {
                    continue;
                }
                if reads_first && defer_missing && proto.page_missing.contains_key(&page) {
                    deferred.push(DeferredWrite { page, write_all: true });
                    continue;
                }
                if !reads_first {
                    proto.page_missing.remove(&page);
                }
                enable_written_page(proto, table, page, true);
            }
        }
    }
    let protect_ranges =
        (plan.write_twinned.len() + plan.write_all.len() + plan.read_write_all.len()) as u64;
    PrepTally { twinned, protect_ranges }
}

/// Pre-loads the software TLB for every already-consistent page of the warm
/// list, under an already-held table lock. Invalid pages are skipped (they
/// fault — and refill — lazily). Only the mappings are cached; each takes
/// its lease at its first access.
fn warm_ranges_locked(
    node: &mut Unleased<'_>,
    table: &pagedmem::PageTable,
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

/// Answers the piggybacked fetch requests of other processors from the
/// local diff cache, under an already-held lock pair: for each request, the
/// diffs this node created for the requested pages newer than the
/// requester's advertised timestamp. Returns the per-requester record
/// batches plus the number of distinct pages *examined* (requested pages
/// this node holds diffs for — non-owned pages cost one index probe, not a
/// range scan) and full pages materialised. The whole synchronization
/// point is served in one pass, so each examined page is charged once no
/// matter how many requests name it.
fn serve_requests_locked(
    proto: &ProtoState,
    table: &pagedmem::PageTable,
    requests: &[SyncFetchRequest],
    me: ProcId,
) -> (Vec<(ProcId, Vec<DiffRecord>)>, usize, usize) {
    let mut out = Vec::new();
    let mut examined = Vec::new();
    let mut materialised = 0usize;
    for req in requests {
        if req.proc == me {
            continue;
        }
        let (records, full_pages) =
            proto.diffs_for_pages_after_counted(&req.pages, &req.vt, table, &mut examined);
        materialised += full_pages;
        if records.is_empty() {
            continue;
        }
        out.push((req.proc, records));
    }
    (out, distinct_pages(examined), materialised)
}

/// How many different pages `pages` names.
fn distinct_pages(mut pages: Vec<PageId>) -> usize {
    pages.sort_unstable();
    pages.dedup();
    pages.len()
}

/// Builds the per-producer [`PageWant`] lists for everything still missing
/// on `pages` (minus `in_hand`), under an already-held proto lock.
///
/// Intervals above the node's GC horizon are wanted individually; intervals
/// at or below it are folded into one base request per page (the producer
/// may be trimming them concurrently in real time, and the response's byte
/// count — which virtual time is derived from — must not depend on that
/// race, so the requester fixes the shape: one full page).
fn wants_for_pages_locked(
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

/// The processors that will answer this node's own piggybacked request with
/// a `SyncDiffs` message: every other processor with a recorded
/// modification of a requested page above the advertised timestamp sends
/// exactly one.
fn responders_locked(proto: &ProtoState, pages: &[PageId], vt: &Vt) -> HashSet<ProcId> {
    debug_assert!(pages.is_sorted(), "every caller sorts its page list");
    let mut responders = HashSet::new();
    for (proc, _, modified) in proto.notice_log.records_after(vt) {
        if proc != proto.me
            && !responders.contains(&proc)
            && modified.iter().any(|page| pages.binary_search(page).is_ok())
        {
            responders.insert(proc);
        }
    }
    responders
}

/// Builds the barrier departure of each child of this node, under an
/// already-held proto lock and against the now complete notice log: a
/// child's subtree-merged arrival timestamp says exactly which notices its
/// subtree still misses. The request set is the same for everybody, so the
/// departures *share* it — the root allocates it once and every interior
/// node hands on the allocation it received.
fn child_departures(
    proto: &ProtoState,
    children: &[(ProcId, Vt)],
    gc_horizon: &Vt,
    sync_requests: &Arc<[SyncFetchRequest]>,
) -> Vec<(ProcId, TmkMessage)> {
    children
        .iter()
        .map(|(proc, vt)| {
            let msg = TmkMessage::BarrierDeparture {
                global_vt: proto.last_global_vt.clone(),
                gc_horizon: gc_horizon.clone(),
                notices: proto.notice_log.notices_after(vt),
                sync_requests: Arc::clone(sync_requests),
            };
            (*proc, msg)
        })
        .collect()
}

/// One simulated processor of a DSM run.
///
/// Created by [`Dsm::run`](crate::Dsm::run), one per node thread. All
/// shared-memory access, synchronization and compiler-interface primitives
/// go through this handle; every operation is charged to the node's virtual
/// clock and counted in the shared statistics.
pub struct Process {
    endpoint: Arc<Endpoint<TmkMessage>>,
    /// The software TLB with the frames it holds on lease, and the only way
    /// to the node's `proto` and `table` locks (which returns the leases
    /// first — see [`NodeGate`]).
    node: NodeGate,
    /// The node's statistics counters (shared with its protocol server).
    stats: SharedStats,
    cost: CostModel,
    /// The run-wide host state: race log, wait board, watchdog deadline and
    /// SPMD once-cells.
    run: Arc<RunShared>,
    clock: VirtualClock,
    heap: SharedAlloc,
    /// Reply-port messages received while waiting for something else.
    pending: VecDeque<Envelope<TmkMessage>>,
    next_req_id: u64,
    /// Lock-free view of the table's protection epoch.
    epoch: EpochProbe,
    /// How many barriers this processor has entered. Barriers are globally
    /// matched, so the count names the same synchronization point on every
    /// processor; it sequences `SyncDiffs` responses (see
    /// [`TmkMessage::SyncDiffs`]).
    barrier_seq: u64,
    /// How many *eliminated* barriers (neighbour syncs) this processor has
    /// entered. Compiled plans are SPMD-uniform, so the count names the same
    /// phase boundary on every participant; it sequences `NeighborReady`/
    /// `NeighborAck` pairs the same way `barrier_seq` sequences `SyncDiffs`.
    nsync_seq: u64,
    /// How many [`spmd_once`](Process::spmd_once) calls this processor has
    /// made. Every processor makes the same sequence of calls (the SPMD
    /// allocation rule), so the count names the same cell on all of them.
    once_seq: usize,
    /// How the barrier exchange is structured (from [`DsmConfig::barrier`]).
    barrier: BarrierTopology,
}

impl Process {
    pub(crate) fn new(
        endpoint: Arc<Endpoint<TmkMessage>>,
        shared: Arc<NodeShared>,
        config: &DsmConfig,
    ) -> Process {
        Process {
            endpoint,
            stats: shared.stats.clone(),
            cost: shared.cost.clone(),
            run: Arc::clone(&shared.run),
            epoch: shared.epoch.clone(),
            node: NodeGate::new(shared),
            clock: VirtualClock::new(),
            heap: SharedAlloc::with_capacity(config.heap_capacity),
            pending: VecDeque::new(),
            next_req_id: 1,
            barrier_seq: 0,
            nsync_seq: 0,
            once_seq: 0,
            barrier: config.barrier.resolve(config.nprocs, &config.cost_model),
        }
    }

    /// This processor's id, `0..nprocs`.
    pub fn proc_id(&self) -> ProcId {
        self.endpoint.id().index()
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.endpoint.nodes()
    }

    /// The processor's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The node's statistics counters (shared with its protocol server).
    /// Every snapshot read through here is exact: the TLB hits the access
    /// path counts locally are added in first.
    pub fn stats(&self) -> &SharedStats {
        self.node.publish_hits();
        &self.stats
    }

    /// The cluster cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Number of per-interval entries currently in this node's diff cache —
    /// the quantity the barrier garbage-collection horizon bounds.
    pub fn diff_cache_entries(&mut self) -> usize {
        self.node.unleased().proto().diff_cache.values().map(BTreeMap::len).sum()
    }

    /// Number of `(processor, interval)` records in this node's notice log.
    pub fn notice_log_records(&mut self) -> usize {
        self.node.unleased().proto().notice_log.interval_count()
    }

    /// The garbage-collection horizon distributed with the last barrier
    /// departure: own diffs at or below its component for this node, and
    /// notices it covers, have been dropped. Always covered by the last
    /// global vector timestamp.
    pub fn gc_horizon(&mut self) -> Vt {
        self.node.unleased().proto().gc_horizon.clone()
    }

    /// Charges `cost` of application computation to this processor.
    pub fn compute(&mut self, cost: sp2model::VirtualTime) {
        self.clock.advance_compute(cost);
    }

    /// Computes a value once per run and shares it between the processors:
    /// the first processor (host thread) to make its `k`-th `spmd_once`
    /// call runs `init`, every other processor's `k`-th call blocks until
    /// that finishes and receives the same `Arc`.
    ///
    /// This is the run's *compile time*, not its run time: the call charges
    /// no virtual time, counts in no statistic and sends no message, so a
    /// run that shares a value this way is bit-identical to one computing
    /// it on every processor — provided `init` is a pure function of
    /// SPMD-uniform inputs, which is the caller's obligation. Like shared
    /// allocations, `spmd_once` calls must occur in the same order on every
    /// processor. `init` cannot reach the `Process` (it is mutably borrowed
    /// for the call), so a cell can never wait on the protocol.
    ///
    /// If `init` panics the cell stays empty and the next processor to
    /// arrive runs its own `init`, so a deterministic failure surfaces as
    /// the same application panic on every processor.
    ///
    /// # Panics
    ///
    /// Panics, naming the cell's index and both type names, if another
    /// processor's `k`-th call was made with a different `T`.
    pub fn spmd_once<T>(&mut self, init: impl FnOnce() -> T) -> Arc<T>
    where
        T: Send + Sync + 'static,
    {
        let k = self.once_seq;
        self.once_seq += 1;
        // The call may block on another processor's `init`.
        self.node.return_leases();
        self.run.spmd_once(self.proc_id(), k, init)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates a shared array of `len` elements, page aligned.
    ///
    /// Every processor performs the same allocation sequence (SPMD style),
    /// so the array lives at the same address on every node. Page alignment
    /// mirrors what real TreadMarks programs arrange to minimise false
    /// sharing.
    ///
    /// # Panics
    ///
    /// Panics if the shared heap is exhausted.
    pub fn alloc_array<T: Shareable>(&mut self, len: usize) -> SharedArray<T> {
        let range =
            self.heap.alloc_array_page_aligned::<T>(len.max(1)).expect("shared heap exhausted");
        SharedArray::new(range.start(), len)
    }

    /// Allocates a shared `rows x cols` matrix in column-major layout.
    ///
    /// # Panics
    ///
    /// Panics if the shared heap is exhausted.
    pub fn alloc_matrix<T: Shareable>(&mut self, rows: usize, cols: usize) -> SharedMatrix<T> {
        let array = self.alloc_array::<T>(rows * cols);
        SharedMatrix::new(array, rows, cols)
    }

    // ------------------------------------------------------------------
    // The checked access path (software TLB fast path + faulting slow path)
    // ------------------------------------------------------------------

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

    /// Ranged-path read of one element whose bytes straddle a page
    /// boundary (only possible for views over unaligned bases).
    fn read_straddling<T: Shareable>(&mut self, addr: pagedmem::Addr) -> T {
        let mut buf = [0u8; 8];
        self.read_into(AddrRange::new(addr, T::BYTES), &mut buf[..T::BYTES]);
        T::load(&buf)
    }

    /// Ranged-path write of one page-straddling element.
    fn write_straddling<T: Shareable>(&mut self, addr: pagedmem::Addr, value: T) {
        let mut buf = [0u8; 8];
        value.store(&mut buf[..T::BYTES]);
        self.write_from(AddrRange::new(addr, T::BYTES), &buf[..T::BYTES]);
    }

    /// Reads element `index` of `array` through the DSM consistency
    /// protocol, faulting and fetching diffs if the page is not valid.
    pub fn get<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize) -> T {
        let addr = array.addr_of(index);
        let offset = addr.page_offset();
        if offset + T::BYTES <= PAGE_SIZE {
            self.page_op(addr.page(), false, |frame| T::load(&frame.page.as_slice()[offset..]))
        } else {
            self.read_straddling(addr)
        }
    }

    /// Writes element `index` of `array`, faulting (twin creation, write
    /// enable) if the page is not writable.
    pub fn set<T: Shareable>(&mut self, array: &SharedArray<T>, index: usize, value: T) {
        let addr = array.addr_of(index);
        let offset = addr.page_offset();
        if offset + T::BYTES <= PAGE_SIZE {
            self.page_op(addr.page(), true, |frame| {
                value.store(&mut frame.page.as_mut_slice()[offset..]);
            });
        } else {
            self.write_straddling(addr, value);
        }
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
            let fit = ((PAGE_SIZE - offset) / T::BYTES).min(elems.end - idx);
            if fit == 0 {
                out[filled] = self.read_straddling(addr);
                idx += 1;
                filled += 1;
                continue;
            }
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
            if fit == 0 {
                self.write_straddling(addr, values[consumed]);
                idx += 1;
                consumed += 1;
                continue;
            }
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

    /// Writes `values` over row `row`, columns `cols`, of a column-major
    /// `matrix` — a strided access (one element per column) with the
    /// protection check batched per page run rather than per element.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds or `values` does not have
    /// exactly `cols.len()` elements.
    pub fn update_row<T: Shareable>(
        &mut self,
        matrix: &SharedMatrix<T>,
        row: usize,
        cols: std::ops::Range<usize>,
        values: &[T],
    ) {
        assert_eq!(values.len(), cols.len(), "values must cover the column range exactly");
        let stride = matrix.rows() * T::BYTES;
        let array = *matrix.array();
        let mut col = cols.start;
        let mut consumed = 0;
        while col < cols.end {
            let addr = array.addr_of(matrix.index(row, col));
            let offset = addr.page_offset();
            if offset + T::BYTES > PAGE_SIZE {
                self.write_straddling(addr, values[consumed]);
                col += 1;
                consumed += 1;
                continue;
            }
            // Consecutive columns whose element for this row lands on the
            // same page form one run served by a single checked access.
            let mut run = 1;
            while col + run < cols.end
                && stride > 0
                && offset + run * stride + T::BYTES <= PAGE_SIZE
            {
                run += 1;
            }
            self.page_op(addr.page(), true, |frame| {
                let bytes = frame.page.as_mut_slice();
                for (k, value) in values[consumed..consumed + run].iter().enumerate() {
                    value.store(&mut bytes[offset + k * stride..]);
                }
            });
            col += run;
            consumed += run;
        }
    }

    /// Reads the bytes of `range` through the consistency protocol.
    pub fn read_range(&mut self, range: AddrRange) -> Vec<u8> {
        let mut buf = vec![0u8; range.len()];
        self.read_into(range, &mut buf);
        buf
    }

    /// Writes `data` at `range` through the consistency protocol.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly `range.len()` bytes.
    pub fn write_range(&mut self, range: AddrRange, data: &[u8]) {
        assert_eq!(data.len(), range.len(), "data must fill the range exactly");
        self.write_from(range, data);
    }

    /// Reads `range` into `buf`, resolving faults as the checked bulk read
    /// reports them. Warm cost: one table lock for the whole range.
    fn read_into(&mut self, range: AddrRange, buf: &mut [u8]) {
        self.ensure_valid(range, false);
        loop {
            let fault = match self.node.unleased().table().read_checked(range, buf) {
                Ok(()) => return,
                Err(fault) => fault,
            };
            self.resolve_fault(fault.page, false);
        }
    }

    /// Writes `data` over `range`, resolving faults as the checked bulk
    /// write reports them. Warm cost: one table lock for the whole range.
    fn write_from(&mut self, range: AddrRange, data: &[u8]) {
        self.ensure_valid(range, true);
        loop {
            let fault = match self.node.unleased().table().write_checked(range, data) {
                Ok(()) => return,
                Err(fault) => fault,
            };
            self.resolve_fault(fault.page, true);
        }
    }

    /// Resolves faults so that every page of `range` allows the access.
    /// Allocation free: pages are visited directly, and pages with a warm
    /// TLB mapping are skipped without consulting the table.
    fn ensure_valid(&mut self, range: AddrRange, is_write: bool) {
        for page in range.pages() {
            let now = self.epoch.current();
            if self.node.is_cached(page, is_write, now) {
                continue;
            }
            self.slow_fill(page, is_write);
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

    // ------------------------------------------------------------------
    // Interval bookkeeping
    // ------------------------------------------------------------------

    /// Ends the current interval: encodes a diff for every dirty page,
    /// records the corresponding write notices locally, write-protects the
    /// pages and advances this processor's component of the vector
    /// timestamp. A no-op when nothing was written (empty diffs are elided
    /// and produce no notices).
    fn flush_interval(&mut self) {
        let node = self.node.unleased();
        let mut proto = node.proto();
        let mut table = node.table();
        let dirty = table.dirty_pages();
        if dirty.is_empty() {
            proto.write_all_pages.clear();
            return;
        }
        let interval = proto.current_interval;
        let me = proto.me;
        // Happens-before rank of this interval: the timestamp it flushes
        // with. Receivers use it to apply same-page diffs in causal order.
        let vt_after = {
            let mut vt_after = proto.vt.clone();
            vt_after.advance(me, interval);
            vt_after
        };
        let rank = vt_after.sum();
        // The full creating timestamp is kept (and later shipped) only when
        // the race detector is on; otherwise the cache stores the scalar
        // rank alone and the wire format is byte-identical to a
        // detector-less build.
        let creating_vt = self.run.race.as_ref().map(|_| vt_after);
        let mut flushed_pages = Vec::new();
        let mut delta_pages = 0usize;
        // One protection operation per contiguous run of dirty pages: the
        // original system write-protects whole ranges with single mprotect
        // calls, so the flush is charged per run, not per page.
        let protect_ops = contiguous_runs(&dirty);
        for page in dirty {
            let entry = if proto.write_all_pages.contains(&page) {
                Some(DiffEntry::FullPage)
            } else {
                match table.create_diff(page) {
                    // Write-enabled but never actually modified (or only
                    // remote diffs landed): elide the empty diff entirely.
                    Some(diff) if diff.is_empty() => None,
                    Some(diff) => {
                        delta_pages += 1;
                        Some(DiffEntry::Delta(diff))
                    }
                    // Dirty without a twin outside WRITE_ALL should not
                    // happen; fall back to shipping the whole page.
                    None => Some(DiffEntry::FullPage),
                }
            };
            table.clear_dirty(page);
            table.drop_twin(page);
            table.set_protection(page, Protection::ReadOnly);
            if let Some(entry) = entry {
                proto
                    .diff_cache
                    .entry(page)
                    .or_default()
                    .insert(interval, CachedDiff { entry, rank, vt: creating_vt.clone() });
                flushed_pages.push(page);
            }
        }
        let pages_in_use = table.pages_in_use();
        drop(table);
        if !flushed_pages.is_empty() {
            self.stats.diffs_created(delta_pages as u64);
            proto.notice_log.record(me, interval, flushed_pages);
            proto.vt.advance(me, interval);
            proto.current_interval += 1;
            // The interval the acquire snapshot described is closed; writes
            // of the next interval are ordered after everything known now.
            proto.acquire_race_vt = None;
        }
        proto.write_all_pages.clear();
        drop(proto);
        self.stats.protection_ops(protect_ops);
        self.clock.advance(self.cost.diff_create_cost(delta_pages));
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(protect_ops));
    }

    /// Charges the costs of an [`apply_notices_locked`] tally after the
    /// hold has been released.
    fn charge_notices(&mut self, tally: &NoticeTally, pages_in_use: usize) {
        self.stats.write_notices(tally.recorded);
        self.stats.protection_ops(tally.invalidation_runs);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(tally.invalidation_runs));
    }

    /// Charges the costs of a [`prep_writes_locked`] tally after the hold
    /// has been released.
    fn charge_prep(&mut self, prep: &PrepTally, pages_in_use: usize) {
        self.stats.twins_created(prep.twinned);
        self.clock.advance(self.cost.twin_cost(prep.twinned as usize));
        self.stats.protection_ops(prep.protect_ranges);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(prep.protect_ranges));
    }

    /// Builds the vector timestamp advertised by a `Validate_w_sync`
    /// request for `pages`: the processor's own timestamp, lowered so that
    /// every still-missing diff of a requested page lies above it.
    ///
    /// Missing intervals at or below the GC horizon are *not* named at
    /// synchronization points: their producer may be trimming them
    /// concurrently, and whether a delta or the consolidated base came back
    /// would then depend on a real-time race (breaking virtual-time
    /// determinism). They stay missing and are fetched through the explicit
    /// base-request path of [`TmkMessage::DiffRequest`] on first use.
    fn sync_vt(&mut self, pages: &[PageId]) -> Vt {
        let proto = self.node.unleased().proto();
        let mut vt = proto.vt.clone();
        for page in pages {
            if let Some(missing) = proto.page_missing.get(page) {
                for &(proc, interval) in missing {
                    if interval > proto.gc_horizon.get(proc) {
                        vt.limit(proc, interval.saturating_sub(1));
                    }
                }
            }
        }
        vt
    }

    // ------------------------------------------------------------------
    // Reply-port reception
    // ------------------------------------------------------------------

    /// Receives the next reply-port message satisfying `pred`, queueing any
    /// other message (out-of-band barrier arrivals, early pushes) for later
    /// in arrival order.
    ///
    /// `what` names the awaited message on the run's wait board, and every
    /// block is bounded by the configured watchdog: if the deadline passes
    /// with nothing received, the processor panics with a dump of the whole
    /// cluster's wait state — a protocol deadlock becomes a failing test
    /// instead of a hang, under any fault schedule.
    fn recv_reply(
        &mut self,
        what: &str,
        pred: impl Fn(&TmkMessage) -> bool,
    ) -> Envelope<TmkMessage> {
        if let Some(pos) = self.pending.iter().position(|e| pred(&e.payload)) {
            return self.pending.remove(pos).expect("position is in range");
        }
        // About to block on another thread: it may need this node's server,
        // which may need a frame.
        self.node.return_leases();
        let me = self.proc_id();
        self.run.board.wait(me, false, what.to_string());
        loop {
            let env = match self.endpoint.recv_timeout(Port::Reply, self.run.watchdog) {
                Ok(env) => env,
                Err(NetError::Timeout) => panic!(
                    "watchdog: P{me} waited more than {:?} for {what} — the protocol is wedged\n{}",
                    self.run.watchdog,
                    self.run.board.dump(),
                ),
                Err(err) => panic!("the cluster outlives its compute threads: {err}"),
            };
            if matches!(env.payload, TmkMessage::Shutdown) {
                // A peer panicked and the harness poisoned the reply ports;
                // unwind with the marker so the harness reports the peer's
                // panic, not this secondary abort.
                std::panic::panic_any(PeerAbort);
            }
            if pred(&env.payload) {
                self.run.board.done(me, false);
                return env;
            }
            self.pending.push_back(env);
        }
    }

    // ------------------------------------------------------------------
    // Figure-4 primitives: aggregated diff fetches
    // ------------------------------------------------------------------

    /// Issues the aggregated diff requests needed to make every page of
    /// `ranges` consistent, without waiting for the responses.
    ///
    /// All wanted `(page, interval)` pairs are grouped by the processor that
    /// created the modification and sent as **one request message per
    /// destination** — the aggregation that distinguishes `Validate` from a
    /// sequence of page faults. Pages with no missing diffs cost nothing.
    pub fn fetch_diffs(&mut self, ranges: &[AddrRange]) -> FetchHandle {
        let mut pages: Vec<PageId> = ranges.iter().flat_map(AddrRange::pages).collect();
        pages.sort_unstable();
        pages.dedup();
        let per_proc = {
            let proto = self.node.unleased().proto();
            wants_for_pages_locked(&proto, &pages, &HashSet::new())
        };
        let me = self.proc_id();
        let mut expected = Vec::with_capacity(per_proc.len());
        for (proc, wants) in per_proc {
            debug_assert_ne!(proc, me, "a processor never misses its own diffs");
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            let msg = TmkMessage::DiffRequest { req_id, requester: me, wants };
            let bytes = msg.wire_bytes();
            self.endpoint.send(NodeId(proc), Port::Request, msg, bytes, self.clock.now(), true);
            expected.push((proc, req_id));
        }
        FetchHandle { expected, pages }
    }

    /// Waits for the responses of a [`fetch_diffs`](Self::fetch_diffs),
    /// applies the received diffs in causal (rank) order and revalidates
    /// the fetched pages — all under a single table-lock hold.
    pub fn apply_fetch(&mut self, handle: FetchHandle) {
        let mut records = Vec::new();
        for (_, req_id) in &handle.expected {
            let want = *req_id;
            let env = self.recv_reply(
                "a diff response (fetch)",
                |m| matches!(m, TmkMessage::DiffResponse { req_id, .. } if *req_id == want),
            );
            self.clock.observe(env.arrives_at);
            if let TmkMessage::DiffResponse { diffs, .. } = env.payload {
                records.extend(diffs);
            }
        }
        self.install_records(records, &handle.pages, &[], &[], racecheck::SyncKind::Fetch, None);
    }

    /// The single-hold installation step shared by every path that applies
    /// diffs: rank-sorts the whole batch (across *all* messages of the
    /// synchronization point, so causally ordered same-page diffs apply in
    /// happens-before order no matter how they were delivered), drops
    /// records that are no longer missing (re-delivery is harmless),
    /// applies the survivors through the page table's batch entry point,
    /// revalidates `pages`, finishes deferred write preparation and warms
    /// the TLB — one global-lock acquisition for the entire step. Returns
    /// the number of pages warmed.
    /// When the race detector is on, the claimed batch is checked against
    /// concurrent local history *before* it is applied (applying would
    /// update the twins the local unflushed write set is read from);
    /// `sync_kind` labels any report and `race_vt` overrides the creating
    /// timestamp attributed to the local unflushed writes (the lock path's
    /// pre-acquire snapshot — see [`PendingSync::race_vt`]).
    fn install_records(
        &mut self,
        mut records: Vec<DiffRecord>,
        pages: &[PageId],
        deferred: &[DeferredWrite],
        warm: &[(AddrRange, bool)],
        sync_kind: racecheck::SyncKind,
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
            let claimed = if record.base || record.diff.modified_bytes() == PAGE_SIZE {
                let before = missing.len();
                missing.retain(|&(p, i)| p != record.proc || i > record.interval);
                before - missing.len()
            } else {
                // Remove *every* copy, not just the first: a duplicated
                // missing entry (however it arose) must not survive the
                // application of its diff, or the leftover phantom would
                // re-fetch this interval after a newer one from the same
                // processor has been applied — and applying the older diff
                // second rolls its bytes back.
                let before = missing.len();
                missing.retain(|&(p, i)| p != record.proc || i != record.interval);
                before - missing.len()
            };
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
                // `apply_diff` may have freshly mapped the frame read-write;
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
        self.clock.advance(self.cost.diff_apply_cost(apply_bytes));
        self.stats.twins_created(deferred_twins);
        self.clock.advance(self.cost.twin_cost(deferred_twins as usize));
        self.stats.protection_ops(deferred_runs);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(deferred_runs));
        warmed
    }

    // ------------------------------------------------------------------
    // Split-phase synchronization (the run-time half of Validate_w_sync)
    // ------------------------------------------------------------------

    /// Merges an aggregated fetch of `ranges` with a synchronization
    /// operation (the blocking form of `Validate_w_sync`): issue and
    /// complete back to back.
    ///
    /// For [`SyncOp::Lock`], the page list rides on the acquire request and
    /// the last releaser piggybacks its diffs on the grant; diffs owned by
    /// third processors are fetched in aggregated messages, and the whole
    /// batch — piggyback plus third-party responses — is applied in one
    /// rank-sorted pass. For [`SyncOp::Barrier`], the request rides on the
    /// barrier arrival, is redistributed with the departure, and every
    /// producer answers with at most one aggregated `SyncDiffs` message.
    pub fn fetch_diffs_w_sync(&mut self, sync: SyncOp, ranges: &[AddrRange]) {
        let pending = self.sync_phase_issue(sync, &PhasePlan::fetch_only(ranges));
        self.sync_phase_complete(pending);
    }

    /// The issue half of a split-phase `Validate_w_sync`: performs the
    /// synchronization operation with the plan's page list piggybacked,
    /// sends every diff request, prepares and warms the pages that are
    /// already consistent, and returns without waiting for the data.
    ///
    /// All per-synchronization protocol work on this side — write-notice
    /// application, serving the other processors' piggybacked requests,
    /// write preparation and TLB warming — happens under a **single**
    /// page-table-lock hold.
    ///
    /// The caller may run computation that does not touch the still-missing
    /// pages before calling [`sync_phase_complete`](Self::sync_phase_complete),
    /// overlapping the fetch latency. Touching a pending page early is safe
    /// (it faults and fetches redundantly) — a pending handle never exposes
    /// stale data.
    pub fn sync_phase_issue(&mut self, sync: SyncOp, plan: &PhasePlan) -> PendingSync {
        match sync {
            SyncOp::Barrier => self.barrier_issue(plan),
            SyncOp::Lock(lock) => self.lock_issue(lock, plan),
        }
    }

    /// The completion half of a split-phase `Validate_w_sync`: waits for
    /// every outstanding response, applies the whole batch in causal (rank)
    /// order, finishes deferred write preparation and re-warms the TLB —
    /// again under a single page-table-lock hold. Returns the number of
    /// pages warmed.
    pub fn sync_phase_complete(&mut self, pending: PendingSync) -> usize {
        let PendingSync {
            pages,
            seq,
            mut responders,
            mut neighbor_responders,
            piggyback,
            fetch_expected,
            deferred,
            warm,
            sync_kind,
            race_vt,
        } = pending;
        if pages.is_empty()
            && responders.is_empty()
            && neighbor_responders.is_empty()
            && piggyback.is_empty()
            && fetch_expected.is_empty()
            && deferred.is_empty()
            && warm.is_empty()
        {
            return 0;
        }
        let before = self.clock.now();
        let mut records = piggyback;
        for (_, req_id) in &fetch_expected {
            let want = *req_id;
            let env = self.recv_reply(
                "a diff response (sync completion)",
                |m| matches!(m, TmkMessage::DiffResponse { req_id, .. } if *req_id == want),
            );
            self.clock.observe(env.arrives_at);
            if let TmkMessage::DiffResponse { diffs, .. } = env.payload {
                records.extend(diffs);
            }
        }
        // Observe every response before applying anything (see
        // `barrier_issue` for why observe-all-then-advance is what keeps
        // virtual time independent of thread scheduling). Responses are
        // accepted only at this barrier's ordinal; older ones — responses
        // to a handle the caller dropped instead of completing — are
        // consumed and discarded here so they can never be mistaken for
        // (or park behind) this barrier's data.
        while !responders.is_empty() {
            let env = self.recv_reply("a producer's barrier sync-diffs", |m| {
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
        // The merged data+sync answers of an eliminated barrier: each named
        // producer's ack carries its vector timestamp, its write notices and
        // its diffs on one message. As with `SyncDiffs`, acks are accepted
        // only at this boundary's ordinal; older ones (from a dropped
        // handle) are consumed and discarded.
        let mut acked: Vec<(ProcId, Vt, Vec<WriteNotice>)> = Vec::new();
        while !neighbor_responders.is_empty() {
            let env = self.recv_reply("a neighbour-sync ack", |m| {
                matches!(m, TmkMessage::NeighborAck { from, seq: got, .. }
                    if *got <= seq && neighbor_responders.contains(from))
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::NeighborAck { from, seq: got, vt, notices, diffs } = env.payload else {
                unreachable!()
            };
            if got < seq {
                continue;
            }
            neighbor_responders.remove(&from);
            acked.push((from, vt, notices));
            records.extend(diffs);
        }
        // How long the completion actually stalled: with computation between
        // issue and complete, the responses have already arrived and this
        // approaches zero — the split-phase overlap, made measurable.
        let waited = self.clock.now().saturating_sub(before);
        self.stats.sync_wait_ns(waited.as_nanos());
        // Incorporate the producers' consistency information before the
        // data: the acks' notices populate the missing lists the record
        // installation claims against, and the timestamp merge records the
        // acquire (the consumer now knows everything each producer knew at
        // the boundary). Processor order keeps the pass deterministic.
        if !acked.is_empty() {
            acked.sort_by_key(|(from, _, _)| *from);
            let (tally, pages_in_use) = {
                let node = self.node.unleased();
                let mut proto = node.proto();
                let mut table = node.table();
                let mut all_notices = Vec::new();
                for (_, vt, notices) in &acked {
                    proto.vt.merge(vt);
                    all_notices.extend(notices.iter().copied());
                }
                let tally = apply_notices_locked(&mut proto, &mut table, &all_notices);
                (tally, table.pages_in_use())
            };
            self.charge_notices(&tally, pages_in_use);
        }
        self.install_records(records, &pages, &deferred, &warm, sync_kind, race_vt.as_ref())
    }

    /// Batch write preparation and TLB warming for a phase whose data is
    /// already consistent (the run-time half of a plain `Validate` after
    /// its fetch, and of the producer side of a push loop) — one table-lock
    /// hold for the whole phase. Returns the number of pages warmed.
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

    // ------------------------------------------------------------------
    // Figure-4 primitives: write preparation
    // ------------------------------------------------------------------

    /// Creates twins for every page of `ranges` that does not have one,
    /// in one batch (the cost of the copies is charged, but no faults are
    /// taken).
    pub fn create_twins(&mut self, ranges: &[AddrRange]) {
        let node = self.node.unleased();
        let proto = node.proto();
        let mut table = node.table();
        let mut twinned = 0u64;
        for range in ranges {
            for page in range.pages() {
                if proto.write_all_pages.contains(&page) {
                    continue;
                }
                if table.make_twin(page) {
                    twinned += 1;
                }
            }
        }
        drop(table);
        drop(proto);
        self.stats.twins_created(twinned);
        self.clock.advance(self.cost.twin_cost(twinned as usize));
    }

    /// Write-enables every page of `ranges` without taking faults, putting
    /// them on the dirty list. One protection operation is charged per
    /// contiguous range (the aggregation a single `mprotect` call gives the
    /// original system).
    ///
    /// With `write_all` the compiler asserts that the application overwrites
    /// every byte of the ranges before the next release: no twin is kept,
    /// no old contents are fetched, and any missing diffs for fully covered
    /// pages are discarded (the flush then ships the whole page). The
    /// `WRITE_ALL` treatment is applied only to pages a range covers
    /// *entirely*; partially covered boundary pages are left untouched and
    /// take the ordinary fault path (twin + fetch), because discarding
    /// their missing diffs would lose remote writes to the uncovered bytes.
    pub fn write_enable(&mut self, ranges: &[AddrRange], write_all: bool) {
        let node = self.node.unleased();
        let mut proto = node.proto();
        let mut table = node.table();
        let pages_in_use = table.pages_in_use();
        let mut twinned = 0u64;
        for range in ranges {
            for page in range.pages() {
                if write_all {
                    let fully_covered = range.start() <= page.base() && page.end() <= range.end();
                    if !fully_covered {
                        continue;
                    }
                    proto.write_all_pages.insert(page);
                    proto.page_missing.remove(&page);
                    table.frame_or_map(page);
                } else if !proto.write_all_pages.contains(&page) && !table.has_twin(page) {
                    table.make_twin(page);
                    twinned += 1;
                }
                table.set_protection(page, Protection::ReadWrite);
                table.mark_dirty(page);
            }
        }
        drop(table);
        drop(proto);
        self.stats.twins_created(twinned);
        self.clock.advance(self.cost.twin_cost(twinned as usize));
        self.stats.protection_ops(ranges.len() as u64);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(ranges.len() as u64));
    }

    /// Write-protects every mapped page of `ranges`, one protection
    /// operation per contiguous range.
    pub fn write_protect(&mut self, ranges: &[AddrRange]) {
        let mut table = self.node.unleased().table();
        let pages_in_use = table.pages_in_use();
        for range in ranges {
            for page in range.pages() {
                if table.is_mapped(page) && table.protection(page) == Protection::ReadWrite {
                    table.set_protection(page, Protection::ReadOnly);
                }
            }
        }
        drop(table);
        self.stats.protection_ops(ranges.len() as u64);
        self.clock.advance(self.cost.mprotect_cost(pages_in_use).scale(ranges.len() as u64));
    }

    // ------------------------------------------------------------------
    // Figure-4 primitives: push
    // ------------------------------------------------------------------

    /// Point-to-point data exchange replacing a barrier in a fully
    /// analyzable phase: the contents of each range in `sends` travel
    /// directly to their consumer, and one `PushData` message is awaited
    /// from every processor in `recv_from`. Received bytes are installed in
    /// place — no twins, diffs, write notices or invalidations — and the
    /// protection epoch is bumped once (the install replaces contents
    /// wholesale, so cached mappings must revalidate).
    ///
    /// The exchange is batched like the barrier protocol: *one* table-lock
    /// hold reads every outgoing chunk, and after all pushes have arrived
    /// *one* hold installs everything and re-warms the TLB for the received
    /// ranges, whose coalesced extent the [`PushReceipt`] reports.
    ///
    /// # Panics
    ///
    /// Panics if a destination or source is out of range or is this
    /// processor itself.
    pub fn push_exchange(
        &mut self,
        sends: &[(ProcId, Vec<AddrRange>)],
        recv_from: &[ProcId],
    ) -> PushReceipt {
        let me = self.proc_id();
        if !sends.is_empty() {
            // One hold for every outgoing chunk read.
            type Outgoing = Vec<(ProcId, Vec<(AddrRange, Vec<u8>)>)>;
            let outgoing: Outgoing = {
                let table = self.node.unleased().table();
                sends
                    .iter()
                    .map(|&(dest, ref ranges)| {
                        assert_ne!(dest, me, "a processor does not push to itself");
                        let chunks = AddrRange::coalesce(ranges.clone())
                            .into_iter()
                            .map(|r| (r, table.read_range(r)))
                            .collect();
                        (dest, chunks)
                    })
                    .collect()
            };
            for (dest, chunks) in outgoing {
                let msg = TmkMessage::PushData { from: me, chunks };
                let bytes = msg.wire_bytes();
                self.endpoint.send(NodeId(dest), Port::Reply, msg, bytes, self.clock.now(), true);
            }
        }
        let mut outstanding: HashSet<ProcId> = recv_from.iter().copied().collect();
        assert!(!outstanding.contains(&me), "a processor does not receive its own push");
        // Observe every push before installing anything, then install the
        // whole batch under one hold.
        let mut received: Vec<(ProcId, AddrRange, Vec<u8>)> = Vec::new();
        while !outstanding.is_empty() {
            let env = self.recv_reply(
                "a peer's pushed data",
                |m| matches!(m, TmkMessage::PushData { from, .. } if outstanding.contains(from)),
            );
            self.clock.observe(env.arrives_at);
            let TmkMessage::PushData { from, chunks } = env.payload else { unreachable!() };
            outstanding.remove(&from);
            received.extend(chunks.into_iter().map(|(r, d)| (from, r, d)));
        }
        if received.is_empty() {
            return PushReceipt { installed: Vec::new(), pages_warmed: 0 };
        }
        let installed = AddrRange::coalesce(received.iter().map(|&(_, r, _)| r).collect());
        let warm: Vec<(AddrRange, bool)> = installed.iter().map(|&r| (r, false)).collect();
        let pages_warmed = {
            // The detector needs protocol state (lock order: proto before
            // table); the detector-off install path takes only the table
            // lock, exactly as before.
            let mut node = self.node.unleased();
            let race_proto = self.run.race.as_ref().map(|log| (log, node.proto()));
            let mut table = node.table();
            if let Some((log, proto)) = &race_proto {
                detect_push_races_locked(&self.stats, log, proto, &table, &received);
            }
            for (_, range, data) in received {
                // Mirrored into any twin: pushed bytes are installed data,
                // not local modifications, and must not surface in a later
                // diff (or be race-flagged against the next push).
                table.install_bytes(range.start(), &data);
            }
            table.bump_epoch();
            warm_ranges_locked(&mut node, &table, &warm)
        };
        PushReceipt { installed, pages_warmed }
    }

    // ------------------------------------------------------------------
    // Locks
    // ------------------------------------------------------------------

    /// Acquires `lock`, receiving the write notices (and invalidations)
    /// required by lazy release consistency.
    ///
    /// # Panics
    ///
    /// Panics if this processor already holds the lock.
    pub fn lock_acquire(&mut self, lock: LockId) {
        let pending = self.lock_issue(lock, &PhasePlan::default());
        self.sync_phase_complete(pending);
    }

    /// Lock side of [`sync_phase_issue`](Self::sync_phase_issue): the plan's
    /// page list rides on the acquire request, the grant's piggybacked diffs
    /// are kept in hand (not yet applied), and one aggregated request per
    /// third-party producer goes out for whatever the releaser did not hold.
    /// Everything is applied together, rank-sorted, at the completion.
    fn lock_issue(&mut self, lock: LockId, plan: &PhasePlan) -> PendingSync {
        let mut pages: Vec<PageId> = plan.fetch.iter().flat_map(AddrRange::pages).collect();
        pages.sort_unstable();
        pages.dedup();
        self.stats.lock_acquires(1);
        let me = self.proc_id();
        let (manager, request_vt) = {
            let mut proto = self.node.unleased().proto();
            assert!(!proto.held_locks.contains(&lock), "lock {lock} acquired re-entrantly");
            // Mark the acquire as in flight *before* the request leaves:
            // our server thread must queue (not grant) forwarded requests
            // for this lock that the manager ordered after ours, until the
            // grant has been consumed.
            proto.pending_acquires.insert(lock);
            *proto.lock_requests_sent.entry(lock).or_insert(0) += 1;
            (ProtoState::lock_manager(lock, proto.nprocs), proto.vt.clone())
        };
        // The open interval's knowledge before the acquire merges the
        // granter's timestamp: writes made so far in this interval are
        // concurrent with everything this timestamp does not cover. The
        // snapshot rides the pending sync for the grant's own piggyback
        // *and* is retained in the protocol state for the rest of the open
        // interval, so a pre-acquire write still compares as concurrent
        // when the racing diff only arrives on a later demand fetch.
        let race_vt = self.run.race.as_ref().map(|_| request_vt.clone());
        if let Some(snapshot) = &race_vt {
            let mut proto = self.node.unleased().proto();
            if proto.acquire_race_vt.is_none() {
                proto.acquire_race_vt = Some(snapshot.clone());
            }
        }
        let request_vt = if pages.is_empty() { request_vt } else { self.sync_vt(&pages) };
        let msg = TmkMessage::LockAcquireRequest {
            lock,
            requester: me,
            vt: request_vt,
            sync_pages: pages.clone(),
        };
        let bytes = msg.wire_bytes();
        self.endpoint.send(NodeId(manager), Port::Request, msg, bytes, self.clock.now(), true);
        let env = self.recv_reply(
            "a lock grant",
            |m| matches!(m, TmkMessage::LockGrant { lock: l, .. } if *l == lock),
        );
        self.clock.observe(env.arrives_at);
        let TmkMessage::LockGrant { granter_vt, notices, piggyback, .. } = env.payload else {
            unreachable!()
        };
        // One lock hold for the entire acquire-side protocol step.
        let mut deferred = Vec::new();
        let (tally, prep, wants, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let tally = apply_notices_locked(&mut proto, &mut table, &notices);
            proto.vt.merge(&granter_vt);
            proto.pending_acquires.remove(&lock);
            proto.held_locks.insert(lock);
            // Third-party fetch: everything still missing for the requested
            // pages that the grant's piggyback does not already carry.
            let in_hand: HashSet<(PageId, ProcId, Interval)> =
                piggyback.iter().map(|r| (r.page, r.proc, r.interval)).collect();
            let wants = wants_for_pages_locked(&proto, &pages, &in_hand);
            let prep = prep_writes_locked(&mut proto, &mut table, plan, true, &mut deferred);
            // Warm what is already consistent so the overlapped computation
            // between issue and complete runs lock-free.
            warm_ranges_locked(&mut node, &table, &plan.warm);
            (tally, prep, wants, table.pages_in_use())
        };
        self.charge_notices(&tally, pages_in_use);
        self.charge_prep(&prep, pages_in_use);
        let mut fetch_expected = Vec::with_capacity(wants.len());
        for (proc, want) in wants {
            debug_assert_ne!(proc, me, "a processor never misses its own diffs");
            let req_id = self.next_req_id;
            self.next_req_id += 1;
            let msg = TmkMessage::DiffRequest { req_id, requester: me, wants: want };
            let bytes = msg.wire_bytes();
            self.endpoint.send(NodeId(proc), Port::Request, msg, bytes, self.clock.now(), true);
            fetch_expected.push((proc, req_id));
        }
        PendingSync {
            pages,
            seq: self.barrier_seq,
            responders: HashSet::new(),
            neighbor_responders: HashSet::new(),
            piggyback,
            fetch_expected,
            deferred,
            warm: plan.warm.clone(),
            sync_kind: racecheck::SyncKind::LockGrant,
            race_vt,
        }
    }

    /// Releases `lock`, ending the current interval and granting the lock
    /// to any queued requester (carrying the write notices they miss).
    ///
    /// # Panics
    ///
    /// Panics if this processor does not hold the lock.
    pub fn lock_release(&mut self, lock: LockId) {
        self.flush_interval();
        let node = self.node.unleased();
        let pending = {
            let mut proto = node.proto();
            assert!(proto.held_locks.remove(&lock), "releasing a lock that is not held");
            proto.pending_lock_requests.remove(&lock).unwrap_or_default()
        };
        for req in pending {
            node.grant(&self.endpoint, lock, &req, req.arrived_at.max(self.clock.now()));
        }
    }

    // ------------------------------------------------------------------
    // Barriers
    // ------------------------------------------------------------------

    /// Global barrier: ends the current interval, exchanges write notices
    /// through the barrier master (processor 0) and leaves every processor
    /// with the merged global vector timestamp.
    pub fn barrier(&mut self) {
        let pending = self.barrier_issue(&PhasePlan::default());
        self.sync_phase_complete(pending);
    }

    /// Barrier side of [`sync_phase_issue`](Self::sync_phase_issue):
    /// flushes the interval, crosses the barrier with the plan's page list
    /// piggybacked on the arrival, and then performs the *entire*
    /// post-departure protocol step — write-notice application, serving
    /// every other processor's piggybacked request, write preparation, TLB
    /// warming and the garbage-collection trim — under a single
    /// page-table-lock hold before returning with the pending handle.
    ///
    /// The exchange runs over the configured [`BarrierTopology`]: notices,
    /// vector timestamps, applied timestamps and piggybacked fetch requests
    /// merge up the reduction tree, and the global timestamp, GC horizon
    /// and full request set fan back down. The flat topology is the
    /// degenerate tree (every processor a child of the master) costed like
    /// stock TreadMarks: interrupt-path messages and the O(n) master
    /// serialization. Tree hops instead travel on the polled path — every
    /// participant is blocked in the barrier with its receive pre-posted —
    /// and charge a per-child hop service, so the critical path is
    /// O(arity · depth).
    fn barrier_issue(&mut self, plan: &PhasePlan) -> PendingSync {
        self.flush_interval();
        self.stats.barriers(1);
        self.barrier_seq += 1;
        let seq = self.barrier_seq;
        let mut pages: Vec<PageId> = plan.fetch.iter().flat_map(AddrRange::pages).collect();
        pages.sort_unstable();
        pages.dedup();
        let n = self.nprocs();
        let me = self.proc_id();
        let mut deferred = Vec::new();
        if n == 1 {
            // No peers, nothing to exchange: prepare and warm locally (one
            // hold); the GC horizon is the local timestamp itself.
            let (prep, trimmed, pages_in_use) = {
                let mut node = self.node.unleased();
                let mut proto = node.proto();
                let mut table = node.table();
                let prep = prep_writes_locked(&mut proto, &mut table, plan, true, &mut deferred);
                warm_ranges_locked(&mut node, &table, &plan.warm);
                proto.last_global_vt = proto.vt.clone();
                let horizon = proto.vt.clone();
                let trimmed = proto.gc_trim(&horizon);
                (prep, trimmed, table.pages_in_use())
            };
            self.charge_prep(&prep, pages_in_use);
            self.stats.gc_trimmed_diffs(trimmed.0);
            self.stats.gc_trimmed_notices(trimmed.1);
            self.clock.advance(self.cost.barrier_local_cost());
            return PendingSync {
                pages,
                seq,
                responders: HashSet::new(),
                neighbor_responders: HashSet::new(),
                piggyback: Vec::new(),
                fetch_expected: Vec::new(),
                deferred,
                warm: plan.warm.clone(),
                sync_kind: racecheck::SyncKind::Barrier,
                race_vt: None,
            };
        }
        let (arity, flat) = match self.barrier {
            BarrierTopology::FlatMaster => ((n - 1).max(1), true),
            BarrierTopology::Tree { arity } => (arity.max(1), false),
            // Resolved to a concrete tree in `Process::new`.
            BarrierTopology::Adaptive => unreachable!("adaptive topology is resolved at startup"),
        };
        let children = tree_children(me, n, arity);
        let interrupt = flat;
        let my_request = if pages.is_empty() {
            None
        } else {
            Some(SyncFetchRequest { proc: me, vt: self.sync_vt(&pages), pages: pages.clone() })
        };
        let my_sync_vt = my_request.as_ref().map(|r| r.vt.clone());

        // --- Reduction: gather the whole subtree's arrivals. Collect (and
        // observe) every arrival before charging any processing cost:
        // observation is a max and processing an addition, and only
        // observe-all-then-advance is independent of the real
        // thread-scheduling order the arrivals come in.
        let mut sync_requests: Vec<SyncFetchRequest> = my_request.into_iter().collect();
        let mut child_arrivals: Vec<(ProcId, Vt)> = Vec::with_capacity(children.len());
        let mut child_notices = Vec::new();
        let mut applied_min: Option<Vt> = None;
        for _ in 0..children.len() {
            let env = self.recv_reply("a child's barrier arrival", |m| {
                matches!(m, TmkMessage::BarrierArrival { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierArrival { proc, vt, applied_vt, notices, sync_requests: reqs } =
                env.payload
            else {
                unreachable!()
            };
            child_notices.extend(notices);
            sync_requests.extend(reqs);
            match &mut applied_min {
                Some(min) => min.merge_min(&applied_vt),
                None => applied_min = Some(applied_vt),
            }
            child_arrivals.push((proc, vt));
        }
        child_arrivals.sort_by_key(|&(proc, _)| proc);
        if flat {
            if me == MASTER {
                self.clock.advance(self.cost.barrier_master_cost(n));
            }
        } else if !children.is_empty() {
            self.clock.advance(self.cost.barrier_hop_cost(children.len()));
        }

        // --- Non-root: fold the subtree into local state under one hold,
        // send the merged arrival up, and wait for the departure.
        let (all_notices, sync_requests, distributed, departures_to) = if me == MASTER {
            // Serve and redistribute the piggybacked requests in processor
            // order, not arrival order: every processor then answers them
            // at deterministic virtual times, keeping runs reproducible.
            sync_requests.sort_by_key(|r| r.proc);
            (child_notices, Arc::from(sync_requests), None, child_arrivals)
        } else {
            let parent = (me - 1) / arity;
            let (arrival, tally, pages_in_use) = {
                let node = self.node.unleased();
                let mut proto = node.proto();
                let mut table = node.table();
                let tally = apply_notices_locked(&mut proto, &mut table, &child_notices);
                for (_, vt) in &child_arrivals {
                    proto.vt.merge(vt);
                }
                let mut applied = proto.applied_vt(&table);
                if let Some(min) = &applied_min {
                    applied.merge_min(min);
                }
                let msg = TmkMessage::BarrierArrival {
                    proc: me,
                    vt: proto.vt.clone(),
                    applied_vt: applied,
                    notices: proto.notice_log.notices_after(&proto.last_global_vt),
                    sync_requests: std::mem::take(&mut sync_requests),
                };
                (msg, tally, table.pages_in_use())
            };
            self.charge_notices(&tally, pages_in_use);
            let bytes = arrival.wire_bytes();
            self.endpoint.send(
                NodeId(parent),
                Port::Reply,
                arrival,
                bytes,
                self.clock.now(),
                interrupt,
            );
            let env = self.recv_reply("the barrier departure", |m| {
                matches!(m, TmkMessage::BarrierDeparture { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierDeparture { global_vt, gc_horizon, notices, sync_requests } =
                env.payload
            else {
                unreachable!()
            };
            (notices, sync_requests, Some((global_vt, gc_horizon)), child_arrivals)
        };

        // --- One lock hold for the whole post-exchange protocol step. ---
        let (
            tally,
            prep,
            departures,
            serve,
            scanned,
            materialised,
            responders,
            trimmed,
            pages_in_use,
        ) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let tally = apply_notices_locked(&mut proto, &mut table, &all_notices);
            // The global timestamp and GC horizon: distributed by the
            // parent below the root; completed at the root itself, whose
            // own applied timestamp closes the component-wise minimum over
            // all processors.
            let gc_horizon = match distributed {
                Some((global_vt, gc_horizon)) => {
                    proto.vt.merge(&global_vt);
                    proto.last_global_vt = global_vt;
                    gc_horizon
                }
                None => {
                    for (_, vt) in &departures_to {
                        proto.vt.merge(vt);
                    }
                    proto.last_global_vt = proto.vt.clone();
                    let mut horizon = proto.applied_vt(&table);
                    if let Some(min) = &applied_min {
                        horizon.merge_min(min);
                    }
                    horizon
                }
            };
            let departures = child_departures(&proto, &departures_to, &gc_horizon, &sync_requests);
            let (serve, scanned, materialised) =
                serve_requests_locked(&proto, &table, &sync_requests, me);
            let responders = match &my_sync_vt {
                Some(vt) => responders_locked(&proto, &pages, vt),
                None => HashSet::new(),
            };
            let prep = prep_writes_locked(&mut proto, &mut table, plan, true, &mut deferred);
            warm_ranges_locked(&mut node, &table, &plan.warm);
            // Trim last, after every request of this synchronization point
            // has been served from the pre-trim state. The horizon can
            // never exceed the global VT in any component (applied
            // timestamps are bounded by real ones), which the adversarial
            // GC tests pin.
            debug_assert!(
                proto.last_global_vt.covers(&gc_horizon),
                "the GC horizon must stay at or below the global VT"
            );
            let trimmed = proto.gc_trim(&gc_horizon);
            (
                tally,
                prep,
                departures,
                serve,
                scanned,
                materialised,
                responders,
                trimmed,
                table.pages_in_use(),
            )
        };
        self.charge_notices(&tally, pages_in_use);
        self.stats.gc_trimmed_diffs(trimmed.0);
        self.stats.gc_trimmed_notices(trimmed.1);
        if !flat && !departures.is_empty() {
            // Re-fanning the departure down costs one hop service at root
            // and interior nodes alike, plus the send-occupancy gap for
            // every extra child copy.
            self.clock.advance(self.cost.barrier_hop_cost(1));
            self.clock.advance(self.cost.broadcast_extra_cost(departures.len() - 1));
        }
        for (proc, msg) in departures {
            let bytes = msg.wire_bytes();
            self.endpoint.send(NodeId(proc), Port::Reply, msg, bytes, self.clock.now(), interrupt);
        }
        self.charge_prep(&prep, pages_in_use);
        // One pass over the diff cache answers every request of the
        // synchronization point: the scan is charged for the union of the
        // requested pages, materialised full pages for their encoding.
        self.clock.advance(self.cost.sync_merge_scan_cost(scanned));
        self.clock.advance(self.cost.diff_create_cost(materialised));
        for (proc, records) in serve {
            let msg = TmkMessage::SyncDiffs { from: me, seq, diffs: records };
            let bytes = msg.wire_bytes();
            self.endpoint.send(NodeId(proc), Port::Reply, msg, bytes, self.clock.now(), true);
        }
        self.clock.advance(self.cost.barrier_local_cost());
        PendingSync {
            pages,
            seq,
            responders,
            neighbor_responders: HashSet::new(),
            piggyback: Vec::new(),
            fetch_expected: Vec::new(),
            deferred,
            warm: plan.warm.clone(),
            sync_kind: racecheck::SyncKind::Barrier,
            race_vt: None,
        }
    }

    // ------------------------------------------------------------------
    // Eliminated barriers (the run-time half of compiled neighbour syncs)
    // ------------------------------------------------------------------

    /// The run-time primitive underneath a compiler-**eliminated** barrier:
    /// a departure-free phase boundary where only the named `producers` and
    /// `consumers` exchange. Write notices, vector timestamps and diffs ride
    /// one merged data+sync message per producer/consumer pair
    /// ([`TmkMessage::NeighborAck`]); there is no reduction tree, no
    /// departure
    /// and no global vector-timestamp advance — and therefore no
    /// garbage-collection horizon movement, which is why a compiled plan
    /// keeps a real barrier wherever intervals would otherwise accumulate
    /// unboundedly.
    ///
    /// The exchange is a ready/ack handshake. This processor first flushes
    /// its interval and sends one `NeighborReady` (its advertised timestamp
    /// plus the plan's page list) to every named producer, then blocks until
    /// each named *consumer*'s ready has arrived and answers them all — the
    /// wait is what stops a producer from racing into the next phase and
    /// answering a ready with data from the consumer's future, so the values
    /// every processor reads are exactly the barrier ones. Because every
    /// participant sends its readys *before* blocking, the handshake cannot
    /// deadlock. The producers' acks are awaited by
    /// [`sync_phase_complete`](Self::sync_phase_complete), so computation on
    /// already-local data overlaps the data movement exactly like a
    /// split-phase `Validate_w_sync`.
    ///
    /// **Contract (stronger than a barrier-merged fetch):** the legality of
    /// the elimination is established by the compiler — the only
    /// happens-before edges the replaced barrier enforced are the ones
    /// between the named producers and consumers (see `DESIGN.md` §6) — and
    /// the returned handle *must* be completed: the acks carry consistency
    /// information (notices and timestamps), not just data. All participants
    /// must name each other consistently, like any collective.
    ///
    /// # Panics
    ///
    /// Panics if this processor names itself as a producer or consumer.
    pub fn neighbor_sync_issue(
        &mut self,
        producers: &[ProcId],
        consumers: &[ProcId],
        plan: &PhasePlan,
    ) -> PendingSync {
        self.flush_interval();
        self.stats.barriers_eliminated(1);
        self.nsync_seq += 1;
        let seq = self.nsync_seq;
        let me = self.proc_id();
        let mut pages: Vec<PageId> = plan.fetch.iter().flat_map(AddrRange::pages).collect();
        pages.sort_unstable();
        pages.dedup();
        // The request half: one ready per named producer, on the polled
        // path (the producer is blocked at — or headed for — the same
        // boundary with its receive pre-posted).
        let vt = self.sync_vt(&pages);
        for &producer in producers {
            assert_ne!(producer, me, "a processor does not synchronize with itself");
            let msg =
                TmkMessage::NeighborReady { from: me, seq, vt: vt.clone(), pages: pages.clone() };
            let bytes = msg.wire_bytes();
            self.endpoint.send(NodeId(producer), Port::Reply, msg, bytes, self.clock.now(), false);
        }
        // Collect (and observe) every consumer's ready before serving any:
        // observation is a max and serving an addition, so only
        // observe-all-then-advance keeps virtual time independent of the
        // real thread-scheduling order the readys arrive in.
        let mut waiting: HashSet<ProcId> = consumers.iter().copied().collect();
        assert!(!waiting.contains(&me), "a processor does not synchronize with itself");
        let mut readys: Vec<(ProcId, Vt, Vec<PageId>)> = Vec::new();
        while !waiting.is_empty() {
            let env = self.recv_reply("a consumer's neighbour-sync ready", |m| {
                matches!(m, TmkMessage::NeighborReady { from, seq: got, .. }
                    if *got == seq && waiting.contains(from))
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::NeighborReady { from, vt, pages, .. } = env.payload else {
                unreachable!()
            };
            waiting.remove(&from);
            readys.push((from, vt, pages));
        }
        // Serve in processor order, not arrival order, so every ack leaves
        // at a deterministic virtual time.
        readys.sort_by_key(|&(from, _, _)| from);
        let mut deferred = Vec::new();
        let (acks, prep, examined, materialised, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let mut acks = Vec::new();
            let mut examined = Vec::new();
            let mut materialised = 0usize;
            for (from, ready_vt, ready_pages) in &readys {
                let (diffs, full_pages) = proto.diffs_for_pages_after_counted(
                    ready_pages,
                    ready_vt,
                    &table,
                    &mut examined,
                );
                materialised += full_pages;
                let msg = TmkMessage::NeighborAck {
                    from: me,
                    seq,
                    vt: proto.vt.clone(),
                    notices: proto.notice_log.notices_after(ready_vt),
                    diffs,
                };
                acks.push((*from, msg));
            }
            let prep = prep_writes_locked(&mut proto, &mut table, plan, true, &mut deferred);
            warm_ranges_locked(&mut node, &table, &plan.warm);
            (acks, prep, distinct_pages(examined), materialised, table.pages_in_use())
        };
        self.charge_prep(&prep, pages_in_use);
        if !readys.is_empty() {
            // Consuming the pre-posted readys costs one hop service per
            // consumer, like merging child arrivals at a tree-barrier node.
            self.clock.advance(self.cost.barrier_hop_cost(readys.len()));
        }
        self.clock.advance(self.cost.sync_merge_scan_cost(examined));
        self.clock.advance(self.cost.diff_create_cost(materialised));
        for (dest, msg) in acks {
            let bytes = msg.wire_bytes();
            self.stats.merged_sync_msgs(1);
            self.endpoint.send(NodeId(dest), Port::Reply, msg, bytes, self.clock.now(), false);
        }
        PendingSync {
            pages,
            seq,
            responders: HashSet::new(),
            neighbor_responders: producers.iter().copied().collect(),
            piggyback: Vec::new(),
            fetch_expected: Vec::new(),
            deferred,
            warm: plan.warm.clone(),
            sync_kind: racecheck::SyncKind::NeighborAck,
            race_vt: None,
        }
    }

    /// The blocking form of an eliminated barrier: issue and complete back
    /// to back. See [`neighbor_sync_issue`](Self::neighbor_sync_issue).
    pub fn neighbor_sync(&mut self, producers: &[ProcId], consumers: &[ProcId], plan: &PhasePlan) {
        let pending = self.neighbor_sync_issue(producers, consumers, plan);
        self.sync_phase_complete(pending);
    }
}

/// Counts and logs one detected race (panicking the run in fail-fast mode,
/// via [`RaceLog::record`]).
fn record_race(stats: &SharedStats, log: &RaceLog, report: racecheck::RaceReport) {
    stats.races_detected(1);
    log.record(report);
}

/// The race detector's apply-point pass, run under the already-held
/// proto+table lock pair and *before* the claimed batch is applied
/// (applying updates the twins the local unflushed write set is read from),
/// so detection adds **zero** lock acquisitions.
///
/// Two interval writes race exactly when their creating vector timestamps
/// are [concurrent](Vt::concurrent) and their word-write sets overlap — the
/// multiple-writer protocol makes legitimate concurrent diffs word-disjoint,
/// so overlap is the precise false-sharing/race discriminator. Each incoming
/// record is compared against (a) the other incoming records of the batch
/// (so a reader that never wrote still observes a producer/producer race),
/// (b) this node's own cached interval diffs and (c) its unflushed twin
/// delta, whose creating timestamp is the current one advanced into the open
/// interval (`race_vt` overrides the base for the lock path, which merges
/// the granter's timestamp before installing).
///
/// Applications involving garbage-collected history are undecidable rather
/// than safe: a consolidated base has no single creating timestamp, and an
/// incoming delta whose creator had not seen this node's trimmed intervals
/// (`vt[me] < through`) cannot be ordered against them. Both are counted as
/// `races_window_trimmed` instead of silently ignored.
fn detect_races_locked(
    stats: &SharedStats,
    log: &RaceLog,
    proto: &ProtoState,
    table: &pagedmem::PageTable,
    applicable: &[DiffRecord],
    sync_kind: racecheck::SyncKind,
    race_vt: Option<&Vt>,
) {
    use racecheck::{overlap, RaceAccess, RaceReport};
    let me = proto.me;
    // Creating timestamp attributed to the open interval's unflushed
    // writes: the caller's pre-acquire snapshot when one rides the pending
    // sync (the grant path), else the snapshot retained since the open
    // interval's first acquire (a later demand fetch — the merged current
    // timestamp would wrongly order pre-acquire writes after the granter's
    // history), else the timestamp the interval would flush with now.
    let local_vt = {
        let mut vt =
            race_vt.or(proto.acquire_race_vt.as_ref()).cloned().unwrap_or_else(|| proto.vt.clone());
        vt.advance(me, proto.current_interval);
        vt
    };
    let full_page = || vec![(0u32, PAGE_SIZE as u32)];
    for (idx, record) in applicable.iter().enumerate() {
        if record.base {
            // A consolidated base folds the creator's intervals at or
            // below `record.interval` with no creating timestamps left to
            // compare. The protocol guarantees the fold is already covered
            // by this node's view (the GC horizon is the minimum of every
            // node's *applied* timestamp, and an unapplied racing interval
            // on a mapped frame pins it — see `ProtoState::applied_vt`),
            // which orders all local writes after the folded history:
            // decidably race-free. The counter guards that invariant — a
            // base whose fold is *not* covered, landing where local write
            // evidence exists, is an undecidable window and is counted
            // rather than silently dropped.
            //
            // Only records at or below the creator's horizon are trimmed
            // history; an above-horizon base is the served-current-copy
            // fallback for an interval that never recorded a diff, whose
            // owed interval diffs still travel (and are checked)
            // individually.
            if record.interval <= proto.gc_horizon.get(record.proc)
                && local_vt.get(record.proc) < record.interval
            {
                let local_partner =
                    proto.diff_cache.get(&record.page).is_some_and(|m| !m.is_empty())
                        || proto.trimmed.contains_key(&record.page)
                        || table.has_twin(record.page);
                if local_partner {
                    stats.races_window_trimmed(1);
                }
            }
            continue;
        }
        let Some(vq) = &record.vt else { continue };
        let incoming = record.diff.modified_ranges();
        if incoming.is_empty() {
            continue;
        }
        // (a) Against the later incoming records of the same batch.
        for other in &applicable[idx + 1..] {
            if other.page != record.page || other.base {
                continue;
            }
            let Some(vo) = &other.vt else { continue };
            if !vq.concurrent(vo) {
                continue;
            }
            let words = overlap(&incoming, &other.diff.modified_ranges());
            if !words.is_empty() {
                record_race(
                    stats,
                    log,
                    RaceReport::new(
                        record.page,
                        words,
                        RaceAccess { proc: record.proc, interval: record.interval },
                        RaceAccess { proc: other.proc, interval: other.interval },
                        me,
                        sync_kind,
                    ),
                );
            }
        }
        // An incoming diff whose creator had not seen this node's own
        // *trimmed* intervals needs no check here: a local interval folds
        // only once every node has applied it, and whichever node created
        // this record checked it against that interval — still live in its
        // cache, pinned by this node's then-unapplied state — when the
        // interval arrived there. The symmetric comparison already ran.
        //
        // (b) Against this node's own cached interval diffs.
        if let Some(own) = proto.diff_cache.get(&record.page) {
            for (&interval, cached) in own {
                let Some(vm) = &cached.vt else { continue };
                if !vm.concurrent(vq) {
                    continue;
                }
                let own_ranges = match &cached.entry {
                    DiffEntry::Delta(diff) => diff.modified_ranges(),
                    DiffEntry::FullPage => full_page(),
                };
                let words = overlap(&incoming, &own_ranges);
                if !words.is_empty() {
                    record_race(
                        stats,
                        log,
                        RaceReport::new(
                            record.page,
                            words,
                            RaceAccess { proc: me, interval },
                            RaceAccess { proc: record.proc, interval: record.interval },
                            me,
                            sync_kind,
                        ),
                    );
                }
            }
        }
        // (c) Against the unflushed writes of the open interval.
        if !local_vt.concurrent(vq) {
            continue;
        }
        let dirty = table.frame(record.page).map(|f| f.lock().dirty).unwrap_or(false);
        let local_ranges = if proto.write_all_pages.contains(&record.page) && dirty {
            Some(full_page())
        } else if dirty && table.has_twin(record.page) {
            table.create_diff(record.page).map(|d| d.modified_ranges())
        } else {
            None
        };
        if let Some(local_ranges) = local_ranges {
            let words = overlap(&incoming, &local_ranges);
            if !words.is_empty() {
                record_race(
                    stats,
                    log,
                    RaceReport::new(
                        record.page,
                        words,
                        RaceAccess { proc: me, interval: proto.current_interval },
                        RaceAccess { proc: record.proc, interval: record.interval },
                        me,
                        sync_kind,
                    ),
                );
            }
        }
    }
}

/// The race detector's pass over a push install, under the held proto+table
/// lock pair and before the raw bytes land.
///
/// A push carries no consistency metadata at all — the compiler's
/// section analysis is the proof that the pushed region and every
/// receiver-side write are disjoint. The detector checks exactly that
/// proof obligation: pushed bytes overlapping this node's unflushed twin
/// delta (or a page it claimed as `WRITE_ALL`) are a race between the
/// sender's current interval and the receiver's open one. Pushes name no
/// interval on the wire, so the sender side of the report carries
/// interval 0.
fn detect_push_races_locked(
    stats: &SharedStats,
    log: &RaceLog,
    proto: &ProtoState,
    table: &pagedmem::PageTable,
    received: &[(ProcId, AddrRange, Vec<u8>)],
) {
    use racecheck::{overlap, RaceAccess, RaceReport, SyncKind};
    let me = proto.me;
    for &(from, range, _) in received {
        for page in range.pages() {
            let dirty = table.frame(page).map(|f| f.lock().dirty).unwrap_or(false);
            if !dirty {
                continue;
            }
            let local_ranges = if proto.write_all_pages.contains(&page) {
                vec![(0u32, PAGE_SIZE as u32)]
            } else if table.has_twin(page) {
                match table.create_diff(page) {
                    Some(diff) => diff.modified_ranges(),
                    None => continue,
                }
            } else {
                continue;
            };
            // The pushed extent clipped to this page, page-relative.
            let start =
                range.start().as_usize().max(page.base().as_usize()) - page.base().as_usize();
            let end = range.end().as_usize().min(page.end().as_usize()) - page.base().as_usize();
            let words = overlap(&local_ranges, &[(start as u32, end as u32)]);
            if !words.is_empty() {
                record_race(
                    stats,
                    log,
                    RaceReport::new(
                        page,
                        words,
                        RaceAccess { proc: me, interval: proto.current_interval },
                        RaceAccess { proc: from, interval: 0 },
                        me,
                        SyncKind::Push,
                    ),
                );
            }
        }
    }
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("proc_id", &self.proc_id())
            .field("nprocs", &self.nprocs())
            .field("now", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `apply_notices_locked` as it was when it grouped through a map of
    /// vectors and deduplicated each group through a hash set, kept
    /// verbatim: the walk the replacement must reproduce.
    fn apply_notices_grouped(
        proto: &mut ProtoState,
        table: &mut pagedmem::PageTable,
        notices: &[WriteNotice],
    ) -> NoticeTally {
        let me = proto.me;
        let mut grouped: BTreeMap<(ProcId, Interval), Vec<PageId>> = BTreeMap::new();
        for n in notices {
            if n.proc == me {
                continue;
            }
            grouped.entry((n.proc, n.interval)).or_default().push(n.page);
        }
        let mut recorded = 0u64;
        let mut invalidated = Vec::new();
        for ((proc, interval), mut pages) in grouped {
            let mut seen = HashSet::with_capacity(pages.len());
            pages.retain(|page| seen.insert(*page));
            if !proto.notice_log.record(proc, interval, pages.clone()) {
                continue;
            }
            recorded += pages.len() as u64;
            for page in pages {
                proto.page_missing.entry(page).or_default().push((proc, interval));
                match table.protection(page) {
                    Protection::ReadOnly | Protection::ReadWrite => {
                        table.set_protection(page, Protection::Invalid);
                        invalidated.push(page);
                    }
                    Protection::Unmapped | Protection::Invalid => {}
                }
            }
        }
        invalidated.sort_unstable();
        NoticeTally { recorded, invalidation_runs: contiguous_runs(&invalidated) }
    }

    const NPROCS: usize = 5;
    const PAGES: usize = 12;

    /// Node 2 of five with pages in every protection state and one record
    /// already in its log.
    fn node() -> (ProtoState, pagedmem::PageTable) {
        let mut proto = ProtoState::new(2, NPROCS);
        let mut table = pagedmem::PageTable::new();
        for page in 0..PAGES {
            let protection = match page % 4 {
                0 => Protection::ReadOnly,
                1 => Protection::ReadWrite,
                2 => Protection::Invalid,
                _ => continue,
            };
            table.map_zeroed(PageId(page), protection);
        }
        proto.notice_log.record(3, 1, vec![PageId(0)]);
        (proto, table)
    }

    fn notice(proc: ProcId, interval: Interval, page: usize) -> WriteNotice {
        WriteNotice { page: PageId(page), proc, interval }
    }

    #[test]
    fn notice_batches_apply_exactly_as_the_grouped_walk_did() {
        let batches: Vec<Vec<WriteNotice>> = vec![
            // The same (proc, interval) from two children, page lists
            // overlapping and in different orders, another group between.
            vec![
                notice(1, 3, 4),
                notice(1, 3, 5),
                notice(0, 1, 9),
                notice(1, 3, 5),
                notice(1, 3, 8),
                notice(1, 3, 4),
            ],
            // Intervals out of order, pages descending, and a page repeated
            // inside one child's list.
            vec![
                notice(4, 5, 7),
                notice(4, 5, 1),
                notice(4, 2, 6),
                notice(4, 5, 7),
                notice(4, 4, 0),
            ],
            // Own notices, alone and between foreign ones.
            vec![notice(2, 1, 3), notice(0, 2, 1), notice(2, 1, 4), notice(0, 2, 2)],
            // Groups the log already holds: one from set-up, two from the
            // batches above (with pages the first recording never named).
            vec![
                notice(3, 1, 11),
                notice(1, 3, 10),
                notice(0, 1, 9),
                notice(3, 2, 0),
                notice(3, 2, 1),
            ],
            vec![],
            // An older interval of a processor arriving after a newer one.
            vec![
                notice(1, 2, 4),
                notice(1, 1, 5),
                notice(0, 3, 8),
                notice(0, 3, 9),
                notice(0, 3, 10),
            ],
        ];
        let (mut proto, mut table) = node();
        let (mut ref_proto, mut ref_table) = node();
        let everything = Vt::new(NPROCS);
        for (k, batch) in batches.iter().enumerate() {
            let tally = apply_notices_locked(&mut proto, &mut table, batch);
            let expected = apply_notices_grouped(&mut ref_proto, &mut ref_table, batch);
            assert_eq!(
                (tally.recorded, tally.invalidation_runs),
                (expected.recorded, expected.invalidation_runs),
                "tally of batch {k}"
            );
            assert_eq!(
                proto.notice_log.notices_after(&everything),
                ref_proto.notice_log.notices_after(&everything),
                "notice log after batch {k}"
            );
            // `Vec` equality: the missing lists must agree *in order*.
            assert_eq!(proto.page_missing, ref_proto.page_missing, "missing lists after batch {k}");
            for page in (0..PAGES).map(PageId) {
                assert_eq!(
                    table.protection(page),
                    ref_table.protection(page),
                    "{page:?}, batch {k}"
                );
            }
        }
        // The batches did what they were written to do.
        assert!(proto.page_missing[&PageId(4)].starts_with(&[(1, 3)]));
        assert_eq!(proto.page_missing[&PageId(5)], [(1, 3), (1, 1)]);
        assert!(!proto.page_missing.contains_key(&PageId(11)), "a held group is skipped whole");
        assert_eq!(table.protection(PageId(4)), Protection::Invalid);
    }

    #[test]
    fn an_interior_node_forwards_the_request_set_it_received() {
        let mut proto = ProtoState::new(1, NPROCS);
        proto.notice_log.record(0, 1, vec![PageId(3)]);
        proto.last_global_vt.advance(0, 1);
        let received: Arc<[SyncFetchRequest]> = Arc::from(vec![
            SyncFetchRequest { proc: 3, vt: Vt::new(NPROCS), pages: vec![PageId(3)] },
            SyncFetchRequest { proc: 4, vt: Vt::new(NPROCS), pages: vec![PageId(3), PageId(7)] },
        ]);
        let children = [(3, Vt::new(NPROCS)), (4, proto.last_global_vt.clone())];
        let departures = child_departures(&proto, &children, &Vt::new(NPROCS), &received);
        assert_eq!(departures.len(), 2);
        for ((child, msg), (expected, _)) in departures.iter().zip(&children) {
            assert_eq!(child, expected);
            let TmkMessage::BarrierDeparture { sync_requests, .. } = msg else {
                panic!("not a departure: {msg:?}")
            };
            assert!(Arc::ptr_eq(sync_requests, &received), "the set must be shared, not rebuilt");
        }
        // What differs per child is what its timestamp misses.
        let notices = |msg: &TmkMessage| match msg {
            TmkMessage::BarrierDeparture { notices, .. } => notices.len(),
            _ => unreachable!(),
        };
        assert_eq!((notices(&departures[0].1), notices(&departures[1].1)), (1, 0));
    }
}
