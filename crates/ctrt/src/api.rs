//! The entry points of the augmented interface.
//!
//! The compiler (or a hand-annotated program) describes the accesses of the
//! upcoming phase as [`RegularSection`]s and calls one of:
//!
//! * [`validate`] — make the sections consistent *now*, with all misses
//!   aggregated into one request message per producer;
//! * [`validate_w_sync`] — same, but merged with a synchronization
//!   operation so the consistency information and the data travel on the
//!   same messages;
//! * [`push`] — for fully analyzable phases: producers send their data
//!   directly to the consumers, replacing barrier + invalidate + fetch;
//! * [`reduce`] — for sections only ever accumulated: private partials are
//!   combined over the barrier tree, replacing the lock chain.
//!
//! The legality contract for each call is specified in `DESIGN.md`.

use pagedmem::AddrRange;
use treadmarks::{LockId, PendingSync, PhasePlan, ProcId, Process, SyncOp};

use crate::section::{ReduceOp, RegularSection};

/// The fast-path mappings of a phase's sections, cached.
///
/// `validate`, `validate_w_sync` and `push_phase` finish
/// by caching, in the processor's software TLB, the mappings of the pages
/// they just made consistent, so the phase body takes **zero page faults
/// and zero page-table-lock acquisitions** after the aggregate call. A
/// mapping never goes stale — it names the page's frame, and every access
/// reads that frame's own protection — so the grant only reports how much
/// is cached; it requires nothing of the caller and dropping it is free.
/// What lapses is the promise, not the mapping: once the protocol changes a
/// page's protection (a flush write-protects it, a notice invalidates it)
/// the next access faults as usual.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionGrant {
    pages_warmed: usize,
}

impl SectionGrant {
    /// Number of the sections' pages whose mappings the TLB holds after the
    /// call, whether it cached them now or before. A page two sections name
    /// counts twice; a page the node has not mapped yet counts not at all.
    pub fn pages_warmed(&self) -> usize {
        self.pages_warmed
    }
}

/// Lowers sections to the [`PhasePlan`] the runtime's aggregate entry
/// points consume: the fetch list, the write-preparation lists (twinned vs
/// `WRITE_ALL` vs `READ&WRITE_ALL`) and the warm list.
fn plan(sections: &[RegularSection]) -> PhasePlan {
    let mut plan = PhasePlan::default();
    for section in sections {
        let access = section.access();
        if access.needs_fetch() {
            plan.fetch.extend_from_slice(section.ranges());
        }
        if access.is_write() {
            if !access.is_write_all() {
                plan.write_twinned.extend_from_slice(section.ranges());
            } else if access.needs_fetch() {
                plan.read_write_all.extend_from_slice(section.ranges());
            } else {
                plan.write_all.extend_from_slice(section.ranges());
            }
        }
        plan.warm.extend_from_slice(section.ranges());
    }
    plan.fetch = AddrRange::coalesce(plan.fetch);
    plan.write_twinned = AddrRange::coalesce(plan.write_twinned);
    plan.write_all = AddrRange::coalesce(plan.write_all);
    plan.read_write_all = AddrRange::coalesce(plan.read_write_all);
    plan
}

/// `Validate(regions)`: makes every section consistent before the phase
/// runs, replacing the phase's page faults with **one aggregated request
/// message per producer** and preparing written pages (twins, write
/// enables) in batch. The returned [`SectionGrant`] records that the
/// sections' fast-path mappings are cached: the phase body runs with no
/// fault and no table lock.
///
/// Legal anywhere: the call only accelerates what the invalidate-based
/// protocol would do lazily, so over- or under-approximated sections are
/// correctness-neutral (missed pages simply fault as usual).
pub fn validate(p: &mut Process, sections: &[RegularSection]) -> SectionGrant {
    p.stats().validates(1);
    let plan = plan(sections);
    if !plan.fetch.is_empty() {
        p.fetch_diffs(&plan.fetch);
    }
    SectionGrant { pages_warmed: p.prepare_phase(&plan) }
}

/// `Validate_w_sync(sync_op, regions)`: performs the synchronization
/// operation with the sections' page list piggybacked on it, so that the
/// consistency traffic (write notices) and the requested data travel in
/// the same messages — for a barrier, producers answer with at most one
/// aggregated message each; for a lock, the releaser's diffs ride on the
/// grant itself. Equivalent to [`validate_w_sync_issue`] followed
/// immediately by [`validate_w_sync_complete`].
///
/// **Contract:** the call *replaces* the plain `barrier()` /
/// `lock_acquire()` of the phase boundary (do not call both), and it is
/// only legal at a release-consistency acquire point, because the
/// piggybacked fetch relies on the write notices that arrive with that
/// synchronization. Sections may over-approximate; anything not covered
/// faults lazily as usual.
pub fn validate_w_sync(p: &mut Process, sync: SyncOp, sections: &[RegularSection]) -> SectionGrant {
    p.stats().validate_w_syncs(1);
    let plan = plan(sections);
    let pending = p.sync_phase_issue(sync, &plan);
    SectionGrant { pages_warmed: p.sync_phase_complete(pending) }
}

/// The issue half of a split-phase `Validate_w_sync`: performs the
/// synchronization operation exactly like [`validate_w_sync`] — the page
/// list rides on the barrier arrival or lock-acquire request — but returns
/// **without waiting for the diff responses**. Written sections whose pages
/// are already consistent are prepared (twins, write enables) and cached
/// immediately, so the caller can overlap computation on local data with
/// the fetch latency; sections still missing remote diffs stay invalid
/// until the completion.
///
/// Safe by construction: a page the caller touches before completing
/// faults, and the fault handler completes the pending synchronization on
/// the spot — waits for the data that is already on its way, installs it,
/// finishes the deferred preparation — so a receipt never exposes stale data
/// and nothing in flight is fetched twice; the later
/// [`validate_w_sync_complete`] is then free. The overlap contract is purely
/// a performance matter: compute on what is local, complete, then compute on
/// what was fetched. Dropping the receipt leaks nothing: the pending pages
/// stay invalid, the first touch of one completes the synchronization after
/// all, and the next issue replaces whatever is left.
pub fn validate_w_sync_issue(
    p: &mut Process,
    sync: SyncOp,
    sections: &[RegularSection],
) -> PendingSync {
    p.stats().validate_w_syncs(1);
    p.stats().split_phase_issues(1);
    let plan = plan(sections);
    p.sync_phase_issue(sync, &plan)
}

/// The completion half of a split-phase `Validate_w_sync`: waits for every
/// outstanding response of the issue, applies the whole batch in causal
/// (rank) order, finishes deferred write preparation and caches the
/// mappings of the pages that were fetched. Returns the grant for the
/// now-consistent phase. If an early touch already ran the completion, the
/// call charges nothing and only reports the grant.
pub fn validate_w_sync_complete(p: &mut Process, pending: PendingSync) -> SectionGrant {
    p.stats().split_phase_completes(1);
    SectionGrant { pages_warmed: p.sync_phase_complete(pending) }
}

/// `Release(lock)`: the exit of a lock-guarded phase. Flushes the guarded
/// writes (diffs, write notices) and hands the lock to the next queued
/// requester — whose grant message carries those diffs when its acquire
/// named the sections via [`validate_w_sync`]/[`validate_w_sync_issue`]
/// with [`SyncOp::Lock`]: the paper's merged lock-grant+data message, at
/// zero extra protocol messages over a plain release.
///
/// **Contract:** pairs with an acquire of the same lock on this processor
/// (`validate_w_sync*` with `SyncOp::Lock`, or the runtime's plain
/// `lock_acquire`); releasing a lock not held panics in the runtime.
pub fn release(p: &mut Process, lock: LockId) {
    p.lock_release(lock);
}

/// A full barrier with the sections validated on it: exactly
/// [`validate_w_sync`] with [`SyncOp::Barrier`]; `producers` and
/// `consumers` are ignored. No compiled plan calls it. It is kept only for
/// the benchmark's interface probe (`benchmark/src/bin/probes.rs`), and
/// goes when the probe stops calling it (a ROADMAP benchmark follow-up).
pub fn neighbor_sync(
    p: &mut Process,
    _producers: &[ProcId],
    _consumers: &[ProcId],
    sections: &[RegularSection],
) -> SectionGrant {
    validate_w_sync(p, SyncOp::Barrier, sections)
}

/// `Reduce(op, section, partial)`: combines every processor's private
/// `partial` of `section` (one `u64` per word) with `op` over the barrier
/// tree, and adds into this processor's copy of the section the totals of
/// the words `wants[me]` names. The departures are cut by subtree, so each
/// processor receives only what it reads — a reduce-scatter — installed as
/// raw bytes: no interval ends, and no lock, twin, diff or notice is
/// involved.
///
/// **Contract:** a collective with the same `op`, `section` and `wants` on
/// every processor. Only legal when the compiler has proven that `op` is
/// the only update the section's words see (no plain write anywhere, no
/// read inside the accumulating phase) and that nothing in the program
/// flushes an interval — the same whole-program proviso as [`push_phase`]
/// (see `DESIGN.md` §9).
pub fn reduce(
    p: &mut Process,
    op: ReduceOp,
    section: AddrRange,
    partial: &[u64],
    wants: &[Vec<AddrRange>],
) {
    match op {
        ReduceOp::WrappingAdd => p.reduce_add(section, partial, wants),
    }
}

/// `Push(dest, regions)`: describes one destination of a [`push_phase`] —
/// the contents of `regions` travel directly to processor `dest`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Push {
    /// The consuming processor.
    pub dest: ProcId,
    /// The data it consumes, as lowered address ranges.
    pub regions: Vec<AddrRange>,
}

impl Push {
    /// A push of `sections` to `dest`.
    pub fn new(dest: ProcId, sections: &[RegularSection]) -> Push {
        let mut regions = Vec::new();
        for s in sections {
            regions.extend_from_slice(s.ranges());
        }
        Push { dest, regions: AddrRange::coalesce(regions) }
    }
}

/// Executes the data movement of a fully analyzable phase boundary: every
/// [`Push`] in `sends` goes out point-to-point, and one push is awaited
/// from each processor in `recv_from`. This **replaces** the barrier and
/// the entire invalidate/fetch machinery for the phase.
///
/// **Contract:** only legal when the compiler has fully analyzed the
/// producer/consumer relationship of the phase — every datum the receivers
/// will read before the next synchronization must be covered by some push,
/// because no write notices are generated for pushed modifications. The
/// sends and `recv_from` sets of all processors must be globally matched,
/// like any collective operation.
/// The returned [`SectionGrant`] reports the cached fast-path mappings of
/// the ranges this processor just *received*, which the consuming phase
/// reads with no fault and no table lock.
pub fn push_phase(p: &mut Process, sends: &[Push], recv_from: &[ProcId]) -> SectionGrant {
    p.stats().pushes(1);
    let plan: Vec<(ProcId, Vec<AddrRange>)> =
        sends.iter().map(|push| (push.dest, push.regions.clone())).collect();
    // The exchange caches the received ranges' mappings under the same
    // table-lock hold that installs them.
    SectionGrant { pages_warmed: p.push_exchange(&plan, recv_from).pages_warmed }
}
