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

use std::sync::Arc;

use pagedmem::AddrRange;
use treadmarks::{LockId, PhasePlan, ProcId, Process, SyncOp};

use crate::section::{ReduceOp, RegularSection};

/// Lowers sections to the [`PhasePlan`] the runtime's aggregate entry
/// points consume: the pages to fetch, the write-preparation lists (twinned vs
/// `WRITE_ALL` vs `READ&WRITE_ALL`) and the warm list.
fn lower(sections: &[RegularSection]) -> PhasePlan {
    let mut plan = PhasePlan::default();
    for section in sections {
        let access = section.access();
        if access.needs_fetch() {
            plan.fetch.extend(section.ranges().iter().flat_map(AddrRange::pages));
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
    plan.fetch.sort_unstable();
    plan.fetch.dedup();
    plan.write_twinned = AddrRange::coalesce(plan.write_twinned);
    plan.write_all = AddrRange::coalesce(plan.write_all);
    plan.read_write_all = AddrRange::coalesce(plan.read_write_all);
    plan
}

/// Sections and their [`PhasePlan`], lowered once and shared by every clone:
/// what a compiled plan step carries. The `validate` calls take one, or
/// sections they lower at the call. Its `Debug` text is the sections'.
#[derive(Clone, PartialEq, Eq)]
pub struct Lowered(Arc<(Vec<RegularSection>, PhasePlan)>);

impl Lowered {
    /// `sections` and their plan.
    pub fn new(sections: Vec<RegularSection>) -> Lowered {
        let plan = lower(&sections);
        Lowered(Arc::new((sections, plan)))
    }
}

impl std::ops::Deref for Lowered {
    type Target = [RegularSection];

    fn deref(&self) -> &[RegularSection] {
        &self.0 .0
    }
}

impl std::fmt::Debug for Lowered {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<[RegularSection]> + ?Sized> From<&S> for Lowered {
    fn from(sections: &S) -> Lowered {
        Lowered::new(sections.as_ref().to_vec())
    }
}

/// `Validate(regions)`: makes every section consistent before the phase
/// runs, replacing the phase's page faults with **one aggregated request
/// message per producer** and preparing written pages (twins, write
/// enables) in batch. The call ends by caching the sections' mappings in
/// the processor's software TLB, so the phase body takes no fault and no
/// table lock. A mapping never goes stale — it names the page's frame, and
/// every access reads that frame's own protection — so once the protocol
/// changes a page's protection (a flush write-protects it, a notice
/// invalidates it) the next access faults as usual.
///
/// Legal anywhere: the call only accelerates what the invalidate-based
/// protocol would do lazily, so over- or under-approximated sections are
/// correctness-neutral (missed pages simply fault as usual).
pub fn validate(p: &mut Process, sections: impl Into<Lowered>) {
    p.stats().validates(1);
    let (_, plan) = &*sections.into().0;
    if !plan.fetch.is_empty() {
        p.fetch_diffs(&plan.fetch);
    }
    p.prepare_phase(plan);
}

/// `Validate_w_sync(sync_op, regions)`: performs the synchronization
/// operation with the sections' page list piggybacked on it, so that the
/// consistency traffic (write notices) and the requested data travel in
/// the same messages — for a barrier, producers answer with at most one
/// aggregated message each; for a lock, the releaser's diffs ride on the
/// grant itself. It ends, like [`validate`], with the sections' mappings
/// cached. [`validate_w_sync_overlapped`] is the same call with computation
/// run while the data is in flight.
///
/// **Contract:** the call *replaces* the plain `barrier()` /
/// `lock_acquire()` of the phase boundary (do not call both), and it is
/// only legal at a release-consistency acquire point, because the
/// piggybacked fetch relies on the write notices that arrive with that
/// synchronization. Sections may over-approximate; anything not covered
/// faults lazily as usual.
pub fn validate_w_sync(p: &mut Process, sync: SyncOp, sections: impl Into<Lowered>) {
    p.stats().validate_w_syncs(1);
    p.sync_phase(sync, &sections.into().0 .1, |_| {});
}

/// The split-phase `Validate_w_sync`: performs the synchronization exactly
/// like [`validate_w_sync`] — the page list rides on the barrier arrival or
/// lock-acquire request — then runs `overlap` **without waiting for the
/// diff responses**, and completes: waits for every response, applies the
/// whole batch in causal (rank) order, finishes the deferred write
/// preparation and caches the fetched pages' mappings. Written sections
/// whose pages are already consistent are prepared (twins, write enables)
/// and cached before `overlap` runs; sections still missing remote diffs
/// stay invalid until the completion.
///
/// Safe by construction: a pending page `overlap` touches faults, and the
/// fault handler runs the completion on the spot — waits for the data that
/// is already on its way, installs it, finishes the deferred preparation —
/// so stale data is never exposed and nothing in flight is fetched twice;
/// the completion after `overlap` is then free. What `overlap` computes is
/// purely a performance matter: compute on what is local there, and on
/// what was fetched after the call.
///
/// # Panics
///
/// Panics if `overlap` synchronizes (a barrier, lock acquire, reduction or
/// another `Validate_w_sync`).
///
/// Without sections it counts as the plain barrier or acquire it is.
pub fn validate_w_sync_overlapped(
    p: &mut Process,
    sync: SyncOp,
    sections: impl Into<Lowered>,
    overlap: impl FnOnce(&mut Process),
) {
    let sections = sections.into();
    if !sections.is_empty() {
        p.stats().validate_w_syncs(1);
        p.stats().split_phase_issues(1);
    }
    p.sync_phase(sync, &sections.0 .1, overlap);
}

/// `Release(lock)`: the exit of a lock-guarded phase. Flushes the guarded
/// writes (diffs, write notices) and hands the lock to the next queued
/// requester — whose grant message carries those diffs when its acquire
/// named the sections via [`validate_w_sync`]/[`validate_w_sync_overlapped`]
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
) {
    validate_w_sync(p, SyncOp::Barrier, sections);
}

/// `Reduce(op, section, partial)`: combines every processor's private
/// `partial` of `section` (one `u64` per word) with `op`, and adds into this
/// processor's copy of the section the totals of the words `wants[me]`
/// names. It is one barrier that ends no interval, with the partials as one
/// more field of its messages: combined at every hop of the walk up the
/// tree, and cut by subtree on the walk down, so each processor receives
/// only what it reads — a reduce-scatter — installed as raw bytes. No lock,
/// twin, diff or notice is involved.
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
    /// The data it consumes, as lowered address ranges: coalesced, in
    /// address order, which is how the runtime ships them.
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
/// The exchange caches the mappings of the ranges this processor just
/// *received* under the table-lock hold that installs them, so the
/// consuming phase reads them with no fault and no table lock.
pub fn push_phase(p: &mut Process, sends: &[Push], recv_from: &[ProcId]) {
    p.stats().pushes(1);
    p.push_exchange(sends.iter().map(|push| (push.dest, &push.regions[..])), recv_from);
}

#[cfg(test)]
mod tests {
    use pagedmem::{Addr, AddrRange, PageId, PAGE_SIZE};

    use super::lower;
    use crate::section::{Access, RegularSection};

    const P: usize = PAGE_SIZE;

    fn section(ranges: &[(usize, usize)], access: Access) -> RegularSection {
        let ranges = ranges.iter().map(|&(start, len)| AddrRange::new(Addr::new(start), len));
        RegularSection::from_ranges(ranges.collect(), access)
    }

    /// Sections that overlap each other and straddle page boundaries lower
    /// to one fetch of ascending, distinct pages; a `WRITE_ALL` section,
    /// aligned or not, fetches nothing.
    #[test]
    fn lowering_fetches_each_page_once_in_ascending_order() {
        let sections = [
            section(&[(5 * P - 8, 16)], Access::Read),
            section(&[(P + 100, 2 * P)], Access::ReadWrite),
            section(&[(2 * P, 8), (4 * P + 16, 8)], Access::ReadWriteAll),
            section(&[(9 * P + 8, 3 * P)], Access::WriteAll),
            section(&[(0, 8), (P + 50, 100)], Access::Write),
        ];
        assert_eq!(lower(&sections).fetch, [0, 1, 2, 3, 4, 5].map(PageId));
        for write_all in [(9 * P, 3 * P), (9 * P + 8, 3 * P)] {
            let plan = lower(&[section(&[write_all], Access::WriteAll)]);
            assert!(plan.fetch.is_empty(), "{plan:?}");
            assert_eq!(plan.write_all, [AddrRange::new(Addr::new(write_all.0), write_all.1)]);
        }
    }
}
