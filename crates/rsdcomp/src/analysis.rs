//! Regular-section dependence analysis over phase boundaries.
//!
//! For the boundary between a producer phase and a consumer phase the
//! analyzer finds the *flow dependences* between processors — bytes the
//! producer writes that the consumer reads — by joining the two phases'
//! lowered sections under the block distribution, sorted by address, and
//! classifies the boundary:
//!
//! * [`BoundaryClass::NoComm`] — no inter-processor dependence: the barrier
//!   is dropped entirely.
//! * [`BoundaryClass::Push`] — every dependence's producing section is
//!   *final*: a pure `WRITE_ALL`, or a `READ&WRITE_ALL` whose processor is
//!   the only writer of its bytes anywhere in the program (red-black SOR's
//!   in-place half-sweeps). The producer knows both the consumer set and
//!   the final bytes, so the data moves point-to-point and the DSM protocol
//!   (twins, diffs, notices) is bypassed wholesale.
//! * [`BoundaryClass::FullBarrier`] — everything else, with the
//!   [`Refusal`] recording why the analyzer declined to optimize (a
//!   dependence out of a section that is not final among them). Refusal is
//!   always sound: the full barrier preserves every happens-before edge.
//! * [`BoundaryClass::Reduce`] — the exit of a phase whose only
//!   cross-processor writes are accumulations into one section
//!   (`reducible` decides, for the whole program): the partials are
//!   reduced over the barrier tree, and every other dependence out of the
//!   phase is no-comm or pushable.

use std::sync::Arc;

use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::ir::{Access, ColSpan, Node, Phase, Program, SectionAccess};
use crate::plan::Reduction;

/// Why the analyzer refused to eliminate a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// Two processors' write sections of the producer phase overlap: the
    /// phase's output is order-dependent at section granularity, and only
    /// the barrier's global ordering (plus the multiple-writer protocol
    /// underneath) is known to preserve it. Overlapping writes inside
    /// phases guarded by the *same* lock are exempt: the lock's acquire
    /// chain orders them.
    OverlappingWrites,
    /// A section of either phase is non-affine ([`ColSpan::Unknown`]): the
    /// consumer set cannot be computed, so no named-producer sync can be
    /// proven to cover every dependence.
    NonAffine,
    /// A dependence crosses blocks — a cross-block access (e.g. the
    /// `All`-span read of a reduction) makes every processor depend on
    /// every other, and replacing the barrier with a dense point-to-point
    /// exchange would re-create it, worse.
    NonNeighbourDependence,
    /// A dependence's producing section is not final — a partial write, or
    /// bytes another processor also writes: the producer's raw copy is not
    /// the value its consumers must read, so the pages stay DSM-managed and
    /// only the barrier's notices can say what each consumer misses.
    NotFinal,
    /// The boundary is pushable in isolation, but the program flushes
    /// intervals elsewhere (a barrier or a lock exists): raw
    /// pushed bytes landing in a page that is later twinned and diffed
    /// would be re-shipped as the receiver's own modifications — under
    /// false sharing that overwrites a concurrent writer's fresh values
    /// with the pushed snapshot. `Push` is therefore only legal when the
    /// *whole* kernel bypasses the protocol; here the dependence data must
    /// travel as (delta-exact) diffs instead.
    MixedWithManagedPhases,
    /// A dependence flows into a lock-guarded phase from writes the lock's
    /// acquire chain does not order — made unguarded, or under a
    /// *different* lock. The grant merges only the chain's knowledge, so
    /// the acquire alone cannot deliver those notices: the claimed lock
    /// synchronization is insufficient and the full barrier survives.
    OutsideAcquireChain,
}

impl Refusal {
    /// Stable lowercase name for diagnostics and the `--explain` dump.
    pub fn name(self) -> &'static str {
        match self {
            Refusal::OverlappingWrites => "overlapping-writes",
            Refusal::NonAffine => "non-affine",
            Refusal::NonNeighbourDependence => "non-neighbour-dependence",
            Refusal::NotFinal => "not-final",
            Refusal::MixedWithManagedPhases => "mixed-with-managed-phases",
            Refusal::OutsideAcquireChain => "outside-acquire-chain",
        }
    }
}

/// The classification of one phase boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundaryClass {
    /// No inter-processor dependence crosses the boundary: no
    /// synchronization is emitted at all.
    NoComm,
    /// A real (tree) barrier survives.
    FullBarrier {
        /// Why elimination was refused; `None` when the barrier is the
        /// intended synchronization (lock-ordered producers feeding an
        /// unguarded reader, or the validate level keeping it).
        refusal: Option<Refusal>,
    },
    /// The barrier and the DSM protocol are both replaced by direct pushes.
    Push,
    /// The boundary enters a lock-guarded phase and every remaining
    /// dependence is ordered by that lock's acquire chain: the entry is a
    /// lock acquire with the phase's sections validated on the grant (the
    /// paper's merged lock-grant+data message) and the phase exit a
    /// release — no barrier at all.
    Lock(LockId),
    /// The boundary leaves a phase whose accumulations are reduced over the
    /// barrier tree at its exit: no lock, twin or diff, and the phase's other
    /// dependences move as pushes when there are any.
    Reduce,
}

impl BoundaryClass {
    /// Stable lowercase name for diagnostics and the `--explain` dump.
    pub fn name(self) -> &'static str {
        match self {
            BoundaryClass::NoComm => "no-comm",
            BoundaryClass::FullBarrier { .. } => "barrier",
            BoundaryClass::Push => "push",
            BoundaryClass::Lock(_) => "lock",
            BoundaryClass::Reduce => "reduce",
        }
    }
}

/// One inter-processor flow dependence across a boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepPair {
    /// The processor whose producer-phase writes are read.
    pub producer: ProcId,
    /// The processor whose consumer-phase reads depend on them.
    pub consumer: ProcId,
    /// The dependent bytes (intersection of the producer's written and the
    /// consumer's read sections), coalesced.
    pub regions: Vec<AddrRange>,
}

/// The analyzer's full result for one boundary: the classification plus the
/// dependence pairs the plan generator turns into pushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryAnalysis {
    /// The classification.
    pub class: BoundaryClass,
    /// Every inter-processor flow dependence (empty for `NoComm`).
    pub pairs: Vec<DepPair>,
}

/// One pending (or lowered) write: its extent, whether the writer's copy of
/// it is final (see [`SoleWriters::is_final`]), and the lock guarding the
/// phase that made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct WriteEntry {
    range: AddrRange,
    is_final: bool,
    lock: Option<LockId>,
}

/// A phase's sections lowered for processor `me` at loop iteration `iter`:
/// every access with its byte range — `None` for a non-affine one — except
/// those whose span is empty for `me`.
fn lower<'a>(
    program: &'a Program,
    nprocs: usize,
    me: ProcId,
    phase: &'a Phase,
    iter: usize,
) -> impl Iterator<Item = (&'a SectionAccess, Option<AddrRange>)> + 'a {
    phase.accesses.iter().filter_map(move |access| {
        let decl = &program.arrays[access.array];
        match access.span.eval(decl.cols, nprocs, me, iter) {
            None => Some((access, None)),
            Some(cols) if cols.is_empty() => None,
            Some(cols) => Some((access, Some(decl.col_range(cols.start, cols.end)))),
        }
    })
}

/// The bytes of a program that exactly one processor writes: what makes an
/// in-place `READ&WRITE_ALL` section final.
///
/// Computed once per program, from every occurrence of every phase lowered
/// for every processor. A byte two processors write, in any phases at any
/// iterations, is *contested*; a non-affine write anywhere makes every byte
/// so, since its extent is unknowable.
#[derive(Debug, Clone)]
struct SoleWriters {
    /// The contested bytes, coalesced; `None` when a write is non-affine or
    /// no section is `READ&WRITE_ALL`.
    contested: Option<Vec<AddrRange>>,
}

impl SoleWriters {
    /// Nothing proven: only `WRITE_ALL` sections are final.
    const NONE: SoleWriters = SoleWriters { contested: None };

    fn of(program: &Program, nprocs: usize) -> SoleWriters {
        let phases = program.phases();
        let accesses = || phases.iter().flat_map(|phase| &phase.accesses);
        // Only an in-place `READ&WRITE_ALL` section asks who else writes its
        // bytes: without one there is nothing to prove.
        if accesses().any(|a| a.span == ColSpan::Unknown && a.access.is_write())
            || !accesses().any(|a| a.access == Access::ReadWriteAll)
        {
            return SoleWriters::NONE;
        }
        let mut seen = vec![false; phases.len()];
        let mut written: Vec<Vec<AddrRange>> = vec![Vec::new(); nprocs];
        for (id, iter) in program.occurrences_with_iter() {
            let phase = phases[id];
            // A phase whose spans ignore the iteration symbol writes the same
            // bytes at every occurrence.
            if seen[id] && !phase.iter_dependent() {
                continue;
            }
            seen[id] = true;
            for (me, mine) in written.iter_mut().enumerate() {
                mine.extend(
                    lower(program, nprocs, me, phase, iter)
                        .filter(|(access, _)| access.writes())
                        .filter_map(|(_, range)| range),
                );
            }
        }
        // Each processor's writes coalesce to disjoint ranges, so any two
        // ranges that overlap after sorting by start belong to different
        // processors; the overlaps of one range lie in the run of ranges
        // that start before it ends.
        let mut all: Vec<AddrRange> = written.into_iter().flat_map(AddrRange::coalesce).collect();
        all.sort_by_key(|r| r.start());
        let mut contested = Vec::new();
        for (i, r) in all.iter().enumerate() {
            contested.extend(
                all[i + 1..]
                    .iter()
                    .take_while(|later| later.start() < r.end())
                    .filter_map(|later| r.intersect(later)),
            );
        }
        SoleWriters { contested: Some(AddrRange::coalesce(contested)) }
    }

    /// Whether a write of `access` to `range` under `lock` leaves the
    /// writer's copy final — equal to the value every consumer must read
    /// until the next write. A `WRITE_ALL` section is, by assertion. A
    /// `READ&WRITE_ALL` section is when no other processor ever writes any
    /// byte of it and no lock guards it: with nothing flushed anywhere (the
    /// whole-program proviso `Push` needs anyway) no page is invalidated,
    /// so the owner's raw copy, which its preparation made valid, is the
    /// value. A partial write is never final.
    fn is_final(&self, access: Access, range: AddrRange, lock: Option<LockId>) -> bool {
        match access {
            Access::WriteAll => true,
            Access::ReadWriteAll => {
                lock.is_none()
                    && self
                        .contested
                        .as_ref()
                        .is_some_and(|c| c.iter().all(|c| c.intersect(&range).is_none()))
            }
            Access::Read | Access::Write | Access::ReadWrite => false,
        }
    }
}

/// Writes not yet synchronized to each consumer, accumulated along the
/// unrolled execution order.
///
/// A dependence can span *several* phase boundaries (the write in phase
/// `A`, the read two phases later in `C`, with a dependence-free boundary
/// between): analyzing only adjacent phases would silently drop the one
/// barrier enforcing it. The compiler therefore walks the program carrying,
/// per producer `p`, every write of `p` that the other processors have not
/// yet received consistency information for — which mirrors the runtime
/// exactly, where writes stay dirty until the next flush boundary. A full
/// barrier clears everything (its departures carry every notice to every
/// processor); a lock acquire clears the lock's own guarded writes; a push
/// clears nothing (it moves bytes, not notices — conservative, and harmless
/// because re-pushing current bytes is idempotent).
///
/// One list per producer is exact: a write is pending for every processor
/// but its writer, and every clear is uniform over consumers, so a list per
/// ordered pair would only hold copies of it. A write equal to one already
/// pending is not added again: dependence regions are coalesced, finality is
/// an AND and lock-ordering an OR, so a copy changes no classification —
/// and a loop that is never cleared keeps a list the size of its distinct
/// writes.
#[derive(Debug, Clone)]
pub struct PendingWrites {
    nprocs: usize,
    /// The program's sole-writer proof, which decides each write's
    /// finality.
    sole: SoleWriters,
    /// `unseen[p]`: the distinct writes of `p` the other processors have no
    /// consistency information for.
    unseen: Vec<Vec<WriteEntry>>,
    /// A non-affine write is pending: its extent is unknowable, so every
    /// boundary until the next full barrier must refuse.
    unknown: bool,
    /// An overlapping cross-processor write is pending: the region's value
    /// is order-dependent at section granularity, so every boundary until
    /// the next full barrier must refuse. Writes guarded by the *same*
    /// lock are exempt — the acquire chain serializes and orders them.
    overlap: bool,
}

impl PendingWrites {
    /// No pending writes (the start of `program`, run on `nprocs`
    /// processors).
    pub fn new(program: &Program, nprocs: usize) -> PendingWrites {
        PendingWrites {
            nprocs,
            sole: SoleWriters::of(program, nprocs),
            unseen: vec![Vec::new(); nprocs],
            unknown: false,
            overlap: false,
        }
    }

    /// Accumulates the writes of `phase`'s occurrence at loop iteration
    /// `iter` (every other processor becomes a potential consumer),
    /// recording non-affine writes and unordered cross-processor write
    /// overlaps as sticky refusal conditions.
    pub fn add_phase_writes(&mut self, program: &Program, phase: &Phase, iter: usize) {
        let nprocs = self.nprocs;
        self.unknown |=
            phase.accesses.iter().any(|a| a.span == ColSpan::Unknown && a.access.is_write());
        let sole = &self.sole;
        let mut writes: Vec<(ProcId, WriteEntry)> = (0..nprocs)
            .flat_map(|me| {
                lower(program, nprocs, me, phase, iter).filter_map(move |(access, range)| {
                    let range = range.filter(|_| access.writes())?;
                    let is_final = sole.is_final(access.access, range, phase.lock);
                    Some((me, WriteEntry { range, is_final, lock: phase.lock }))
                })
            })
            .collect();
        // Sorted by start, the writes overlapping one lie in the run of
        // later writes that start before it ends (as in `SoleWriters::of`).
        writes.sort_by_key(|(_, w)| w.range.start());
        for (i, (p, wp)) in writes.iter().enumerate() {
            let mut later =
                writes[i + 1..].iter().take_while(|(_, wq)| wq.range.start() < wp.range.end());
            self.overlap |= later.any(|(q, wq)| {
                q != p
                    && wp.range.intersect(&wq.range).is_some()
                    && (wp.lock.is_none() || wp.lock != wq.lock)
            });
        }
        for (p, write) in writes {
            if !self.unseen[p].contains(&write) {
                self.unseen[p].push(write);
            }
        }
    }

    /// A full barrier: every processor receives every notice.
    pub fn clear_all(&mut self) {
        for v in &mut self.unseen {
            v.clear();
        }
        self.unknown = false;
        self.overlap = false;
    }

    /// A lock acquire: writes made inside phases guarded by `lock` clear
    /// for every consumer along the acquire chain. Every critical section
    /// on `lock` is totally ordered, each holder's release flushes its
    /// guarded writes, and every grant merges the granter's timestamp — so
    /// by the time any processor enters a later phase guarded by the same
    /// lock, the chain has delivered it the notices of every earlier
    /// guarded write, whichever processors made them.
    pub fn clear_lock(&mut self, lock: LockId) {
        for v in &mut self.unseen {
            v.retain(|w| w.lock != Some(lock));
        }
    }
}

/// The program the full level classifies when every accumulation of
/// `program` can be reduced instead of merged under its lock, with each
/// phase's [`Reduction`] — or `None`, and every accumulation keeps its lock.
///
/// In the returned program each accumulating phase has lost its
/// accumulations (the body adds into a private partial, which touches no
/// shared byte) and its lock (the partial needs no mutual exclusion). That
/// is sound only if the accumulated words see nothing but the accumulation,
/// so the reduction is refused when
///
/// * a phase accumulates into more than one section, through a non-affine
///   or iteration-dependent span, or into words that are not `u64`;
/// * any access of an accumulating phase other than the accumulation itself
///   reads or writes the accumulated words — a read there would see a
///   partial sum, a write would mix a second update with the first;
/// * a plain write anywhere in the program, or a non-affine access to the
///   accumulated array, could touch the accumulated words.
///
/// Reads of the accumulated words in the other phases are what each
/// processor wants: every reduction of that section
/// delivers their totals, so every wanted word of every copy holds the
/// allocator's initial value plus every total so far. The whole-program
/// proviso — nothing may flush an interval — is the caller's to check on
/// the classified walk.
pub(crate) fn reducible(
    program: &Program,
    nprocs: usize,
) -> Option<(Program, Vec<Option<Reduction>>)> {
    let phases = program.phases();
    let mut sections = Vec::with_capacity(phases.len());
    for phase in &phases {
        let mut accumulations =
            phase.accesses.iter().filter_map(|a| Some((a.array, a.span, a.accumulates?)));
        let first = accumulations.next();
        if let Some((array, span, _)) = first {
            if span == ColSpan::Unknown
                || span.iter_dependent()
                || program.arrays[array].elem_bytes != 8
                || accumulations.any(|other| Some(other) != first)
            {
                return None;
            }
        }
        sections.push(first);
    }
    // Each accumulated section as one extent: the hull of every
    // processor's span, which every processor's partial covers word for word.
    let mut hulls = Vec::with_capacity(phases.len());
    for section in &sections {
        hulls.push(match *section {
            None => None,
            Some((array, span, _)) => {
                let decl = &program.arrays[array];
                let cols = (0..nprocs)
                    .filter_map(|me| span.eval(decl.cols, nprocs, me, 0))
                    .filter(|cols| !cols.is_empty())
                    .reduce(|a, b| a.start.min(b.start)..a.end.max(b.end))?;
                Some((array, decl.col_range(cols.start, cols.end)))
            }
        });
    }
    if hulls.iter().all(Option::is_none) {
        return None;
    }
    let mut wants: Vec<Vec<Vec<AddrRange>>> = vec![vec![Vec::new(); nprocs]; phases.len()];
    let mut seen = vec![false; phases.len()];
    for (id, iter) in program.occurrences_with_iter() {
        let phase = phases[id];
        if seen[id] && !phase.iter_dependent() {
            continue;
        }
        seen[id] = true;
        for access in phase.accesses.iter().filter(|a| a.accumulates.is_none()) {
            let decl = &program.arrays[access.array];
            // `me` names the processor the span is evaluated for, not only a
            // position in `wants`.
            #[allow(clippy::needless_range_loop)]
            for me in 0..nprocs {
                let Some(cols) = access.span.eval(decl.cols, nprocs, me, iter) else {
                    if hulls.iter().flatten().any(|&(array, _)| array == access.array) {
                        return None;
                    }
                    continue;
                };
                if cols.is_empty() {
                    continue;
                }
                let range = decl.col_range(cols.start, cols.end);
                for (acc, hull) in hulls.iter().enumerate() {
                    let Some(overlap) = hull.and_then(|(_, hull)| range.intersect(&hull)) else {
                        continue;
                    };
                    if access.writes() || acc == id {
                        return None;
                    }
                    wants[acc][me].push(overlap);
                }
            }
        }
    }
    let exits = sections
        .iter()
        .zip(hulls)
        .zip(wants)
        .map(|((section, hull), wants)| {
            let ((_, _, op), (_, section)) = (section.as_ref()?, hull?);
            let wants: Arc<[Vec<AddrRange>]> = wants.into_iter().map(AddrRange::coalesce).collect();
            Some(Reduction { op: *op, section, wants })
        })
        .collect();
    let mut reduced = program.clone();
    let private = |phase: &mut Phase| {
        if phase.accesses.iter().any(|a| a.accumulates.is_some()) {
            phase.accesses.retain(|a| a.accumulates.is_none());
            phase.lock = None;
        }
    };
    for node in &mut reduced.nodes {
        match node {
            Node::Phase(phase) => private(phase),
            Node::Repeat { body, .. } => body.iter_mut().for_each(private),
        }
    }
    Some((reduced, exits))
}

/// Classifies the boundary into `next`'s occurrence at loop iteration
/// `next_iter` given the writes accumulated so far (see [`PendingWrites`])
/// — the form [`crate::compile`] uses along its walk of the unrolled
/// program. When `next` is lock-guarded the caller must have cleared the
/// lock's own chain-ordered writes first ([`PendingWrites::clear_lock`]):
/// whatever remains is what the acquire *cannot* deliver.
pub fn classify_against_pending(
    program: &Program,
    nprocs: usize,
    pending: &PendingWrites,
    next: &Phase,
    next_iter: usize,
) -> BoundaryAnalysis {
    let refuse = |refusal| BoundaryAnalysis {
        class: BoundaryClass::FullBarrier { refusal: Some(refusal) },
        pairs: Vec::new(),
    };
    if pending.unknown || next.accesses.iter().any(|a| a.span == ColSpan::Unknown) {
        return refuse(Refusal::NonAffine);
    }
    if pending.overlap {
        return refuse(Refusal::OverlappingWrites);
    }
    // Flow dependences: accumulated unsynchronized writes ∩ consumer reads,
    // joined through one start-sorted index of the pending writes. A write
    // that meets a read starts before the read ends, and no more than the
    // longest write's length before the read starts.
    let mut index: Vec<(ProcId, &WriteEntry)> = pending
        .unseen
        .iter()
        .enumerate()
        .flat_map(|(producer, writes)| writes.iter().map(move |w| (producer, w)))
        .collect();
    index.sort_by_key(|(_, w)| w.range.start());
    let max_len = index.iter().map(|(_, w)| w.range.len()).max().unwrap_or(0);
    let mut pairs = Vec::new();
    let mut all_pushable = true;
    let mut any_cross_block = false;
    let mut any_locked = false;
    let mut found: Vec<(ProcId, AddrRange)> = Vec::new();
    for consumer in 0..nprocs {
        found.clear();
        for (access, range) in lower(program, nprocs, consumer, next, next_iter) {
            let Some(read) = range.filter(|_| access.reads()) else { continue };
            let via_all = access.span == ColSpan::All;
            // Compared as a sum: `read.start - max_len` underflows near
            // address 0, where arrays may start.
            let first = index.partition_point(|(_, w)| w.range.start() + max_len <= read.start());
            for &(producer, write) in
                index[first..].iter().take_while(|(_, w)| w.range.start() < read.end())
            {
                if producer == consumer {
                    continue;
                }
                if let Some(region) = write.range.intersect(&read) {
                    found.push((producer, region));
                    all_pushable &= write.is_final;
                    any_cross_block |= via_all;
                    any_locked |= write.lock.is_some();
                }
            }
        }
        found.sort_by_key(|&(producer, _)| producer);
        for run in found.chunk_by(|a, b| a.0 == b.0) {
            let regions = AddrRange::coalesce(run.iter().map(|&(_, region)| region).collect());
            pairs.push(DepPair { producer: run[0].0, consumer, regions });
        }
    }
    pairs.sort_unstable_by_key(|d| (d.producer, d.consumer));
    if pairs.is_empty() {
        return BoundaryAnalysis {
            class: match next.lock {
                // Nothing the acquire chain does not already order: the
                // entry is the acquire itself, validating the phase's
                // sections on the grant.
                Some(lock) => BoundaryClass::Lock(lock),
                None => BoundaryClass::NoComm,
            },
            pairs,
        };
    }
    if next.lock.is_some() {
        // Dependences survive the chain clearing: they were written
        // unguarded or under a different lock, and the acquire cannot
        // deliver their notices.
        return refuse(Refusal::OutsideAcquireChain);
    }
    if any_locked {
        // Lock-ordered producers feeding an unguarded reader — the paper's
        // lock+barrier idiom (IS's histogram merge). The holder order is
        // runtime-determined, so no static producer naming is possible and
        // the barrier *is* the intended synchronization, not a refusal; it
        // is also required whenever any dependence is lock-ordered, which
        // is why a mixed boundary lands here too.
        return BoundaryAnalysis { class: BoundaryClass::FullBarrier { refusal: None }, pairs };
    }
    // `Push` needs every producer's copy of what it wrote to be final (pure
    // WRITE_ALL, or READ&WRITE_ALL by the bytes' sole writer): the raw
    // current copy then *is* the dependence's value and no write notices
    // are owed to anyone. A partial write, or one to bytes another
    // processor also writes, keeps its pages DSM-managed, and the barrier
    // that delivers their notices stays.
    let refusal = if any_cross_block {
        Refusal::NonNeighbourDependence
    } else if !all_pushable {
        Refusal::NotFinal
    } else {
        return BoundaryAnalysis { class: BoundaryClass::Push, pairs };
    };
    BoundaryAnalysis { class: BoundaryClass::FullBarrier { refusal: Some(refusal) }, pairs }
}

/// Analyzes the single boundary between `prev` (producer phase) and `next`
/// (consumer phase) for an `nprocs`-processor run, considering only
/// `prev`'s writes — the stateless form, suitable for inspecting one
/// boundary in isolation. [`crate::compile`] instead accumulates the
/// writes of *every* phase since the last synchronization that delivered
/// them ([`PendingWrites`]), so dependences spanning several boundaries
/// are seen too.
pub fn analyze_boundary(
    program: &Program,
    nprocs: usize,
    prev: &Phase,
    next: &Phase,
) -> BoundaryAnalysis {
    let mut pending = PendingWrites::new(program, nprocs);
    pending.add_phase_writes(program, prev, 0);
    if let Some(lock) = next.lock {
        pending.clear_lock(lock);
    }
    classify_against_pending(program, nprocs, &pending, next, 0)
}

#[cfg(test)]
mod oracle {
    //! The pairwise walk the per-producer one replaced, kept as it was: a
    //! pending list per ordered processor pair, every pair intersected at
    //! every boundary. `tests` holds the new walk to it.

    use super::*;

    /// A phase's sections lowered for one processor.
    struct Lowered {
        /// Every written section.
        writes: Vec<WriteEntry>,
        /// `(range, via All span)` for every read section.
        reads: Vec<(AddrRange, bool)>,
        /// The phase names a non-affine section.
        unknown: bool,
    }

    fn lower(
        program: &Program,
        nprocs: usize,
        me: ProcId,
        phase: &Phase,
        iter: usize,
        sole: &SoleWriters,
    ) -> Lowered {
        let mut out = Lowered { writes: Vec::new(), reads: Vec::new(), unknown: false };
        for access in &phase.accesses {
            let decl = &program.arrays[access.array];
            let Some(cols) = access.span.eval(decl.cols, nprocs, me, iter) else {
                out.unknown = true;
                continue;
            };
            if cols.is_empty() {
                continue;
            }
            let range = decl.col_range(cols.start, cols.end);
            if access.writes() {
                out.writes.push(WriteEntry {
                    range,
                    is_final: sole.is_final(access.access, range, phase.lock),
                    lock: phase.lock,
                });
            }
            if access.reads() {
                out.reads.push((range, access.span == ColSpan::All));
            }
        }
        out
    }

    /// Writes not yet synchronized to each consumer, accumulated along the
    /// unrolled execution order.
    ///
    /// A dependence can span *several* phase boundaries (the write in phase
    /// `A`, the read two phases later in `C`, with a dependence-free boundary
    /// between): analyzing only adjacent phases would silently drop the one
    /// barrier enforcing it. The compiler therefore walks the program carrying,
    /// per ordered processor pair `(p, q)`, every write of `p` that `q` has not
    /// yet received consistency information for — which mirrors the runtime
    /// exactly, where writes stay dirty until the next flush boundary. A full
    /// barrier clears everything (its departures carry every notice to every
    /// processor); a lock acquire clears the lock's own guarded writes; a push
    /// clears nothing (it moves bytes, not notices — conservative, and harmless
    /// because re-pushing current bytes is idempotent).
    #[derive(Debug, Clone)]
    pub(super) struct PendingWrites {
        nprocs: usize,
        /// The program's sole-writer proof, which decides each write's
        /// finality.
        sole: SoleWriters,
        /// `unseen[p * nprocs + q]`: writes of `p` that `q` has no consistency
        /// information for.
        unseen: Vec<Vec<WriteEntry>>,
        /// A non-affine write is pending: its extent is unknowable, so every
        /// boundary until the next full barrier must refuse.
        unknown: bool,
        /// An overlapping cross-processor write is pending: the region's value
        /// is order-dependent at section granularity, so every boundary until
        /// the next full barrier must refuse. Writes guarded by the *same*
        /// lock are exempt — the acquire chain serializes and orders them.
        overlap: bool,
    }

    impl PendingWrites {
        /// No pending writes (the start of `program`, run on `nprocs`
        /// processors).
        pub(super) fn new(program: &Program, nprocs: usize) -> PendingWrites {
            PendingWrites {
                nprocs,
                sole: SoleWriters::of(program, nprocs),
                unseen: vec![Vec::new(); nprocs * nprocs],
                unknown: false,
                overlap: false,
            }
        }

        /// Accumulates the writes of `phase`'s occurrence at loop iteration
        /// `iter` (every other processor becomes a potential consumer),
        /// recording non-affine writes and unordered cross-processor write
        /// overlaps as sticky refusal conditions.
        pub(super) fn add_phase_writes(&mut self, program: &Program, phase: &Phase, iter: usize) {
            let nprocs = self.nprocs;
            let lowered: Vec<Lowered> =
                (0..nprocs).map(|me| lower(program, nprocs, me, phase, iter, &self.sole)).collect();
            self.unknown |=
                phase.accesses.iter().any(|a| a.span == ColSpan::Unknown && a.access.is_write());
            for p in 0..nprocs {
                for q in p + 1..nprocs {
                    self.overlap |= lowered[p].writes.iter().any(|wp| {
                        lowered[q].writes.iter().any(|wq| {
                            wp.range.intersect(&wq.range).is_some()
                                && (wp.lock.is_none() || wp.lock != wq.lock)
                        })
                    });
                }
            }
            for (p, l) in lowered.iter().enumerate() {
                if l.writes.is_empty() {
                    continue;
                }
                for q in 0..nprocs {
                    if q == p {
                        continue;
                    }
                    self.unseen[p * nprocs + q].extend(l.writes.iter().copied());
                }
            }
        }

        /// A full barrier: every processor receives every notice.
        pub(super) fn clear_all(&mut self) {
            for v in &mut self.unseen {
                v.clear();
            }
            self.unknown = false;
            self.overlap = false;
        }

        /// A lock acquire: writes made inside phases guarded by `lock` clear
        /// pair-wise along the acquire chain. Every critical section on `lock`
        /// is totally ordered, each holder's release flushes its guarded
        /// writes, and every grant merges the granter's timestamp — so by the
        /// time any processor enters a later phase guarded by the same lock,
        /// the chain has delivered it the notices of every earlier guarded
        /// write, whichever processors made them.
        pub(super) fn clear_lock(&mut self, lock: LockId) {
            for v in &mut self.unseen {
                v.retain(|w| w.lock != Some(lock));
            }
        }
    }

    /// Classifies the boundary into `next`'s occurrence at loop iteration
    /// `next_iter` given the writes accumulated so far (see `PendingWrites`)
    /// — the form `crate::compile` uses along its walk of the unrolled
    /// program. When `next` is lock-guarded the caller must have cleared the
    /// lock's own chain-ordered writes first (`PendingWrites::clear_lock`):
    /// whatever remains is what the acquire *cannot* deliver.
    pub(super) fn classify_against_pending(
        program: &Program,
        nprocs: usize,
        pending: &PendingWrites,
        next: &Phase,
        next_iter: usize,
    ) -> BoundaryAnalysis {
        let nexts: Vec<Lowered> = (0..nprocs)
            .map(|me| lower(program, nprocs, me, next, next_iter, &pending.sole))
            .collect();
        let refuse = |refusal| BoundaryAnalysis {
            class: BoundaryClass::FullBarrier { refusal: Some(refusal) },
            pairs: Vec::new(),
        };
        if pending.unknown || nexts.iter().any(|l| l.unknown) {
            return refuse(Refusal::NonAffine);
        }
        if pending.overlap {
            return refuse(Refusal::OverlappingWrites);
        }
        // Flow dependences: accumulated unsynchronized writes ∩ consumer reads,
        // per ordered pair.
        let mut pairs = Vec::new();
        let mut all_pushable = true;
        let mut any_cross_block = false;
        let mut any_locked = false;
        for producer in 0..nprocs {
            for (consumer, consumed) in nexts.iter().enumerate() {
                if producer == consumer {
                    continue;
                }
                let mut regions = Vec::new();
                for write in &pending.unseen[producer * nprocs + consumer] {
                    for &(read, via_all) in &consumed.reads {
                        if let Some(region) = write.range.intersect(&read) {
                            regions.push(region);
                            all_pushable &= write.is_final;
                            any_cross_block |= via_all;
                            any_locked |= write.lock.is_some();
                        }
                    }
                }
                if regions.is_empty() {
                    continue;
                }
                pairs.push(DepPair { producer, consumer, regions: AddrRange::coalesce(regions) });
            }
        }
        if pairs.is_empty() {
            return BoundaryAnalysis {
                class: match next.lock {
                    // Nothing the acquire chain does not already order: the
                    // entry is the acquire itself, validating the phase's
                    // sections on the grant.
                    Some(lock) => BoundaryClass::Lock(lock),
                    None => BoundaryClass::NoComm,
                },
                pairs,
            };
        }
        if next.lock.is_some() {
            // Dependences survive the chain clearing: they were written
            // unguarded or under a different lock, and the acquire cannot
            // deliver their notices.
            return refuse(Refusal::OutsideAcquireChain);
        }
        if any_locked {
            // Lock-ordered producers feeding an unguarded reader — the paper's
            // lock+barrier idiom (IS's histogram merge). The holder order is
            // runtime-determined, so no static producer naming is possible and
            // the barrier *is* the intended synchronization, not a refusal; it
            // is also required whenever any dependence is lock-ordered, which
            // is why a mixed boundary lands here too.
            return BoundaryAnalysis { class: BoundaryClass::FullBarrier { refusal: None }, pairs };
        }
        // `Push` needs every producer's copy of what it wrote to be final (pure
        // WRITE_ALL, or READ&WRITE_ALL by the bytes' sole writer): the raw
        // current copy then *is* the dependence's value and no write notices
        // are owed to anyone. A partial write, or one to bytes another
        // processor also writes, keeps its pages DSM-managed, and the barrier
        // that delivers their notices stays.
        let refusal = if any_cross_block {
            Refusal::NonNeighbourDependence
        } else if !all_pushable {
            Refusal::NotFinal
        } else {
            return BoundaryAnalysis { class: BoundaryClass::Push, pairs };
        };
        BoundaryAnalysis { class: BoundaryClass::FullBarrier { refusal: Some(refusal) }, pairs }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pagedmem::Addr;

    use super::*;
    use crate::ir::ArrayDecl;
    use crate::plan::{compile_at, Level};

    const ROWS: usize = 4;

    /// Three arrays of `cols` columns laid end to end from address 0, not
    /// page-aligned, and a fourth, one-row shape of the first's bytes: its
    /// blocks lie inside the first processors' blocks of `a`, so sorted by
    /// start a processor's write of `a` and another's of `a1` that it
    /// overlaps can have a third write between them.
    fn arrays(cols: usize) -> Vec<ArrayDecl> {
        let decl =
            |name, base, rows| ArrayDecl { name, base: Addr::new(base), rows, cols, elem_bytes: 8 };
        let bytes = ROWS * cols * 8;
        vec![
            decl("a", 0, ROWS),
            decl("b", bytes, ROWS),
            decl("c", 2 * bytes, ROWS),
            decl("a1", 0, 1),
        ]
    }

    fn at(array: usize, span: ColSpan, access: Access) -> SectionAccess {
        SectionAccess::new(array, span, access)
    }

    fn init() -> Phase {
        Phase::new("init", (0..3).map(|a| at(a, ColSpan::OwnBlock, Access::WriteAll)).collect())
    }

    fn stencil(name: &'static str, src: usize, dst: usize, halo: usize, write: Access) -> Phase {
        Phase::new(
            name,
            vec![
                at(src, ColSpan::UpdateHalo(halo), Access::Read),
                at(dst, ColSpan::UpdateBlock, write),
            ],
        )
    }

    fn looped(cols: usize, body: Vec<Phase>) -> Program {
        Program {
            arrays: arrays(cols),
            nodes: vec![Node::Phase(init()), Node::Repeat { times: 3, body }],
        }
    }

    /// One program per shape the walk must classify alike under both
    /// pending representations.
    fn cases(cols: usize) -> Vec<(&'static str, Program)> {
        use Access::{Read, ReadWrite, ReadWriteAll, WriteAll};
        let (lock_a, lock_b): (LockId, LockId) = (0, 1);
        vec![
            (
                "double-buffered stencil",
                looped(
                    cols,
                    vec![stencil("ab", 0, 1, 1, WriteAll), stencil("ba", 1, 0, 1, WriteAll)],
                ),
            ),
            (
                "sole-writer in-place sweep",
                looped(cols, vec![stencil("red", 0, 0, 1, ReadWriteAll)]),
            ),
            ("partial in-place sweep", looped(cols, vec![stencil("red", 0, 0, 1, ReadWrite)])),
            (
                "halo wider than a block",
                looped(
                    cols,
                    vec![stencil("ab", 0, 1, 5, WriteAll), stencil("ba", 1, 0, 3, WriteAll)],
                ),
            ),
            (
                "overlapping unguarded writes",
                looped(
                    cols,
                    vec![
                        Phase::new("spill", vec![at(1, ColSpan::UpdateHalo(1), WriteAll)]),
                        stencil("read", 1, 2, 1, WriteAll),
                    ],
                ),
            ),
            (
                "overlapping writes under one lock",
                looped(
                    cols,
                    vec![
                        Phase::guarded(
                            "merge",
                            vec![at(1, ColSpan::UpdateHalo(2), ReadWrite)],
                            lock_a,
                        ),
                        Phase::guarded(
                            "again",
                            vec![at(1, ColSpan::UpdateHalo(1), ReadWrite)],
                            lock_a,
                        ),
                        stencil("read", 1, 2, 1, WriteAll),
                    ],
                ),
            ),
            (
                "overlapping writes under different locks",
                looped(
                    cols,
                    vec![
                        Phase::guarded(
                            "left",
                            vec![at(1, ColSpan::UpdateHalo(1), ReadWrite)],
                            lock_a,
                        ),
                        Phase::guarded(
                            "right",
                            vec![at(1, ColSpan::UpdateHalo(1), ReadWrite)],
                            lock_b,
                        ),
                        Phase::new("read", vec![at(1, ColSpan::OwnBlock, Read)]),
                    ],
                ),
            ),
            (
                "overlapping writes through two shapes of one buffer",
                looped(
                    cols,
                    vec![
                        Phase::new(
                            "both",
                            vec![
                                at(0, ColSpan::OwnBlock, WriteAll),
                                at(3, ColSpan::OwnBlock, WriteAll),
                            ],
                        ),
                        stencil("read", 0, 1, 1, WriteAll),
                    ],
                ),
            ),
            (
                "non-affine write",
                looped(
                    cols,
                    vec![
                        stencil("ab", 0, 1, 1, WriteAll),
                        Phase::new("scatter", vec![at(2, ColSpan::Unknown, ReadWrite)]),
                        stencil("ba", 1, 0, 1, WriteAll),
                    ],
                ),
            ),
            (
                "non-affine read",
                looped(
                    cols,
                    vec![
                        stencil("ab", 0, 1, 1, WriteAll),
                        Phase::new("gather", vec![at(1, ColSpan::Unknown, Read)]),
                    ],
                ),
            ),
            (
                "all-span read",
                looped(
                    cols,
                    vec![
                        Phase::new("own", vec![at(0, ColSpan::OwnBlock, WriteAll)]),
                        Phase::new(
                            "sum",
                            vec![at(0, ColSpan::All, Read), at(2, ColSpan::OwnBlock, WriteAll)],
                        ),
                    ],
                ),
            ),
            (
                "ring, wrapped and clamped",
                looped(
                    cols,
                    vec![
                        Phase::new(
                            "shift",
                            vec![
                                at(0, ColSpan::BlockOf { offset: 1, wrap: true }, Read),
                                at(1, ColSpan::OwnBlock, WriteAll),
                            ],
                        ),
                        Phase::new(
                            "back",
                            vec![
                                at(1, ColSpan::BlockOf { offset: -2, wrap: false }, Read),
                                at(0, ColSpan::OwnBlock, WriteAll),
                            ],
                        ),
                    ],
                ),
            ),
            (
                "dependence across an unrelated phase",
                looped(
                    cols,
                    vec![
                        Phase::new("write", vec![at(0, ColSpan::UpdateBlock, WriteAll)]),
                        Phase::new("other", vec![at(2, ColSpan::OwnBlock, ReadWrite)]),
                        Phase::new("read", vec![at(0, ColSpan::UpdateHalo(1), Read)]),
                    ],
                ),
            ),
            (
                "pivot broadcast",
                looped(
                    cols,
                    vec![
                        Phase::new(
                            "pivot",
                            vec![at(0, ColSpan::Pivot, Read), at(1, ColSpan::Pivot, WriteAll)],
                        ),
                        Phase::new(
                            "update",
                            vec![
                                at(1, ColSpan::PivotReaders, Read),
                                at(0, ColSpan::OwnTail, ReadWrite),
                            ],
                        ),
                    ],
                ),
            ),
            (
                "guarded accumulation",
                looped(
                    cols,
                    vec![
                        Phase::guarded(
                            "merge",
                            vec![
                                at(0, ColSpan::OwnBlock, ReadWriteAll),
                                SectionAccess::accumulate(
                                    1,
                                    ColSpan::All,
                                    crate::ir::ReduceOp::WrappingAdd,
                                ),
                            ],
                            lock_a,
                        ),
                        Phase::new("rank", vec![at(1, ColSpan::OwnBlock, Read)]),
                    ],
                ),
            ),
        ]
    }

    /// Walks `program` as the planner does at `level`, the per-producer
    /// state and the pairwise oracle in step, asserts that every boundary
    /// classifies alike, and returns each boundary's class or refusal.
    fn walk_both(case: &str, program: &Program, nprocs: usize, level: Level) -> Vec<&'static str> {
        let phases = program.phases();
        let mut pending = PendingWrites::new(program, nprocs);
        let mut pairwise = oracle::PendingWrites::new(program, nprocs);
        let mut seen = Vec::new();
        for (b, w) in program.occurrences_with_iter().windows(2).enumerate() {
            let ((prev, prev_iter), (next, next_iter)) = (w[0], w[1]);
            pending.add_phase_writes(program, phases[prev], prev_iter);
            pairwise.add_phase_writes(program, phases[prev], prev_iter);
            if let Some(lock) = phases[next].lock {
                pending.clear_lock(lock);
                pairwise.clear_lock(lock);
            }
            let got = classify_against_pending(program, nprocs, &pending, phases[next], next_iter);
            let want = oracle::classify_against_pending(
                program,
                nprocs,
                &pairwise,
                phases[next],
                next_iter,
            );
            assert_eq!(got, want, "{case}: boundary {b} at {nprocs} processors ({level:?})");
            if let BoundaryClass::FullBarrier { .. } = level.admit(got.class) {
                pending.clear_all();
                pairwise.clear_all();
            }
            seen.push(match got.class {
                BoundaryClass::FullBarrier { refusal: Some(refusal) } => refusal.name(),
                class => class.name(),
            });
        }
        seen
    }

    #[test]
    fn the_per_producer_walk_classifies_every_boundary_as_the_pairwise_oracle() {
        let mut seen = BTreeSet::new();
        for nprocs in (1..=16).chain([64]) {
            // Two-column blocks, then uneven blocks.
            for cols in [2 * nprocs, 2 * nprocs + 1, 3 * nprocs + 2] {
                for (case, program) in cases(cols) {
                    for level in [Level::Stock, Level::Validate, Level::Full] {
                        seen.extend(walk_both(case, &program, nprocs, level));
                    }
                    if let Some((reduced, _)) = reducible(&program, nprocs) {
                        seen.extend(walk_both(case, &reduced, nprocs, Level::Full));
                    }
                }
            }
        }
        for class in [
            "no-comm",
            "push",
            "lock",
            "barrier",
            "overlapping-writes",
            "non-affine",
            "non-neighbour-dependence",
            "not-final",
            "outside-acquire-chain",
        ] {
            assert!(seen.contains(class), "no case classifies as {class}: {seen:?}");
        }
    }

    #[test]
    fn a_push_only_loop_keeps_each_producer_list_at_its_distinct_writes() {
        use Access::WriteAll;
        let jacobi = |iters| Program {
            arrays: arrays(128),
            nodes: vec![
                Node::Phase(init()),
                Node::Repeat {
                    times: iters,
                    body: vec![stencil("ab", 0, 1, 1, WriteAll), stencil("ba", 1, 0, 1, WriteAll)],
                },
            ],
        };
        let (long, short) = (jacobi(1000), jacobi(2));
        for nprocs in [2, 8, 64] {
            // Each processor writes its own blocks of a, b and c, then the
            // update blocks of b and a: the same bytes inside the cluster,
            // and two more on each edge, where the fixed boundary column is
            // not updated.
            let distinct = |p: ProcId| if p == 0 || p == nprocs - 1 { 5 } else { 3 };
            let phases = long.phases();
            let mut pending = PendingWrites::new(&long, nprocs);
            for w in long.occurrences_with_iter().windows(2) {
                let ((prev, prev_iter), (next, next_iter)) = (w[0], w[1]);
                pending.add_phase_writes(&long, phases[prev], prev_iter);
                let analysis =
                    classify_against_pending(&long, nprocs, &pending, phases[next], next_iter);
                assert_eq!(analysis.class, BoundaryClass::Push, "nothing is ever cleared");
                for (p, unseen) in pending.unseen.iter().enumerate() {
                    assert!(unseen.len() <= distinct(p), "P{p} holds {unseen:?}");
                }
            }
            for (p, unseen) in pending.unseen.iter().enumerate() {
                assert_eq!(unseen.len(), distinct(p), "P{p} holds {unseen:?}");
            }
            for level in [Level::Validate, Level::Full] {
                let (long, short) =
                    (compile_at(&long, nprocs, level), compile_at(&short, nprocs, level));
                for me in 0..nprocs {
                    let prefix = &short.plan_for(me).steps;
                    assert_eq!(
                        &long.plan_for(me).steps[..prefix.len()],
                        &prefix[..],
                        "P{me} ({level:?})"
                    );
                }
            }
        }
    }
}
