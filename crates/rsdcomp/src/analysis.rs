//! Regular-section dependence analysis over phase boundaries.
//!
//! For the boundary between a producer phase and a consumer phase the
//! analyzer enumerates, per processor pair, the *flow dependences* — bytes
//! the producer writes that the consumer reads — by intersecting the two
//! phases' lowered sections under the block distribution, and classifies
//! the boundary:
//!
//! * [`BoundaryClass::NoComm`] — no inter-processor dependence: the barrier
//!   is dropped entirely.
//! * [`BoundaryClass::Push`] — every dependence's producing section is
//!   *final*: a pure `WRITE_ALL`, or a `READ&WRITE_ALL` whose processor is
//!   the only writer of its bytes anywhere in the program (red-black SOR's
//!   in-place half-sweeps). The producer knows both the consumer set and
//!   the final bytes, so the data moves point-to-point and the DSM protocol
//!   (twins, diffs, notices) is bypassed wholesale.
//! * [`BoundaryClass::EliminatedBarrier`] — only nearest-neighbour flow
//!   dependences, some of them out of a section that is not final (a
//!   partial write, or bytes another processor also writes): the barrier is
//!   replaced by the point-to-point ready/ack sync whose acks merge data
//!   and consistency information, but the pages stay DSM-managed.
//! * [`BoundaryClass::FullBarrier`] — everything else, with the
//!   [`Refusal`] recording why the analyzer declined to optimize. Refusal
//!   is always sound: the full barrier preserves every happens-before edge.
//! * [`BoundaryClass::Reduce`] — the exit of a phase whose only
//!   cross-processor writes are accumulations into one section
//!   (`reducible` decides, for the whole program): the partials are
//!   reduced over the barrier tree, and every other dependence out of the
//!   phase is no-comm or pushable.

use std::sync::Arc;

use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::ir::{Access, ColSpan, Node, Phase, Program};
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
    /// A dependence is not a nearest-neighbour exchange — a cross-block
    /// access (e.g. the `All`-span read of a reduction) makes every
    /// processor depend on every other, and replacing the barrier with a
    /// dense point-to-point exchange would re-create it, worse.
    NonNeighbourDependence,
    /// The boundary is pushable in isolation, but the program flushes
    /// intervals elsewhere (an eliminated or full barrier exists): raw
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
        /// Why elimination was refused; `None` when the barrier was kept by
        /// the garbage-collection policy rather than a soundness refusal.
        refusal: Option<Refusal>,
        /// The boundary was eliminable but retained so the GC horizon keeps
        /// advancing (one real barrier per loop iteration whenever the body
        /// flushes intervals at eliminated boundaries).
        gc_forced: bool,
    },
    /// The barrier is replaced by the point-to-point ready/ack sync with
    /// named producers (merged data+sync acks).
    EliminatedBarrier,
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
            BoundaryClass::EliminatedBarrier => "eliminated-barrier",
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
/// dependence pairs the plan generator turns into neighbour sets or pushes.
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
#[derive(Debug, Clone, Copy)]
struct WriteEntry {
    range: AddrRange,
    is_final: bool,
    lock: Option<LockId>,
}

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

/// The bytes of a program that exactly one processor writes: what makes an
/// in-place `READ&WRITE_ALL` section final.
///
/// Computed once per program, from every occurrence of every phase lowered
/// for every processor. A byte two processors write, in any phases at any
/// iterations, is *contested*; a non-affine write anywhere makes every byte
/// so, since its extent is unknowable.
#[derive(Debug, Clone)]
struct SoleWriters {
    /// The contested bytes, coalesced; `None` when a write is non-affine.
    contested: Option<Vec<AddrRange>>,
}

impl SoleWriters {
    /// Nothing proven: only `WRITE_ALL` sections are final.
    const NONE: SoleWriters = SoleWriters { contested: None };

    fn of(program: &Program, nprocs: usize) -> SoleWriters {
        let phases = program.phases();
        if phases
            .iter()
            .flat_map(|phase| &phase.accesses)
            .any(|a| a.span == ColSpan::Unknown && a.access.is_write())
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
                let l = lower(program, nprocs, me, phase, iter, &SoleWriters::NONE);
                mine.extend(l.writes.iter().map(|w| w.range));
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
/// per ordered processor pair `(p, q)`, every write of `p` that `q` has not
/// yet received consistency information for — which mirrors the runtime
/// exactly, where writes stay dirty until the next flush boundary. A full
/// barrier clears everything (its departures carry every notice to every
/// processor); an eliminated barrier clears only the named pairs (the ack
/// carries all of the producer's notices to that consumer); a push clears
/// nothing (it moves bytes, not notices — conservative, and harmless
/// because re-pushing current bytes is idempotent).
#[derive(Debug, Clone)]
pub struct PendingWrites {
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
    pub fn new(program: &Program, nprocs: usize) -> PendingWrites {
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
    pub fn add_phase_writes(&mut self, program: &Program, phase: &Phase, iter: usize) {
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
    pub fn clear_all(&mut self) {
        for v in &mut self.unseen {
            v.clear();
        }
        self.unknown = false;
        self.overlap = false;
    }

    /// An eliminated barrier's ack: `consumer` received all of
    /// `producer`'s notices.
    pub fn clear_pair(&mut self, producer: ProcId, consumer: ProcId) {
        self.unseen[producer * self.nprocs + consumer].clear();
    }

    /// A lock acquire: writes made inside phases guarded by `lock` clear
    /// pair-wise along the acquire chain. Every critical section on `lock`
    /// is totally ordered, each holder's release flushes its guarded
    /// writes, and every grant merges the granter's timestamp — so by the
    /// time any processor enters a later phase guarded by the same lock,
    /// the chain has delivered it the notices of every earlier guarded
    /// write, whichever processors made them.
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
    let nexts: Vec<Lowered> =
        (0..nprocs).map(|me| lower(program, nprocs, me, next, next_iter, &pending.sole)).collect();
    let refuse = |refusal| BoundaryAnalysis {
        class: BoundaryClass::FullBarrier { refusal: Some(refusal), gc_forced: false },
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
    let mut all_neighbours = true;
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
            all_neighbours &= producer.abs_diff(consumer) == 1;
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
        return BoundaryAnalysis {
            class: BoundaryClass::FullBarrier { refusal: None, gc_forced: false },
            pairs,
        };
    }
    if any_cross_block {
        return BoundaryAnalysis {
            class: BoundaryClass::FullBarrier {
                refusal: Some(Refusal::NonNeighbourDependence),
                gc_forced: false,
            },
            pairs,
        };
    }
    // `Push` needs every producer's copy of what it wrote to be final (pure
    // WRITE_ALL, or READ&WRITE_ALL by the bytes' sole writer): the raw
    // current copy then *is* the dependence's value and no write notices
    // are owed to anyone. A partial write, or one to bytes another
    // processor also writes, keeps its pages DSM-managed, so at most the
    // barrier — not the protocol — can go.
    let class = if all_pushable {
        BoundaryClass::Push
    } else if all_neighbours {
        BoundaryClass::EliminatedBarrier
    } else {
        BoundaryClass::FullBarrier {
            refusal: Some(Refusal::NonNeighbourDependence),
            gc_forced: false,
        }
    };
    BoundaryAnalysis { class, pairs }
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
