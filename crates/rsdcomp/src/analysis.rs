//! Regular-section dependence analysis over phase boundaries.
//!
//! For the boundary between a producer phase and a consumer phase the
//! analyzer finds the *flow dependences* between processors — bytes the
//! producer writes that the consumer reads — and classifies the boundary:
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
//!
//! The analysis is symbolic in the processor id. A pending write is the
//! span every processor writes, not the bytes of each; a question about
//! processor pairs is answered from the spans' closed forms
//! ([`crate::form`]) at a bounded set of probe processors, so classifying
//! a boundary costs the same on 2 processors as on 128. Only a plan, built
//! for one processor at a time, lowers the spans to that processor's bytes
//! ([`sends`], [`sources`]).

use std::sync::Arc;

use ctrt::Push;
use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::form::{aligned, cols_touching, probes, Form, Procs};
use crate::ir::{Access, ArrayDecl, ArrayId, ColSpan, Node, Phase, Program, SectionAccess};
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

/// The analyzer's full result for one boundary: the classification plus
/// every dependence pair, each processor's share of which its plan turns
/// into pushes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundaryAnalysis {
    /// The classification.
    pub class: BoundaryClass,
    /// Every inter-processor flow dependence (empty for `NoComm`).
    pub pairs: Vec<DepPair>,
}

/// A write every processor makes, in symbolic form: the span of one access
/// of a phase at one iteration (0 for a span that ignores it), with the
/// access kind and the lock guarding the phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SymWrite {
    array: ArrayId,
    span: ColSpan,
    iter: usize,
    access: Access,
    lock: Option<LockId>,
}

impl SymWrite {
    fn of(access: &SectionAccess, iter: usize, lock: Option<LockId>) -> SymWrite {
        let iter = if access.span.iter_dependent() { iter } else { 0 };
        SymWrite { array: access.array, span: access.span, iter, access: access.access, lock }
    }
}

/// A flow dependence between two spans: some processor's pending `write`
/// that another processor's read of the next phase — its access `read` —
/// covers. A plan's pushes and receives are its processor's share of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dep {
    write: SymWrite,
    read: usize,
}

/// An affine span in closed form, with its array.
#[derive(Debug, Clone)]
struct Lowered<'a> {
    decl: &'a ArrayDecl,
    form: Form,
}

impl<'a> Lowered<'a> {
    /// `span` of `array` at `iter`, or `None` for a non-affine span.
    fn new(
        program: &'a Program,
        nprocs: usize,
        array: ArrayId,
        span: ColSpan,
        iter: usize,
    ) -> Option<Self> {
        let decl = &program.arrays[array];
        Some(Lowered { decl, form: Form::of(span, decl.cols, nprocs, iter)? })
    }

    fn write(program: &'a Program, nprocs: usize, w: &SymWrite) -> Self {
        Lowered::new(program, nprocs, w.array, w.span, w.iter).expect("pending writes are affine")
    }

    /// Processor `p`'s bytes, if it has any.
    fn bytes(&self, p: ProcId) -> Option<AddrRange> {
        let cols = self.form.at(p);
        (!cols.is_empty()).then(|| self.decl.col_range(cols.start, cols.end))
    }

    /// The processors whose bytes share one with `bytes`.
    fn holders(&self, bytes: &AddrRange) -> Procs {
        self.form.holders(&cols_touching(self.decl, bytes))
    }
}

/// Whether some processor `p`'s `a` shares a byte with another processor's
/// `b` while `also(p)` holds, where `also` looks at `a` and `context` only.
///
/// The producers that can meet `b` at all are those meeting its hull.
/// Among many of them only the probes ([`probes`]) are tried: wherever no
/// landmark of any span involved lies within the spans' reach, the next
/// processor sees the same spans shifted by one block, so it answers as its
/// predecessor. Two arrays that alias without sharing a shape relate by no
/// such shift; every candidate is tried for them, as for a few.
fn some_pair(
    a: &Lowered,
    b: &Lowered,
    context: &[Lowered],
    mut also: impl FnMut(ProcId) -> bool,
) -> bool {
    /// Fewer candidates than this are cheaper to try than to probe.
    const FEW: usize = 32;
    let hull = b.form.hull();
    if hull.is_empty() {
        return false;
    }
    let candidates = a.holders(&b.decl.col_range(hull.start, hull.end));
    let spans = || [a, b].into_iter().chain(context);
    let tried: Vec<ProcId> = if candidates.len() < FEW || !spans().all(|s| aligned(a.decl, s.decl))
    {
        candidates.iter().collect()
    } else {
        let mut landmarks = Vec::new();
        spans().for_each(|s| s.form.landmarks(&mut landmarks));
        // A processor's answer looks at the blocks within two spans' reach
        // of its own, and a landmark seen through an offset lies up to one
        // more reach away.
        let reach = spans().map(|s| s.form.reach()).max().unwrap_or(0);
        probes(&candidates, &mut landmarks, 2 + 3 * reach)
    };
    #[cfg(test)]
    crate::form::PROBES.with(|n| n.set(n.get() + tried.len()));
    tried
        .into_iter()
        .any(|p| a.bytes(p).is_some_and(|bytes| b.holders(&bytes).has_other_than(p)) && also(p))
}

/// Writes not yet synchronized to the other processors, accumulated along
/// the unrolled execution order.
///
/// A dependence can span *several* phase boundaries (the write in phase
/// `A`, the read two phases later in `C`, with a dependence-free boundary
/// between): analyzing only adjacent phases would silently drop the one
/// barrier enforcing it. The compiler therefore walks the program carrying
/// every write that the other processors have not yet received consistency
/// information for — which mirrors the runtime exactly, where writes stay
/// dirty until the next flush boundary. A full barrier clears everything
/// (its departures carry every notice to every processor); a lock acquire
/// clears the lock's own guarded writes; a push clears nothing (it moves
/// bytes, not notices — conservative, and harmless because re-pushing
/// current bytes is idempotent).
///
/// One symbolic list is exact: every processor runs every phase, a write
/// is pending for every processor but its writer, and every clear is
/// uniform over processors, so a list per producer would hold the same
/// spans lowered for each. A write equal to one already pending is not
/// added again, and one that a pending write of the same kind and lock
/// covers at every processor is not looked at: dependence regions are
/// coalesced, finality is an AND and lock-ordering an OR, so neither
/// changes a classification — and a loop that is never cleared keeps a
/// list the size of its distinct writes.
#[derive(Debug)]
pub(crate) struct PendingWrites<'a> {
    program: &'a Program,
    nprocs: usize,
    /// Every distinct write of the program, which decides whether a
    /// `READ&WRITE_ALL` section's writer is the only one of its bytes;
    /// `None` when that cannot be proven (a non-affine write) or nothing
    /// asks (no section is `READ&WRITE_ALL`), and only `WRITE_ALL` is final.
    writers: Option<Vec<Lowered<'a>>>,
    /// The distinct pending writes.
    writes: Vec<SymWrite>,
    /// Those no other pending write of the same kind and lock covers at
    /// every processor, with their closed forms: the ones dependences are
    /// looked for in. A covered write clears with the one covering it.
    covering: Vec<(SymWrite, Lowered<'a>)>,
    /// A non-affine write is pending: its extent is unknowable, so every
    /// boundary until the next full barrier must refuse.
    unknown: bool,
    /// An overlapping cross-processor write is pending: the region's value
    /// is order-dependent at section granularity, so every boundary until
    /// the next full barrier must refuse. Writes guarded by the *same*
    /// lock are exempt — the acquire chain serializes and orders them.
    overlap: bool,
    /// The unguarded write sets already checked for overlap, and the answer.
    checked: Vec<(Vec<SymWrite>, bool)>,
}

impl<'a> PendingWrites<'a> {
    /// No pending writes (the start of `program`, run on `nprocs`
    /// processors).
    pub(crate) fn new(program: &'a Program, nprocs: usize) -> PendingWrites<'a> {
        let phases = program.phases();
        let accesses = || phases.iter().flat_map(|phase| &phase.accesses);
        let provable = !accesses().any(|a| a.span == ColSpan::Unknown && a.access.is_write())
            && accesses().any(|a| a.access == Access::ReadWriteAll);
        let writers = provable.then(|| {
            let mut distinct: Vec<SymWrite> = Vec::new();
            let mut seen = vec![false; phases.len()];
            for (id, iter) in program.occurrences_with_iter() {
                // A phase whose spans ignore the iteration symbol writes the
                // same bytes at every occurrence.
                if std::mem::replace(&mut seen[id], true) && !phases[id].iter_dependent() {
                    continue;
                }
                for access in phases[id].accesses.iter().filter(|a| a.writes()) {
                    let w = SymWrite::of(access, iter, None);
                    if !distinct.contains(&w) {
                        distinct.push(w);
                    }
                }
            }
            distinct.iter().map(|w| Lowered::write(program, nprocs, w)).collect()
        });
        PendingWrites {
            program,
            nprocs,
            writers,
            writes: Vec::new(),
            covering: Vec::new(),
            unknown: false,
            overlap: false,
            checked: Vec::new(),
        }
    }

    /// Accumulates the writes of `phase`'s occurrence at loop iteration
    /// `iter` (every other processor becomes a potential consumer),
    /// recording non-affine writes and unordered cross-processor write
    /// overlaps as sticky refusal conditions.
    pub(crate) fn add_phase_writes(&mut self, phase: &Phase, iter: usize) {
        self.unknown |=
            phase.accesses.iter().any(|a| a.span == ColSpan::Unknown && a.access.is_write());
        let writes: Vec<SymWrite> = phase
            .accesses
            .iter()
            .filter(|a| a.writes() && a.span != ColSpan::Unknown)
            .map(|a| SymWrite::of(a, iter, phase.lock))
            .collect();
        // Writes of one phase share its lock: only an unguarded phase's
        // overlapping writes are unordered.
        if phase.lock.is_none() && !self.overlap {
            self.overlap = match self.checked.iter().find(|(checked, _)| *checked == writes) {
                Some(&(_, overlap)) => overlap,
                None => {
                    let lowered: Vec<Lowered> = writes
                        .iter()
                        .map(|w| Lowered::write(self.program, self.nprocs, w))
                        .collect();
                    let overlap = lowered
                        .iter()
                        .enumerate()
                        .any(|(i, a)| lowered[i..].iter().any(|b| some_pair(a, b, &[], |_| true)));
                    self.checked.push((writes.clone(), overlap));
                    overlap
                }
            };
        }
        for write in writes {
            if self.writes.contains(&write) {
                continue;
            }
            self.writes.push(write);
            // A write whose every processor's bytes a pending one of the same
            // kind already covers adds no dependence, and no stale copy.
            let lowered = Lowered::write(self.program, self.nprocs, &write);
            if !self.covering.iter().any(|(w, l)| {
                (w.array, w.access, w.lock) == (write.array, write.access, write.lock)
                    && l.form.covers(&lowered.form)
            }) {
                self.covering.push((write, lowered));
            }
        }
    }

    /// A full barrier: every processor receives every notice.
    pub(crate) fn clear_all(&mut self) {
        self.writes.clear();
        self.covering.clear();
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
    pub(crate) fn clear_lock(&mut self, lock: LockId) {
        self.writes.retain(|w| w.lock != Some(lock));
        self.covering.retain(|(w, _)| w.lock != Some(lock));
    }

    /// The distinct pending writes.
    pub(crate) fn writes(&self) -> &[SymWrite] {
        &self.writes
    }

    /// Whether a sticky refusal condition is pending: every boundary until
    /// the next full barrier refuses.
    pub(crate) fn refuses(&self) -> bool {
        self.unknown || self.overlap
    }

    /// Whether some processor's write `w` reaches another processor's read
    /// `r` out of a copy that is not final: a partial write, a guarded one,
    /// or bytes another processor also writes somewhere in the program.
    fn reaches_from_a_stale_copy(&self, w: &SymWrite, lowered: &Lowered, r: &Lowered) -> bool {
        match (w.access, w.lock, &self.writers) {
            (Access::WriteAll, ..) => false,
            (Access::ReadWriteAll, None, Some(writers)) => some_pair(lowered, r, writers, |p| {
                let mine = lowered.bytes(p).expect("a dependence has bytes");
                writers.iter().any(|v| v.holders(&mine).has_other_than(p))
            }),
            _ => true,
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
/// the classified walk. The refusals are decided from the spans' closed
/// forms; the wanted words, one list per processor that every processor's
/// reduction routes by, are the one output as wide as the cluster.
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
                let cols = Form::of(span, decl.cols, nprocs, 0).expect("affine").hull();
                if cols.is_empty() {
                    return None;
                }
                Some((array, decl.col_range(cols.start, cols.end)))
            }
        });
    }
    if hulls.iter().all(Option::is_none) {
        return None;
    }
    // Every other access that meets an accumulated section, with the
    // processors whose span meets it.
    let mut readers: Vec<(usize, Lowered, Procs)> = Vec::new();
    let mut seen = vec![false; phases.len()];
    for (id, iter) in program.occurrences_with_iter() {
        if std::mem::replace(&mut seen[id], true) && !phases[id].iter_dependent() {
            continue;
        }
        for access in phases[id].accesses.iter().filter(|a| a.accumulates.is_none()) {
            let Some(lowered) = Lowered::new(program, nprocs, access.array, access.span, iter)
            else {
                if hulls.iter().flatten().any(|&(array, _)| array == access.array) {
                    return None;
                }
                continue;
            };
            for (acc, hull) in hulls.iter().enumerate() {
                let Some((_, hull)) = hull else { continue };
                let holders = lowered.holders(hull);
                if holders.is_empty() {
                    continue;
                }
                if access.writes() || acc == id {
                    return None;
                }
                readers.push((acc, lowered.clone(), holders));
            }
        }
    }
    let mut wants: Vec<Vec<Vec<AddrRange>>> = vec![vec![Vec::new(); nprocs]; phases.len()];
    for (acc, lowered, holders) in &readers {
        let (_, hull) = hulls[*acc].expect("a reader meets an accumulated section");
        for me in holders.iter() {
            let bytes = lowered.bytes(me).expect("a holder has bytes");
            wants[*acc][me].extend(bytes.intersect(&hull));
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
/// program — with the dependences found on the way (none when a refusal
/// decided before any was looked for). When `next` is lock-guarded the
/// caller must have cleared the lock's own chain-ordered writes first
/// ([`PendingWrites::clear_lock`]): whatever remains is what the acquire
/// *cannot* deliver.
pub(crate) fn classify_against_pending(
    pending: &PendingWrites,
    next: &Phase,
    next_iter: usize,
) -> (BoundaryClass, Vec<Dep>) {
    let refuse = |refusal| BoundaryClass::FullBarrier { refusal: Some(refusal) };
    if pending.unknown || next.accesses.iter().any(|a| a.span == ColSpan::Unknown) {
        return (refuse(Refusal::NonAffine), Vec::new());
    }
    if pending.overlap {
        return (refuse(Refusal::OverlappingWrites), Vec::new());
    }
    let reads: Vec<(usize, Lowered, bool)> = next
        .accesses
        .iter()
        .enumerate()
        .filter(|(_, a)| a.reads())
        .map(|(i, a)| {
            let lowered = Lowered::new(pending.program, pending.nprocs, a.array, a.span, next_iter);
            (i, lowered.expect("affine"), a.span == ColSpan::All)
        })
        .collect();
    // Flow dependences: pending writes some processor makes that another
    // reads, one (write, read) pair of spans at a time.
    let mut found = Vec::new();
    for (w, lowered) in &pending.covering {
        for (read, r, via_all) in &reads {
            if some_pair(lowered, r, &[], |_| true) {
                found.push((w, lowered, r, *via_all, *read));
            }
        }
    }
    let deps = found.iter().map(|&(&write, .., read)| Dep { write, read }).collect();
    let class = if found.is_empty() {
        match next.lock {
            // Nothing the acquire chain does not already order: the entry
            // is the acquire itself, validating the phase's sections on the
            // grant.
            Some(lock) => BoundaryClass::Lock(lock),
            None => BoundaryClass::NoComm,
        }
    } else if next.lock.is_some() {
        // Dependences survive the chain clearing: they were written
        // unguarded or under a different lock, and the acquire cannot
        // deliver their notices.
        return (refuse(Refusal::OutsideAcquireChain), Vec::new());
    } else if found.iter().any(|(w, ..)| w.lock.is_some()) {
        // Lock-ordered producers feeding an unguarded reader — the paper's
        // lock+barrier idiom (IS's histogram merge). The holder order is
        // runtime-determined, so no static producer naming is possible and
        // the barrier *is* the intended synchronization, not a refusal; it
        // is also required whenever any dependence is lock-ordered, which
        // is why a mixed boundary lands here too.
        BoundaryClass::FullBarrier { refusal: None }
    } else if found.iter().any(|&(.., via_all, _)| via_all) {
        // `Push` needs every producer's copy of what it wrote to be final
        // (pure WRITE_ALL, or READ&WRITE_ALL by the bytes' sole writer): the
        // raw current copy then *is* the dependence's value and no write
        // notices are owed to anyone. A partial write, or one to bytes
        // another processor also writes, keeps its pages DSM-managed, and
        // the barrier that delivers their notices stays.
        refuse(Refusal::NonNeighbourDependence)
    } else if found
        .iter()
        .any(|(w, lowered, r, ..)| pending.reaches_from_a_stale_copy(w, lowered, r))
    {
        refuse(Refusal::NotFinal)
    } else {
        BoundaryClass::Push
    };
    (class, deps)
}

/// What processor `me` sends across a boundary: per consumer, ascending,
/// the bytes of its writes in `deps` that the consumer's reads of `next`
/// at `next_iter` cover, coalesced.
pub(crate) fn sends(
    program: &Program,
    nprocs: usize,
    deps: &[Dep],
    next: &Phase,
    next_iter: usize,
    me: ProcId,
) -> Vec<Push> {
    let mut found: Vec<(ProcId, AddrRange)> = Vec::new();
    for dep in deps {
        let Some(mine) = Lowered::write(program, nprocs, &dep.write).bytes(me) else { continue };
        let read = &next.accesses[dep.read];
        let r = Lowered::new(program, nprocs, read.array, read.span, next_iter).expect("affine");
        for consumer in r.holders(&mine).iter().filter(|&c| c != me) {
            let theirs = r.bytes(consumer).expect("a holder has bytes");
            found.extend(mine.intersect(&theirs).map(|region| (consumer, region)));
        }
    }
    found.sort_by_key(|&(consumer, _)| consumer);
    found
        .chunk_by(|a, b| a.0 == b.0)
        .map(|run| Push {
            dest: run[0].0,
            regions: AddrRange::coalesce(run.iter().map(|&(_, region)| region).collect()),
        })
        .collect()
}

/// The processors whose writes in `deps` processor `me`'s reads of `next`
/// at `next_iter` depend on, ascending.
pub(crate) fn sources(
    program: &Program,
    nprocs: usize,
    deps: &[Dep],
    next: &Phase,
    next_iter: usize,
    me: ProcId,
) -> Vec<ProcId> {
    let mut producers = Vec::new();
    for dep in deps {
        let read = &next.accesses[dep.read];
        let r = Lowered::new(program, nprocs, read.array, read.span, next_iter).expect("affine");
        let Some(mine) = r.bytes(me) else { continue };
        let w = Lowered::write(program, nprocs, &dep.write);
        producers.extend(w.holders(&mine).iter().filter(|&p| p != me));
    }
    producers.sort_unstable();
    producers.dedup();
    producers
}

/// Analyzes the single boundary between `prev` (producer phase) and `next`
/// (consumer phase) for an `nprocs`-processor run, considering only
/// `prev`'s writes — the stateless form, suitable for inspecting one
/// boundary in isolation, with every processor's dependences spelled out.
/// [`crate::compile`] instead accumulates the writes of *every* phase since
/// the last synchronization that delivered them (`PendingWrites`), so
/// dependences spanning several boundaries are seen too.
pub fn analyze_boundary(
    program: &Program,
    nprocs: usize,
    prev: &Phase,
    next: &Phase,
) -> BoundaryAnalysis {
    let mut pending = PendingWrites::new(program, nprocs);
    pending.add_phase_writes(prev, 0);
    if let Some(lock) = next.lock {
        pending.clear_lock(lock);
    }
    let (class, deps) = classify_against_pending(&pending, next, 0);
    BoundaryAnalysis { class, pairs: pairs(&pending, &deps, next, 0) }
}

/// Every processor's share of `deps`, as producer–consumer pairs.
fn pairs(pending: &PendingWrites, deps: &[Dep], next: &Phase, next_iter: usize) -> Vec<DepPair> {
    let (program, nprocs) = (pending.program, pending.nprocs);
    (0..nprocs)
        .flat_map(|producer| {
            sends(program, nprocs, deps, next, next_iter, producer)
                .into_iter()
                .map(move |push| DepPair { producer, consumer: push.dest, regions: push.regions })
        })
        .collect()
}

#[cfg(test)]
mod oracle {
    //! The pairwise walk, kept as it was: a pending list per ordered
    //! processor pair, every pair intersected at every boundary. `tests`
    //! holds the symbolic walk to it.

    use super::*;
    use crate::plan::concrete::{SoleWriters, WriteEntry};

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
    /// page-aligned; a fourth, one-row shape of the first's bytes: its
    /// blocks lie inside the first processors' blocks of `a`, so sorted by
    /// start a processor's write of `a` and another's of `a1` that it
    /// overlaps can have a third write between them; and a fifth of the
    /// first's shape, half a column further on.
    fn arrays(cols: usize) -> Vec<ArrayDecl> {
        let decl =
            |name, base, rows| ArrayDecl { name, base: Addr::new(base), rows, cols, elem_bytes: 8 };
        let bytes = ROWS * cols * 8;
        vec![
            decl("a", 0, ROWS),
            decl("b", bytes, ROWS),
            decl("c", 2 * bytes, ROWS),
            decl("a1", 0, 1),
            decl("a_half", ROWS * 4, ROWS),
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
                "far rings",
                looped(
                    cols,
                    vec![
                        Phase::new(
                            "shift",
                            vec![
                                at(0, ColSpan::BlockOf { offset: 3, wrap: true }, Read),
                                at(1, ColSpan::OwnBlock, WriteAll),
                            ],
                        ),
                        Phase::new(
                            "back",
                            vec![
                                at(1, ColSpan::BlockOf { offset: -5, wrap: true }, Read),
                                at(1, ColSpan::UpdateHalo(4), Read),
                                at(0, ColSpan::OwnBlock, WriteAll),
                            ],
                        ),
                    ],
                ),
            ),
            (
                "a view of one buffer half a column on",
                looped(
                    cols,
                    vec![
                        Phase::new("own", vec![at(0, ColSpan::UpdateBlock, ReadWriteAll)]),
                        Phase::new(
                            "shifted",
                            vec![
                                at(4, ColSpan::UpdateHalo(1), Read),
                                at(2, ColSpan::OwnBlock, WriteAll),
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

    /// Walks `program` as the planner does at `level`, the symbolic state
    /// and the pairwise oracle in step, asserts that every boundary
    /// classifies alike with the same dependence pairs, and returns each
    /// boundary's class or refusal.
    fn walk_both(case: &str, program: &Program, nprocs: usize, level: Level) -> Vec<&'static str> {
        let phases = program.phases();
        let mut pending = PendingWrites::new(program, nprocs);
        let mut pairwise = oracle::PendingWrites::new(program, nprocs);
        let mut seen = Vec::new();
        for (b, w) in program.occurrences_with_iter().windows(2).enumerate() {
            let ((prev, prev_iter), (next, next_iter)) = (w[0], w[1]);
            pending.add_phase_writes(phases[prev], prev_iter);
            pairwise.add_phase_writes(program, phases[prev], prev_iter);
            if let Some(lock) = phases[next].lock {
                pending.clear_lock(lock);
                pairwise.clear_lock(lock);
            }
            let (class, deps) = classify_against_pending(&pending, phases[next], next_iter);
            let got =
                BoundaryAnalysis { class, pairs: pairs(&pending, &deps, phases[next], next_iter) };
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
        for nprocs in (1..=16).chain([37, 64]) {
            // Single-column blocks, two-column blocks, then uneven blocks.
            for cols in [nprocs, 2 * nprocs, 2 * nprocs + 1, 3 * nprocs + 2] {
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
        // Every span written against every span read, on clusters wide
        // enough that only the probes are tried.
        let spans = [
            ColSpan::OwnBlock,
            ColSpan::UpdateBlock,
            ColSpan::UpdateHalo(1),
            ColSpan::UpdateHalo(3),
            ColSpan::BlockOf { offset: 1, wrap: true },
            ColSpan::BlockOf { offset: -2, wrap: false },
            ColSpan::BlockOf { offset: 3, wrap: true },
            ColSpan::All,
            ColSpan::Pivot,
            ColSpan::PivotReaders,
            ColSpan::OwnTail,
        ];
        for nprocs in [33, 40] {
            for cols in [nprocs, 2 * nprocs + 1, 3 * nprocs + 2] {
                for (write, read) in spans.iter().flat_map(|&w| spans.map(|r| (w, r))) {
                    for access in [Access::WriteAll, Access::ReadWriteAll] {
                        let program = looped(
                            cols,
                            vec![
                                Phase::new("write", vec![at(0, write, access)]),
                                Phase::new(
                                    "read",
                                    vec![
                                        at(0, read, Access::Read),
                                        at(2, ColSpan::OwnBlock, access),
                                    ],
                                ),
                            ],
                        );
                        let case = format!("{write:?} read as {read:?} ({access:?})");
                        seen.extend(walk_both(&case, &program, nprocs, Level::Full));
                    }
                }
                // In-place sweeps after a shifted `WRITE_ALL`, which contests
                // every block it lands in: every copy but the first is stale,
                // or only the last, so the first candidate alone answers
                // wrong and a probe at the far edge must find them.
                for offset in [1, nprocs as isize - 1] {
                    let shift = ColSpan::BlockOf { offset, wrap: false };
                    let program = looped(
                        cols,
                        vec![
                            Phase::new("shift", vec![at(0, shift, Access::WriteAll)]),
                            stencil("sweep", 0, 0, 1, Access::ReadWriteAll),
                        ],
                    );
                    let case = format!("a sweep past a shift by {offset}");
                    seen.extend(walk_both(&case, &program, nprocs, Level::Full));
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

    /// Jacobi's shape on `cols` columns: both grids initialised, then
    /// `iters` pairs of sweeps.
    fn jacobi(cols: usize, iters: usize) -> Program {
        use Access::WriteAll;
        let own = |a| at(a, ColSpan::OwnBlock, WriteAll);
        Program {
            arrays: arrays(cols),
            nodes: vec![
                Node::Phase(Phase::new("init", vec![own(0), own(1)])),
                Node::Repeat {
                    times: iters,
                    body: vec![stencil("ab", 0, 1, 1, WriteAll), stencil("ba", 1, 0, 1, WriteAll)],
                },
            ],
        }
    }

    #[test]
    fn a_push_only_loop_keeps_each_producer_list_at_its_distinct_writes() {
        // One symbolic list stands for every producer's: the own blocks of a
        // and b, then the update blocks of b and a, whatever the cluster.
        let (long, short) = (jacobi(128, 1000), jacobi(128, 2));
        for nprocs in [2, 8, 64] {
            let phases = long.phases();
            let mut pending = PendingWrites::new(&long, nprocs);
            for w in long.occurrences_with_iter().windows(2) {
                let ((prev, prev_iter), (next, next_iter)) = (w[0], w[1]);
                pending.add_phase_writes(phases[prev], prev_iter);
                let (class, _) = classify_against_pending(&pending, phases[next], next_iter);
                assert_eq!(class, BoundaryClass::Push, "nothing is ever cleared");
                assert!(pending.writes.len() <= 4, "{:?}", pending.writes);
            }
            assert_eq!(pending.writes.len(), 4, "{:?}", pending.writes);
            for level in [Level::Validate, Level::Full] {
                let (long, short) =
                    (compile_at(&long, nprocs, level), compile_at(&short, nprocs, level));
                for me in 0..nprocs {
                    let prefix = short.plan_for(me).steps;
                    assert_eq!(
                        &long.plan_for(me).steps[..prefix.len()],
                        &prefix[..],
                        "P{me} ({level:?})"
                    );
                }
            }
        }
    }

    #[test]
    fn classifying_jacobi_evaluates_as_many_spans_on_2_processors_as_on_128() {
        // The walk turns a span into its closed form once per distinct
        // pending state, whatever the cluster and however long the loop; it
        // then probes the forms at the processors around their landmarks,
        // which stop growing once the cluster holds every landmark's
        // neighbourhood apart.
        let count = |program: &Program, nprocs| {
            crate::form::FORMS.with(|n| n.set(0));
            crate::form::PROBES.with(|n| n.set(0));
            let kernel = compile_at(program, nprocs, Level::Full);
            assert_eq!(kernel.barriers(), 0, "Jacobi pushes at {nprocs} processors");
            (crate::form::FORMS.with(|n| n.get()), crate::form::PROBES.with(|n| n.get()))
        };
        let program = jacobi(256, 4);
        let [two, wide, wider] = [2, 64, 128].map(|nprocs| count(&program, nprocs));
        assert_eq!(two.0, wider.0, "span evaluations on 2 and on 128 processors");
        assert_eq!(wide, wider, "span evaluations and probes on 64 and on 128 processors");
        assert!(wider.1 < 4 * 128, "{} probes on 128 processors", wider.1);
        assert_eq!(count(&jacobi(256, 1000), 128), wider, "a longer loop adds nothing");
    }
}
