//! Plan generation: from classified boundaries to executable `ctrt` calls.
//!
//! [`compile`] unrolls the program and classifies every phase boundary
//! occurrence once, for every processor at once; [`CompiledKernel::plan_for`]
//! then lowers that classification to one processor's [`ProcPlan`] — the
//! exact sequence of compiler-interface calls the kernel executes — on the
//! thread that runs it. The application supplies only the numeric phase
//! bodies; every protocol decision lives in the plan.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use ctrt::{Access, Lowered, Push, ReduceOp, RegularSection};
use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::analysis::{
    classify_against_pending, reducible, sends, sources, BoundaryClass, Dep, PendingWrites,
    Refusal, SymWrite,
};
use crate::ir::{PhaseId, Program};

/// The synchronization/preparation op executed at a phase's entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundaryOp {
    /// No inter-processor exchange: prepare (aggregated fetch, batch
    /// write-enable) the phase's sections.
    Local {
        /// The sections to prepare: the phase's, or none when no flush
        /// boundary has write-protected them since they were last prepared
        /// (the step then does nothing).
        sections: Lowered,
    },
    /// A surviving real barrier, merged with the phase's sections
    /// (split-phase `Validate_w_sync`).
    Barrier {
        /// The phase's sections.
        sections: Lowered,
    },
    /// A lock-guarded phase entry: the acquire validates the phase's
    /// sections on the grant (the runtime piggybacks the granter's diffs on
    /// the grant message, so the merged lock-grant+data exchange costs no
    /// extra protocol messages), and the matching [`PhaseExit::Release`]
    /// flushes the guarded writes at the phase's exit.
    Lock {
        /// The guarding lock.
        lock: LockId,
        /// The phase's sections, validated on the grant.
        sections: Lowered,
    },
    /// A refused entry into a lock-guarded phase: the barrier delivers the
    /// dependences the acquire chain cannot order, then the acquire
    /// serializes the guarded body as [`BoundaryOp::Lock`] does, validating
    /// the phase's sections on the grant; the exit is a
    /// [`PhaseExit::Release`].
    BarrierLock {
        /// The guarding lock.
        lock: LockId,
        /// The phase's sections, validated on the grant.
        sections: Lowered,
    },
    /// A fully analyzable boundary: the dependence regions move as direct
    /// pushes and no synchronization or consistency machinery runs at all.
    Push {
        /// Outgoing pushes (this processor's produced regions, per
        /// consumer).
        sends: Arc<[Push]>,
        /// Producers whose pushes are awaited.
        recv_from: Arc<[ProcId]>,
        /// The sections to prepare after the exchange (none when the
        /// phase's sections are still prepared).
        sections: Lowered,
    },
}

impl BoundaryOp {
    /// Stable lowercase name for diagnostics and the `--explain` dump.
    pub fn name(&self) -> &'static str {
        match self {
            BoundaryOp::Local { sections } if sections.is_empty() => "local",
            BoundaryOp::Local { .. } => "prepare",
            BoundaryOp::Barrier { .. } => "barrier",
            BoundaryOp::Lock { .. } => "lock",
            BoundaryOp::BarrierLock { .. } => "barrier+lock",
            BoundaryOp::Push { .. } => "push",
        }
    }

    /// Point-to-point messages this processor sends executing the op.
    fn messages_sent(&self) -> usize {
        match self {
            // Lock request/grant traffic is the runtime's own forwarding
            // path, identical to a hand-written acquire — the plan adds no
            // messages of its own on top of it.
            BoundaryOp::Local { .. }
            | BoundaryOp::Barrier { .. }
            | BoundaryOp::Lock { .. }
            | BoundaryOp::BarrierLock { .. } => 0,
            BoundaryOp::Push { sends, .. } => sends.len(),
        }
    }
}

/// A reduction at a phase's exit: the body accumulated into a zeroed,
/// processor-private partial of `section`, and every processor's partial is
/// combined over the barrier tree (`ctrt::reduce`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reduction {
    /// The accumulation's operator.
    pub op: ReduceOp,
    /// The accumulated section: one `u64` partial word per word of it.
    pub section: AddrRange,
    /// Per processor, the words of `section` its reads anywhere in the
    /// program cover: the totals every reduction adds into its copy.
    pub wants: Arc<[Vec<AddrRange>]>,
}

/// What runs after a phase's body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhaseExit {
    /// Nothing: the next step's entry synchronizes.
    Nothing,
    /// Release the lock the entry acquired ([`BoundaryOp::Lock`]), flushing
    /// the guarded writes and granting queued requesters.
    Release(LockId),
    /// Reduce the body's private partial over the barrier tree.
    Reduce(Reduction),
}

/// One step of a processor's plan: execute `entry`, run the phase's numeric
/// body, then execute `exit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanStep {
    /// The phase whose body follows the entry op.
    pub phase: PhaseId,
    /// The loop iteration of this occurrence (0 outside loops) — the value
    /// the iteration-dependent spans were lowered at; the phase body
    /// receives it so the numeric kernel and the validated sections agree.
    pub iter: usize,
    /// The synchronization/preparation op at the phase's entry.
    pub entry: BoundaryOp,
    /// The op after the phase's body: a release exactly when `entry` is
    /// [`BoundaryOp::Lock`] or [`BoundaryOp::BarrierLock`], a reduction when
    /// the phase's accumulations are reduced.
    pub exit: PhaseExit,
}

/// The complete compiled call sequence for one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcPlan {
    /// The steps, in execution order (one per phase occurrence).
    pub steps: Vec<PlanStep>,
}

impl ProcPlan {
    /// Number of surviving real barriers.
    pub fn barriers(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| {
                matches!(s.entry, BoundaryOp::Barrier { .. } | BoundaryOp::BarrierLock { .. })
            })
            .count()
    }

    /// Number of lock-guarded phase entries (acquire/release pairs).
    pub fn lock_acquires(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s.entry, BoundaryOp::Lock { .. } | BoundaryOp::BarrierLock { .. }))
            .count()
    }

    /// Number of reductions over the barrier tree at phase exits.
    pub fn reductions(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.exit, PhaseExit::Reduce(_))).count()
    }

    /// Point-to-point messages this processor sends over the whole plan.
    pub fn messages_sent(&self) -> usize {
        self.steps.iter().map(|s| s.entry.messages_sent()).sum()
    }
}

/// One distinct boundary's classification, with its occurrence count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundarySummary {
    /// The producer phase.
    pub prev: PhaseId,
    /// The consumer phase.
    pub next: PhaseId,
    /// The classification.
    pub class: BoundaryClass,
    /// How often the boundary occurs in the unrolled execution.
    pub occurrences: usize,
}

/// One boundary occurrence as the walk left it: its class and, where its
/// dependences move as pushes, the dependences — the one symbolic list every
/// processor lowers its own sends and receives from.
#[derive(Debug, Clone)]
struct Crossing {
    class: BoundaryClass,
    deps: Option<Arc<[Dep]>>,
}

/// What one processor sends across a push boundary, and whom it awaits.
type Exchange = (Arc<[Push]>, Arc<[ProcId]>);

/// A pending state the walk classified an entry into a phase against.
#[derive(Debug)]
struct Seen {
    next: PhaseId,
    writes: Vec<SymWrite>,
    class: BoundaryClass,
    deps: Arc<[Dep]>,
}

/// The output of [`compile`]: the classified boundaries, from which each
/// processor builds its own executable plan ([`CompiledKernel::plan_for`]).
///
/// Nothing in it grows with the cluster but the reductions' per-processor
/// wanted words: a kernel compiled for 128 processors holds the same
/// boundaries as one compiled for 2. Two kernels are equal when they decide
/// alike: the same cluster, the same boundaries and the same plan on every
/// processor.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The cluster size the kernel was compiled for.
    pub nprocs: usize,
    /// Every distinct boundary, in first-occurrence order.
    pub boundaries: Vec<BoundarySummary>,
    level: Level,
    /// The program the plans lower: the input, or the form of it whose
    /// accumulations became reductions.
    program: Program,
    /// What runs after each phase's body when its entry is not a lock.
    exits: Vec<Option<Reduction>>,
    /// The unrolled `(phase, iteration)` order.
    occurrences: Vec<(PhaseId, usize)>,
    /// The boundary into each occurrence after the first.
    crossings: Vec<Crossing>,
}

impl CompiledKernel {
    /// Builds the plan of processor `me`: the boundaries' classes lowered to
    /// `me`'s sections, pushes and receives. Costs one processor's share of
    /// the plans, so each processor of a run builds its own.
    pub fn plan_for(&self, me: ProcId) -> ProcPlan {
        let phases = self.program.phases();
        // Where a loop's boundaries carry the same dependences into a phase
        // whose spans ignore the iteration symbol, `me` exchanges the same
        // bytes with the same processors at each.
        let mut seen: Vec<(Arc<[Dep]>, PhaseId, Exchange)> = Vec::new();
        let mut exchange = |deps: &Arc<[Dep]>, next: PhaseId, iter: usize| {
            let fixed = !phases[next].iter_dependent();
            if let Some((.., known)) =
                seen.iter().find(|(d, n, _)| fixed && *n == next && d == deps)
            {
                return known.clone();
            }
            let (program, nprocs, phase) = (&self.program, self.nprocs, phases[next]);
            let mine: Exchange = (
                sends(program, nprocs, deps, phase, iter, me).into(),
                sources(program, nprocs, deps, phase, iter, me).into(),
            );
            if fixed {
                seen.push((Arc::clone(deps), next, mine.clone()));
            }
            mine
        };
        let (program, level, exits) = (&self.program, self.level, &self.exits);
        lower_plan(program, self.nprocs, level, exits, &self.occurrences, me, |b| {
            let crossing = &self.crossings[b];
            let (next, iter) = self.occurrences[b + 1];
            (crossing.class, crossing.deps.as_ref().map(|deps| exchange(deps, next, iter)))
        })
    }

    /// Surviving real barriers per processor over the whole run (identical
    /// on every processor: compiled plans are SPMD-uniform in structure).
    pub fn barriers(&self) -> usize {
        self.crossings
            .iter()
            .filter(|c| matches!(c.class, BoundaryClass::FullBarrier { .. }))
            .count()
    }
}

impl PartialEq for CompiledKernel {
    fn eq(&self, other: &CompiledKernel) -> bool {
        self.nprocs == other.nprocs
            && self.boundaries == other.boundaries
            && (0..self.nprocs).all(|me| self.plan_for(me) == other.plan_for(me))
    }
}

impl Eq for CompiledKernel {}

/// How much of the analysis a plan may use — the paper's optimisation
/// levels, as levels of one planner rather than separately written kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// None of it: the program as stock TreadMarks runs it. Every
    /// communicating boundary is a plain barrier (`Push` and `Lock`
    /// classifications become `FullBarrier`), a guarded phase takes its
    /// lock after that barrier ([`BoundaryOp::BarrierLock`]), no step
    /// prepares, fetches or pushes a section, and pages fault on demand.
    Stock,
    /// Aggregation and merged data+sync only: every communicating boundary
    /// keeps its barrier, as a split-phase `Validate_w_sync`. A `Push`
    /// classification becomes `FullBarrier`; local and lock boundaries are
    /// what they are at [`Level::Full`], and an accumulation is the guarded
    /// `ReadWrite` it lowers to — the paper's lock+barrier idiom.
    Validate,
    /// Everything the analysis proves: pushes and reductions on top.
    Full,
}

impl Level {
    /// What a boundary classified as `class` becomes at this level.
    pub(crate) fn admit(self, class: BoundaryClass) -> BoundaryClass {
        match (self, class) {
            (Level::Stock, BoundaryClass::Push | BoundaryClass::Lock(_))
            | (Level::Validate, BoundaryClass::Push) => {
                BoundaryClass::FullBarrier { refusal: None }
            }
            _ => class,
        }
    }
}

/// Compiles `program` for an `nprocs`-processor run at [`Level::Full`].
///
/// # Panics
///
/// Panics as [`compile_at`] does.
pub fn compile(program: &Program, nprocs: usize) -> CompiledKernel {
    compile_at(program, nprocs, Level::Full)
}

/// Compiles `program` for an `nprocs`-processor run, using no more of the
/// analysis than `level` allows.
///
/// # Panics
///
/// Panics if the program has no phases, an array has fewer than `2 *
/// nprocs` columns (the block distribution needs at least two columns per
/// processor), a referenced array id is out of range, or an accumulation is
/// declared outside a lock-guarded phase.
pub fn compile_at(program: &Program, nprocs: usize, level: Level) -> CompiledKernel {
    assert!(nprocs > 0, "a kernel is compiled for at least one processor");
    for decl in &program.arrays {
        assert!(
            decl.cols >= 2 * nprocs,
            "array {:?} needs at least two columns per processor",
            decl.name
        );
    }
    compile_unchecked(program, nprocs, level)
}

/// [`compile_at`] past its checks of the distribution: any block of at
/// least one column classifies.
fn compile_unchecked(program: &Program, nprocs: usize, level: Level) -> CompiledKernel {
    let phases = program.phases();
    assert!(
        phases.iter().all(|p| p.lock.is_some() || p.accesses.iter().all(|a| a.accumulates.is_none())),
        "an accumulation is declared inside a lock-guarded phase: its lowering where it is not reduced"
    );
    // At the full level accumulations are reduced over the barrier tree
    // when nothing else touches their words — and only if the whole program
    // then keeps no DSM-managed boundary, the proviso `Push` obeys too (see
    // `settle`): otherwise every accumulation keeps its lock.
    if level == Level::Full {
        if let Some(kernel) = reducible(program, nprocs)
            .and_then(|(reduced, exits)| walk(reduced, nprocs, level, exits))
        {
            return kernel;
        }
    }
    walk(program.clone(), nprocs, level, vec![None; phases.len()]).expect("nothing to reduce")
}

/// Whether a boundary of this class ends an interval and keeps the DSM
/// protocol running.
fn flushes(class: BoundaryClass) -> bool {
    matches!(class, BoundaryClass::FullBarrier { .. } | BoundaryClass::Lock(_))
}

/// Classifies `program` with `exits[phase]` reduced at every exit of
/// `phase`; `None` when a reduction is asked for and some boundary still
/// flushes.
fn walk(
    program: Program,
    nprocs: usize,
    level: Level,
    exits: Vec<Option<Reduction>>,
) -> Option<CompiledKernel> {
    let phases = program.phases();
    // The iteration symbol rides along so iteration-dependent spans lower
    // per occurrence.
    let occurrences = program.occurrences_with_iter();
    assert!(!occurrences.is_empty(), "a program needs at least one phase");

    // Walk the unrolled order classifying every boundary occurrence
    // against the writes *accumulated* since they were last synchronized
    // — a dependence spanning several boundaries (write, unrelated phase,
    // read) is then caught at the boundary where the read happens, instead
    // of slipping through two NoComm classifications. Clearing mirrors what
    // each synchronization actually delivers: a full barrier distributes
    // every notice to everyone; a lock acquire delivers the chain's
    // notices, clearing the lock's own guarded writes for everyone; a push
    // moves bytes, not notices, so it clears nothing.
    //
    // A phase whose spans ignore the iteration symbol classifies alike
    // wherever the pending writes are alike: each distinct state is
    // classified once, so a loop that settles into a steady state costs
    // its first iterations only.
    let mut classes: Vec<BoundaryClass> = Vec::with_capacity(occurrences.len());
    let mut pushed: Vec<Option<Arc<[Dep]>>> = Vec::with_capacity(occurrences.len());
    let mut seen: Vec<Seen> = Vec::new();
    let mut pending = PendingWrites::new(&program, nprocs);
    for w in occurrences.windows(2) {
        let (prev, prev_iter) = w[0];
        let (next, next_iter) = w[1];
        pending.add_phase_writes(phases[prev], prev_iter);
        if let Some(lock) = phases[next].lock {
            // Every processor entering the guarded phase acquires, so the
            // chain's knowledge reaches all of them. If the boundary still
            // refuses, the barrier's clear_all below subsumes this.
            pending.clear_lock(lock);
        }
        // A sticky refusal decides at once; so does a state seen before.
        let memo = !phases[next].iter_dependent() && !pending.refuses();
        let known =
            seen.iter().rev().find(|s| memo && s.next == next && s.writes == pending.writes());
        let (class, deps) = match known {
            Some(s) => (s.class, Arc::clone(&s.deps)),
            None => {
                let (class, deps) = classify_against_pending(&pending, phases[next], next_iter);
                let deps: Arc<[Dep]> = deps.into();
                if memo {
                    let writes = pending.writes().to_vec();
                    seen.push(Seen { next, writes, class, deps: Arc::clone(&deps) });
                }
                (class, deps)
            }
        };
        // The level applies here, inside the walk, so that pending writes
        // clear exactly as the barrier that will run clears them.
        let class = level.admit(class);
        if let BoundaryClass::FullBarrier { .. } = class {
            pending.clear_all();
        }
        pushed.push((class == BoundaryClass::Push).then_some(deps));
        classes.push(class);
    }
    let boundaries = settle(&mut classes, &occurrences, &exits)?;
    let crossings = classes
        .into_iter()
        .zip(pushed)
        .map(|(class, deps)| {
            let deps =
                deps.filter(|_| matches!(class, BoundaryClass::Push | BoundaryClass::Reduce));
            Crossing { class, deps }
        })
        .collect();
    Some(CompiledKernel { nprocs, boundaries, level, program, exits, occurrences, crossings })
}

/// The whole-program passes over the walk's classes, then one summary per
/// distinct boundary; `None` when a reduction is asked for and some
/// boundary still flushes.
fn settle(
    classes: &mut [BoundaryClass],
    occurrences: &[(PhaseId, usize)],
    exits: &[Option<Reduction>],
) -> Option<Vec<BoundarySummary>> {
    // A reduction obeys `Push`'s whole-program proviso (below): its raw
    // install is only sound where no page is ever twinned, diffed or
    // invalidated. With the proviso met, the boundary out of an accumulating
    // phase is a reduction, plus the pushes of whatever else it carries.
    if exits.iter().any(Option::is_some) {
        if classes.iter().any(|&c| flushes(c)) {
            return None;
        }
        for (class, w) in classes.iter_mut().zip(occurrences.windows(2)) {
            if exits[w[0].0].is_some() {
                *class = BoundaryClass::Reduce;
            }
        }
    }

    // Whole-program soundness pass for `Push`: pushing raw bytes is only
    // legal when the kernel never flushes intervals — a later twin/diff of
    // a page holding pushed bytes would re-ship them as the receiver's own
    // modifications, which under false sharing overwrites a concurrent
    // writer's fresh values with the pushed snapshot (see
    // `Refusal::MixedWithManagedPhases`). If any boundary keeps the DSM
    // protocol, every pushable boundary is demoted to a full barrier.
    // Demotion only ever adds barriers, which deliver more than the walk
    // assumed: later boundaries were classified against a superset of what
    // is really pending, so their classifications stay conservative.
    if classes.iter().any(|&c| flushes(c)) {
        for class in classes.iter_mut().filter(|c| **c == BoundaryClass::Push) {
            *class = BoundaryClass::FullBarrier { refusal: Some(Refusal::MixedWithManagedPhases) };
        }
    }

    // Summaries aggregate per (prev, next, class) in first-appearance
    // order; the same phase pair can classify differently at different
    // occurrences (the pending-write state differs), so class is part of
    // the key.
    let mut boundaries: Vec<BoundarySummary> = Vec::new();
    for (&class, w) in classes.iter().zip(occurrences.windows(2)) {
        let (prev, next) = (w[0].0, w[1].0);
        match boundaries.iter_mut().find(|s| s.prev == prev && s.next == next && s.class == class) {
            Some(summary) => summary.occurrences += 1,
            None => boundaries.push(BoundarySummary { prev, next, class, occurrences: 1 }),
        }
    }
    Some(boundaries)
}

/// Processor `me`'s plan: every occurrence's entry and exit, from
/// `boundary(b)` — boundary `b`'s class and, where its dependences move as
/// pushes, what `me` sends and whom it awaits (`None`: the boundary
/// carries no dependence).
fn lower_plan(
    program: &Program,
    nprocs: usize,
    level: Level,
    exits: &[Option<Reduction>],
    occurrences: &[(PhaseId, usize)],
    me: ProcId,
    mut boundary: impl FnMut(usize) -> (BoundaryClass, Option<Exchange>),
) -> ProcPlan {
    let phases = program.phases();
    let sections_for = |phase: PhaseId, iter: usize| -> Vec<RegularSection> {
        if level == Level::Stock {
            return Vec::new();
        }
        phases[phase]
            .accesses
            .iter()
            .filter_map(|access| {
                let decl = &program.arrays[access.array];
                // A non-affine span has no lowerable section: the access is
                // left to demand faulting under the full barrier its refusal
                // preserved.
                let cols = access.span.eval(decl.cols, nprocs, me, iter)?;
                if cols.is_empty() {
                    return None;
                }
                Some(RegularSection::from_ranges(
                    vec![decl.col_range(cols.start, cols.end)],
                    access.access,
                ))
            })
            .collect()
    };
    // A phase whose spans ignore the iteration symbol has the same sections
    // at every occurrence.
    let fixed: Vec<Option<Vec<RegularSection>>> = (0..phases.len())
        .map(|phase| (!phases[phase].iter_dependent()).then(|| sections_for(phase, 0)))
        .collect();
    let sections_at = |phase: PhaseId, iter: usize| match &fixed[phase] {
        Some(sections) => Cow::Borrowed(&sections[..]),
        None => Cow::Owned(sections_for(phase, iter)),
    };
    // What is held prepared since the last flush boundary write-protected
    // it: `flush_epoch` counts flush boundaries passed, `held[slot]` every
    // section prepared at the current one. At the full level the processor
    // holds one set, whichever phase prepared it; the validate level
    // validates each phase's sections as the phase's own, the paper's
    // interface, so there a phase holds only what it prepared itself. A
    // step without an exchange of its own prepares only what is not held
    // (see `hold`): nothing, for a phase whose spans ignore the iteration
    // symbol, after its first step; for an iteration-dependent one, what
    // the occurrence adds (the pivot column, a new column every time); and
    // at the full level no write of the own block the initialisation's
    // `WRITE_ALL` prepared.
    // Each distinct section list is lowered once, and every step that
    // carries it shares the result.
    let mut lowered: HashMap<Vec<RegularSection>, Lowered> = HashMap::new();
    let mut lower = |sections: &[RegularSection]| match lowered.get(sections) {
        Some(known) => known.clone(),
        None => lowered.entry(sections.to_vec()).or_insert(Lowered::new(sections.to_vec())).clone(),
    };
    let mut fresh = Vec::new();
    let mut flush_epoch = 0usize;
    let slot = |phase: PhaseId| if level == Level::Full { 0 } else { phase };
    let mut held = vec![(flush_epoch, Vec::new()); phases.len()];
    let mut steps = Vec::with_capacity(occurrences.len());
    // What runs after a phase's body when its entry is not a lock.
    let exit_of = |phase: PhaseId| match &exits[phase] {
        Some(reduction) => PhaseExit::Reduce(reduction.clone()),
        None => PhaseExit::Nothing,
    };
    for (k, &(next, iter)) in occurrences.iter().enumerate() {
        // The first phase is entered over its lock, or over nothing.
        let (class, exchange) = match k.checked_sub(1) {
            Some(b) => boundary(b),
            None => (phases[next].lock.map_or(BoundaryClass::NoComm, BoundaryClass::Lock), None),
        };
        // What a step without an exchange of its own prepares.
        let mut prepared =
            |epoch| lower(hold(&mut held[slot(next)], epoch, &sections_at(next, iter), &mut fresh));
        let mut exit = exit_of(next);
        let entry = match (class, exchange) {
            (BoundaryClass::NoComm, _) => BoundaryOp::Local { sections: prepared(flush_epoch) },
            // The previous step's exit reduced; nothing else crosses the
            // boundary.
            (BoundaryClass::Reduce, None) => BoundaryOp::Local { sections: prepared(flush_epoch) },
            (BoundaryClass::FullBarrier { .. }, _) => {
                // The barrier flushes, then prepares every section.
                flush_epoch += 1;
                match phases[next].lock {
                    // A refused entry into a guarded phase keeps its lock:
                    // the body is a critical section whatever the barrier
                    // delivered, and the release at its exit stales
                    // everything, as a plain entry's does.
                    Some(lock) => {
                        flush_epoch += 1;
                        exit = PhaseExit::Release(lock);
                        BoundaryOp::BarrierLock { lock, sections: lower(&sections_at(next, iter)) }
                    }
                    None => BoundaryOp::Barrier { sections: prepared(flush_epoch) },
                }
            }
            (BoundaryClass::Lock(lock), _) => {
                // The grant validates the sections; the phase-exit release
                // then flushes the guarded writes, staling everything (its
                // own sections included).
                flush_epoch += 1;
                exit = PhaseExit::Release(lock);
                BoundaryOp::Lock { lock, sections: lower(&sections_at(next, iter)) }
            }
            // The previous step's exit reduced, or nothing did; what
            // crosses the boundary is pushed.
            (BoundaryClass::Push | BoundaryClass::Reduce, exchange) => {
                let (sends, recv_from) = exchange.expect("a push boundary carries dependences");
                BoundaryOp::Push { sends, recv_from, sections: prepared(flush_epoch) }
            }
        };
        steps.push(PlanStep { phase: next, iter, entry, exit });
    }
    ProcPlan { steps }
}

/// Records `sections` as prepared at flush epoch `epoch` and returns those
/// not already held, written into `fresh`. A section is held when one
/// prepared at the same epoch covers its bytes with the same access kind —
/// or is a `WRITE_ALL` and the section writes them (`WRITE_ALL`,
/// `READ&WRITE_ALL` or `ReadWrite`): those bytes are write-enabled already
/// and hold this processor's own values until the next flush. A later epoch
/// holds nothing.
fn hold<'a>(
    held: &mut (usize, Vec<RegularSection>),
    epoch: usize,
    sections: &[RegularSection],
    fresh: &'a mut Vec<RegularSection>,
) -> &'a [RegularSection] {
    if held.0 != epoch {
        held.0 = epoch;
        held.1.clear();
    }
    let covers = |outer: &RegularSection, inner: &RegularSection| {
        let kinds = match (outer.access(), inner.access()) {
            (Access::WriteAll, Access::ReadWriteAll | Access::ReadWrite) => true,
            (outer, inner) => outer == inner,
        };
        kinds
            && inner.ranges().iter().all(|r| {
                outer.ranges().iter().any(|o| o.start() <= r.start() && r.end() <= o.end())
            })
    };
    fresh.clear();
    fresh.extend(sections.iter().filter(|s| !held.1.iter().any(|h| covers(h, s))).cloned());
    held.1.extend_from_slice(fresh);
    fresh
}

#[cfg(test)]
pub(crate) mod concrete {
    //! The walk the symbolic one replaced, kept as it was: every span
    //! lowered for every processor at every occurrence, one pending list per
    //! producer, the reductions' refusals decided processor by processor,
    //! and every processor's plan cut from the dependence pairs at once.
    //! `tests` holds [`CompiledKernel::plan_for`](super::CompiledKernel::plan_for)
    //! to it, and the pairwise oracle shares its sole-writer proof.

    use std::sync::Arc;

    use ctrt::Push;
    use pagedmem::AddrRange;
    use treadmarks::{LockId, ProcId};

    use super::{lower_plan, settle, Level, ProcPlan, Reduction};
    use crate::analysis::{BoundaryAnalysis, BoundaryClass, DepPair, Refusal};
    use crate::ir::{Access, ColSpan, Node, Phase, Program, SectionAccess};

    /// One pending (or lowered) write: its extent, whether the writer's copy of
    /// it is final (see [`SoleWriters::is_final`]), and the lock guarding the
    /// phase that made it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(crate) struct WriteEntry {
        pub(crate) range: AddrRange,
        pub(crate) is_final: bool,
        pub(crate) lock: Option<LockId>,
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
    pub(crate) struct SoleWriters {
        /// The contested bytes, coalesced; `None` when a write is non-affine or
        /// no section is `READ&WRITE_ALL`.
        contested: Option<Vec<AddrRange>>,
    }

    impl SoleWriters {
        /// Nothing proven: only `WRITE_ALL` sections are final.
        const NONE: SoleWriters = SoleWriters { contested: None };

        pub(crate) fn of(program: &Program, nprocs: usize) -> SoleWriters {
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
            let mut all: Vec<AddrRange> =
                written.into_iter().flat_map(AddrRange::coalesce).collect();
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
        pub(crate) fn is_final(
            &self,
            access: Access,
            range: AddrRange,
            lock: Option<LockId>,
        ) -> bool {
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
    pub(crate) struct PendingWrites {
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
        pub(crate) fn new(program: &Program, nprocs: usize) -> PendingWrites {
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
        pub(crate) fn add_phase_writes(&mut self, program: &Program, phase: &Phase, iter: usize) {
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
        pub(crate) fn clear_all(&mut self) {
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
        pub(crate) fn clear_lock(&mut self, lock: LockId) {
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
                        let Some(overlap) = hull.and_then(|(_, hull)| range.intersect(&hull))
                        else {
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
                let wants: Arc<[Vec<AddrRange>]> =
                    wants.into_iter().map(AddrRange::coalesce).collect();
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
    pub(crate) fn classify_against_pending(
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
                let first =
                    index.partition_point(|(_, w)| w.range.start() + max_len <= read.start());
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

    /// Every processor's plan of `program` at `level`, all built at once.
    pub(crate) fn plans(program: &Program, nprocs: usize, level: Level) -> Vec<ProcPlan> {
        if level == Level::Full {
            if let Some(plans) = reducible(program, nprocs)
                .and_then(|(reduced, exits)| plan(&reduced, nprocs, level, &exits))
            {
                return plans;
            }
        }
        plan(program, nprocs, level, &vec![None; program.phases().len()])
            .expect("nothing to reduce")
    }

    fn plan(
        program: &Program,
        nprocs: usize,
        level: Level,
        exits: &[Option<Reduction>],
    ) -> Option<Vec<ProcPlan>> {
        let phases = program.phases();
        let occurrences = program.occurrences_with_iter();
        let mut analyses: Vec<BoundaryAnalysis> = Vec::new();
        let mut pending = PendingWrites::new(program, nprocs);
        for w in occurrences.windows(2) {
            let ((prev, prev_iter), (next, next_iter)) = (w[0], w[1]);
            pending.add_phase_writes(program, phases[prev], prev_iter);
            if let Some(lock) = phases[next].lock {
                pending.clear_lock(lock);
            }
            let mut analysis =
                classify_against_pending(program, nprocs, &pending, phases[next], next_iter);
            analysis.class = level.admit(analysis.class);
            if let BoundaryClass::FullBarrier { .. } = analysis.class {
                pending.clear_all();
            }
            analyses.push(analysis);
        }
        let mut classes: Vec<BoundaryClass> = analyses.iter().map(|a| a.class).collect();
        settle(&mut classes, &occurrences, exits)?;
        // Per boundary, the `(consumer, producer)` of every dependence,
        // sorted: a processor's `recv_from` is its run of it, as its `sends`
        // are its run of the producer-sorted `pairs`.
        let by_consumer: Vec<Vec<(ProcId, ProcId)>> = analyses
            .iter()
            .map(|analysis| {
                let mut edges: Vec<(ProcId, ProcId)> =
                    analysis.pairs.iter().map(|d| (d.consumer, d.producer)).collect();
                edges.sort_unstable();
                edges
            })
            .collect();
        let plans = (0..nprocs).map(|me| {
            lower_plan(program, nprocs, level, exits, &occurrences, me, |b| {
                let pairs = &analyses[b].pairs;
                let pushes = matches!(classes[b], BoundaryClass::Push | BoundaryClass::Reduce);
                let exchange = (pushes && !pairs.is_empty()).then(|| {
                    let sent = pairs.partition_point(|d| d.producer < me)
                        ..pairs.partition_point(|d| d.producer <= me);
                    let sends = pairs[sent]
                        .iter()
                        .map(|d| Push { dest: d.consumer, regions: d.regions.clone() })
                        .collect();
                    let edges = &by_consumer[b];
                    let received = edges.partition_point(|&(c, _)| c < me)
                        ..edges.partition_point(|&(c, _)| c <= me);
                    (sends, edges[received].iter().map(|&(_, p)| p).collect())
                });
                (classes[b], exchange)
            })
        });
        Some(plans.collect())
    }
}

#[cfg(test)]
mod tests {
    use pagedmem::Addr;

    use super::*;
    use crate::ir::{ArrayDecl, ColSpan, Node, Phase, ReduceOp, SectionAccess};

    const ROWS: usize = 4;

    /// The IR of the four shipped kernels, as `dsm_apps` builds it, over
    /// `cols`-column arrays of `ROWS` rows: the second array starts on the
    /// page after the first, as the allocator places it.
    fn kernels(cols: usize) -> Vec<(&'static str, Program)> {
        let bytes = ROWS * cols * 8;
        let decl = |name, base: usize| ArrayDecl {
            name,
            base: Addr::new(base),
            rows: ROWS,
            cols,
            elem_bytes: 8,
        };
        let two = |a, b| vec![decl(a, 0), decl(b, Addr::new(bytes).page_align_up().as_usize())];
        let at = SectionAccess::new;
        let stencil = |name, src, dst, write| {
            Phase::new(
                name,
                vec![
                    at(src, ColSpan::UpdateHalo(1), Access::Read),
                    at(dst, ColSpan::UpdateBlock, write),
                ],
            )
        };
        let own = |arrays: &[usize]| {
            Phase::new(
                "init",
                arrays.iter().map(|&a| at(a, ColSpan::OwnBlock, Access::WriteAll)).collect(),
            )
        };
        let steps = 5.min(cols - 1);
        vec![
            (
                "jacobi",
                Program {
                    arrays: two("a", "b"),
                    nodes: vec![
                        Node::Phase(own(&[0, 1])),
                        Node::Repeat {
                            times: 1,
                            body: vec![
                                stencil("sweep_ab", 0, 1, Access::WriteAll),
                                stencil("sweep_ba", 1, 0, Access::WriteAll),
                            ],
                        },
                        Node::Phase(stencil("sweep_ab", 0, 1, Access::WriteAll)),
                    ],
                },
            ),
            (
                "sor",
                Program {
                    arrays: vec![decl("grid", 0)],
                    nodes: vec![
                        Node::Phase(own(&[0])),
                        Node::Repeat {
                            times: 2,
                            body: vec![
                                stencil("red", 0, 0, Access::ReadWriteAll),
                                stencil("black", 0, 0, Access::ReadWriteAll),
                            ],
                        },
                    ],
                },
            ),
            (
                "gauss",
                Program {
                    arrays: two("a", "piv"),
                    nodes: vec![
                        Node::Phase(own(&[0])),
                        Node::Repeat {
                            times: steps,
                            body: vec![
                                Phase::new(
                                    "pivot",
                                    vec![
                                        at(0, ColSpan::Pivot, Access::Read),
                                        at(1, ColSpan::Pivot, Access::WriteAll),
                                    ],
                                ),
                                Phase::new(
                                    "update",
                                    vec![
                                        at(1, ColSpan::PivotReaders, Access::Read),
                                        at(0, ColSpan::OwnTail, Access::ReadWrite),
                                    ],
                                ),
                            ],
                        },
                    ],
                },
            ),
            (
                "is",
                Program {
                    arrays: two("keys", "hist"),
                    nodes: vec![
                        Node::Phase(own(&[0])),
                        Node::Repeat {
                            times: 2,
                            body: vec![
                                Phase::guarded(
                                    "merge",
                                    vec![
                                        at(0, ColSpan::OwnBlock, Access::ReadWriteAll),
                                        SectionAccess::accumulate(
                                            1,
                                            ColSpan::All,
                                            ReduceOp::WrappingAdd,
                                        ),
                                    ],
                                    0,
                                ),
                                Phase::new("rank", vec![at(1, ColSpan::OwnBlock, Access::Read)]),
                            ],
                        },
                    ],
                },
            ),
        ]
    }

    #[test]
    fn every_plan_built_on_demand_is_the_plan_the_concrete_walk_builds() {
        // Four kernels at every level on 1 to 128 processors: single-column
        // blocks (past `compile_at`'s two-column floor, which only
        // `compile_unchecked` skips), two-column blocks whose edge update blocks are
        // one column wide, and uneven blocks.
        for nprocs in 1..=128 {
            for cols in [nprocs, 2 * nprocs, 2 * nprocs + 1, 3 * nprocs + 2] {
                for (app, program) in kernels(cols) {
                    for level in [Level::Stock, Level::Validate, Level::Full] {
                        let kernel = compile_unchecked(&program, nprocs, level);
                        let want = concrete::plans(&program, nprocs, level);
                        for (me, want) in want.iter().enumerate() {
                            assert_eq!(
                                &kernel.plan_for(me),
                                want,
                                "{app} on {nprocs} processors, {cols} columns ({level:?}), P{me}"
                            );
                        }
                        assert_eq!(kernel.barriers(), want[0].barriers(), "{app}@{nprocs}");
                    }
                }
            }
        }
    }
}
