//! Plan generation: from classified boundaries to executable `ctrt` calls.
//!
//! [`compile`] unrolls the program, analyzes every distinct phase boundary
//! and emits one [`ProcPlan`] per processor — the exact sequence of
//! compiler-interface calls the kernel executes. The application supplies
//! only the numeric phase bodies; every protocol decision lives in the
//! plan.

use std::sync::Arc;

use ctrt::{Access, Push, ReduceOp, RegularSection};
use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::analysis::{
    classify_against_pending, reducible, BoundaryAnalysis, BoundaryClass, PendingWrites, Refusal,
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
        sections: Vec<RegularSection>,
    },
    /// A surviving real barrier, merged with the phase's sections
    /// (split-phase `Validate_w_sync`).
    Barrier {
        /// The phase's sections.
        sections: Vec<RegularSection>,
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
        sections: Vec<RegularSection>,
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
        sections: Vec<RegularSection>,
    },
    /// A fully analyzable boundary: the dependence regions move as direct
    /// pushes and no synchronization or consistency machinery runs at all.
    Push {
        /// Outgoing pushes (this processor's produced regions, per
        /// consumer).
        sends: Vec<Push>,
        /// Producers whose pushes are awaited.
        recv_from: Vec<ProcId>,
        /// The sections to prepare after the exchange (none when the
        /// phase's sections are still prepared).
        sections: Vec<RegularSection>,
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
    pub fn messages_sent(&self) -> usize {
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

/// The output of [`compile`]: the classified boundaries plus one executable
/// plan per processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledKernel {
    /// The cluster size the kernel was compiled for.
    pub nprocs: usize,
    /// Every distinct boundary, in first-occurrence order.
    pub boundaries: Vec<BoundarySummary>,
    plans: Vec<ProcPlan>,
}

impl CompiledKernel {
    /// The plan of processor `me`.
    pub fn plan_for(&self, me: ProcId) -> &ProcPlan {
        &self.plans[me]
    }

    /// Surviving real barriers per processor over the whole run (identical
    /// on every processor: compiled plans are SPMD-uniform in structure).
    pub fn barriers(&self) -> usize {
        self.plans[0].barriers()
    }
}

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
    let phases = program.phases();
    assert!(
        phases.iter().all(|p| p.lock.is_some() || p.accesses.iter().all(|a| a.accumulates.is_none())),
        "an accumulation is declared inside a lock-guarded phase: its lowering where it is not reduced"
    );
    // At the full level accumulations are reduced over the barrier tree
    // when nothing else touches their words — and only if the whole program
    // then keeps no DSM-managed boundary, the proviso `Push` obeys too (see
    // `plan`): otherwise every accumulation keeps its lock.
    if level == Level::Full {
        if let Some(kernel) = reducible(program, nprocs)
            .and_then(|(reduced, exits)| plan(&reduced, nprocs, level, &exits))
        {
            return kernel;
        }
    }
    plan(program, nprocs, level, &vec![None; phases.len()]).expect("nothing to reduce")
}

/// Whether a boundary of this class ends an interval and keeps the DSM
/// protocol running.
fn flushes(class: BoundaryClass) -> bool {
    matches!(class, BoundaryClass::FullBarrier { .. } | BoundaryClass::Lock(_))
}

/// Classifies and plans `program` with `exits[phase]` reduced at every exit
/// of `phase`; `None` when a reduction is asked for and some boundary still
/// flushes.
fn plan(
    program: &Program,
    nprocs: usize,
    level: Level,
    exits: &[Option<Reduction>],
) -> Option<CompiledKernel> {
    let phases = program.phases();
    // The iteration symbol rides along so iteration-dependent spans lower
    // per occurrence.
    let occurrences = program.occurrences_with_iter();
    assert!(!occurrences.is_empty(), "a program needs at least one phase");

    // Walk the unrolled order classifying every boundary occurrence
    // against the writes *accumulated* since they were last synchronized
    // to each consumer — a dependence spanning several boundaries (write,
    // unrelated phase, read) is then caught at the boundary where the read
    // happens, instead of slipping through two NoComm classifications.
    // Clearing mirrors what each synchronization actually delivers: a full
    // barrier distributes every notice to everyone; a lock acquire delivers
    // the chain's notices, clearing the lock's own guarded writes for
    // everyone; a push moves bytes, not notices, so it clears nothing.
    let mut analyses: Vec<BoundaryAnalysis> =
        Vec::with_capacity(occurrences.len().saturating_sub(1));
    let mut pending = PendingWrites::new(program, nprocs);
    for w in occurrences.windows(2) {
        let (prev, prev_iter) = w[0];
        let (next, next_iter) = w[1];
        pending.add_phase_writes(program, phases[prev], prev_iter);
        if let Some(lock) = phases[next].lock {
            // Every processor entering the guarded phase acquires, so the
            // chain's knowledge reaches all of them. If the boundary still
            // refuses, the barrier's clear_all below subsumes this.
            pending.clear_lock(lock);
        }
        let mut analysis =
            classify_against_pending(program, nprocs, &pending, phases[next], next_iter);
        // The level applies here, inside the walk, so that pending writes
        // clear exactly as the barrier that will run clears them.
        analysis.class = level.admit(analysis.class);
        if let BoundaryClass::FullBarrier { .. } = analysis.class {
            pending.clear_all();
        }
        analyses.push(analysis);
    }

    // A reduction obeys `Push`'s whole-program proviso (below): its raw
    // install is only sound where no page is ever twinned, diffed or
    // invalidated. With the proviso met, the boundary out of an accumulating
    // phase is a reduction, plus the pushes of whatever else it carries.
    if exits.iter().any(Option::is_some) {
        if analyses.iter().any(|a| flushes(a.class)) {
            return None;
        }
        for (analysis, w) in analyses.iter_mut().zip(occurrences.windows(2)) {
            if exits[w[0].0].is_some() {
                analysis.class = BoundaryClass::Reduce;
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
    if analyses.iter().any(|a| flushes(a.class)) {
        for analysis in analyses.iter_mut().filter(|a| a.class == BoundaryClass::Push) {
            analysis.class =
                BoundaryClass::FullBarrier { refusal: Some(Refusal::MixedWithManagedPhases) };
        }
    }

    // Summaries aggregate per (prev, next, class) in first-appearance
    // order; the same phase pair can classify differently at different
    // occurrences (the pending-write state differs), so class is part of
    // the key.
    let mut boundaries: Vec<BoundarySummary> = Vec::new();
    for (b, w) in occurrences.windows(2).enumerate() {
        let class = analyses[b].class;
        let (prev, next) = (w[0].0, w[1].0);
        match boundaries.iter_mut().find(|s| s.prev == prev && s.next == next && s.class == class) {
            Some(summary) => summary.occurrences += 1,
            None => boundaries.push(BoundarySummary { prev, next, class, occurrences: 1 }),
        }
    }

    // Per push boundary, the `(consumer, producer)` of every dependence,
    // sorted: a processor's `recv_from` is its run of it, as its `sends` are
    // its run of the producer-sorted `pairs`.
    let by_consumer: Vec<Vec<(ProcId, ProcId)>> = analyses
        .iter()
        .map(|analysis| match analysis.class {
            BoundaryClass::Push | BoundaryClass::Reduce => {
                let mut edges: Vec<(ProcId, ProcId)> =
                    analysis.pairs.iter().map(|d| (d.consumer, d.producer)).collect();
                edges.sort_unstable();
                edges
            }
            _ => Vec::new(),
        })
        .collect();

    // Per-processor plan generation.
    let plans = (0..nprocs)
        .map(|me| {
            let sections_for = |phase: PhaseId, iter: usize| -> Vec<RegularSection> {
                if level == Level::Stock {
                    return Vec::new();
                }
                phases[phase]
                    .accesses
                    .iter()
                    .filter_map(|access| {
                        let decl = &program.arrays[access.array];
                        // A non-affine span has no lowerable section: the
                        // access is left to demand faulting under the full
                        // barrier its refusal preserved.
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
            // What is held prepared since the last flush boundary
            // write-protected it: `flush_epoch` counts flush boundaries
            // passed, `held[slot]` every section prepared at the current one.
            // At the full level the processor holds one set, whichever phase
            // prepared it; the validate level validates each phase's
            // sections as the phase's own, the paper's interface, so there a
            // phase holds only what it prepared itself. A step without an
            // exchange of its own prepares only what is not held (see
            // `hold`): nothing, for a phase whose spans ignore the iteration
            // symbol, after its first step; for an iteration-dependent one,
            // what the occurrence adds (the pivot column, a new column every
            // time); and at the full level no write of the own block the
            // initialisation's `WRITE_ALL` prepared.
            let mut flush_epoch = 0usize;
            let slot = |phase: PhaseId| if level == Level::Full { 0 } else { phase };
            let mut held = vec![(flush_epoch, Vec::new()); phases.len()];
            let mut steps = Vec::with_capacity(occurrences.len());
            // What runs after a phase's body when its entry is not a lock.
            let exit_of = |phase: PhaseId| match &exits[phase] {
                Some(reduction) => PhaseExit::Reduce(reduction.clone()),
                None => PhaseExit::Nothing,
            };
            let (first, first_iter) = occurrences[0];
            steps.push(match phases[first].lock {
                Some(lock) => {
                    // The release at the phase's exit stales what the grant
                    // validated.
                    flush_epoch += 1;
                    PlanStep {
                        phase: first,
                        iter: first_iter,
                        entry: BoundaryOp::Lock { lock, sections: sections_for(first, first_iter) },
                        exit: PhaseExit::Release(lock),
                    }
                }
                None => PlanStep {
                    phase: first,
                    iter: first_iter,
                    entry: BoundaryOp::Local {
                        sections: hold(
                            &mut held[slot(first)],
                            flush_epoch,
                            sections_for(first, first_iter),
                        ),
                    },
                    exit: exit_of(first),
                },
            });
            for (b, w) in occurrences.windows(2).enumerate() {
                let (next, iter) = w[1];
                let analysis = &analyses[b];
                // What a step without an exchange of its own prepares.
                let mut prepared =
                    |epoch| hold(&mut held[slot(next)], epoch, sections_for(next, iter));
                let mut exit = exit_of(next);
                let entry = match analysis.class {
                    BoundaryClass::NoComm => BoundaryOp::Local { sections: prepared(flush_epoch) },
                    // The previous step's exit reduced; what else crosses
                    // the boundary is pushable.
                    BoundaryClass::Reduce if analysis.pairs.is_empty() => {
                        BoundaryOp::Local { sections: prepared(flush_epoch) }
                    }
                    BoundaryClass::FullBarrier { .. } => {
                        // The barrier flushes, then prepares every section.
                        flush_epoch += 1;
                        match phases[next].lock {
                            // A refused entry into a guarded phase keeps its
                            // lock: the body is a critical section whatever
                            // the barrier delivered, and the release at its
                            // exit stales everything, as a plain entry's does.
                            Some(lock) => {
                                flush_epoch += 1;
                                exit = PhaseExit::Release(lock);
                                BoundaryOp::BarrierLock { lock, sections: sections_for(next, iter) }
                            }
                            None => BoundaryOp::Barrier { sections: prepared(flush_epoch) },
                        }
                    }
                    BoundaryClass::Lock(lock) => {
                        // The grant validates the sections; the phase-exit
                        // release then flushes the guarded writes, staling
                        // everything (its own sections included).
                        flush_epoch += 1;
                        exit = PhaseExit::Release(lock);
                        BoundaryOp::Lock { lock, sections: sections_for(next, iter) }
                    }
                    BoundaryClass::Push | BoundaryClass::Reduce => {
                        let pairs = &analysis.pairs;
                        let sent = pairs.partition_point(|d| d.producer < me)
                            ..pairs.partition_point(|d| d.producer <= me);
                        let sends = pairs[sent]
                            .iter()
                            .map(|d| Push { dest: d.consumer, regions: d.regions.clone() })
                            .collect();
                        let edges = &by_consumer[b];
                        let received = edges.partition_point(|&(c, _)| c < me)
                            ..edges.partition_point(|&(c, _)| c <= me);
                        let recv_from = edges[received].iter().map(|&(_, p)| p).collect();
                        BoundaryOp::Push { sends, recv_from, sections: prepared(flush_epoch) }
                    }
                };
                steps.push(PlanStep { phase: next, iter, entry, exit });
            }
            ProcPlan { steps }
        })
        .collect();

    Some(CompiledKernel { nprocs, boundaries, plans })
}

/// Records `sections` as prepared at flush epoch `epoch` and returns those
/// not already held. A section is held when one prepared at the same epoch
/// covers its bytes with the same access kind — or is a `WRITE_ALL` and
/// the section writes them (`WRITE_ALL`, `READ&WRITE_ALL` or `ReadWrite`):
/// those bytes are write-enabled already and hold this processor's own
/// values until the next flush. A later epoch holds nothing.
fn hold(
    held: &mut (usize, Vec<RegularSection>),
    epoch: usize,
    sections: Vec<RegularSection>,
) -> Vec<RegularSection> {
    if held.0 != epoch {
        *held = (epoch, Vec::new());
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
    let fresh: Vec<RegularSection> =
        sections.into_iter().filter(|s| !held.1.iter().any(|h| covers(h, s))).collect();
    held.1.extend(fresh.iter().cloned());
    fresh
}
