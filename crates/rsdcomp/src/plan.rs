//! Plan generation: from classified boundaries to executable `ctrt` calls.
//!
//! [`compile`] unrolls the program, analyzes every distinct phase boundary,
//! applies the garbage-collection policy (one *real* barrier per loop
//! iteration whenever the body flushes intervals at eliminated boundaries,
//! so diff caches stay bounded) and emits one [`ProcPlan`] per processor —
//! the exact sequence of compiler-interface calls the kernel executes. The
//! application supplies only the numeric phase bodies; every protocol
//! decision lives in the plan.

use std::sync::Arc;

use ctrt::{Push, ReduceOp, RegularSection};
use pagedmem::AddrRange;
use treadmarks::{LockId, ProcId};

use crate::analysis::{
    classify_against_pending, reducible, BoundaryAnalysis, BoundaryClass, PendingWrites, Refusal,
};
use crate::ir::{Node, PhaseId, Program};

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
    /// An eliminated barrier: point-to-point ready/ack with the named
    /// producers, the acks carrying merged data+sync.
    NeighborSync {
        /// Processors whose modifications this processor consumes.
        producers: Vec<ProcId>,
        /// Processors consuming this processor's modifications.
        consumers: Vec<ProcId>,
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
            BoundaryOp::NeighborSync { .. } => "neighbor-sync",
            BoundaryOp::Lock { .. } => "lock",
            BoundaryOp::Push { .. } => "push",
        }
    }

    /// Point-to-point messages this processor sends executing the op.
    pub fn messages_sent(&self) -> usize {
        match self {
            // Lock request/grant traffic is the runtime's own forwarding
            // path, identical to a hand-written acquire — the plan adds no
            // messages of its own on top of it.
            BoundaryOp::Local { .. } | BoundaryOp::Barrier { .. } | BoundaryOp::Lock { .. } => 0,
            // One ready per producer, one ack per consumer.
            BoundaryOp::NeighborSync { producers, consumers, .. } => {
                producers.len() + consumers.len()
            }
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
    /// [`BoundaryOp::Lock`], a reduction when the phase's accumulations
    /// are reduced.
    pub exit: PhaseExit,
}

/// The complete compiled call sequence for one processor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcPlan {
    /// The steps, in execution order (one per phase occurrence).
    pub steps: Vec<PlanStep>,
}

impl ProcPlan {
    /// Number of eliminated barriers this processor participates in.
    pub fn barriers_eliminated(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.entry, BoundaryOp::NeighborSync { .. })).count()
    }

    /// Number of surviving real barriers.
    pub fn barriers(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.entry, BoundaryOp::Barrier { .. })).count()
    }

    /// Number of lock-guarded phase entries (acquire/release pairs).
    pub fn lock_acquires(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s.entry, BoundaryOp::Lock { .. })).count()
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
    /// The classification (after the GC policy).
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

    /// Barriers eliminated per processor over the whole run (identical on
    /// every processor: compiled plans are SPMD-uniform in structure).
    pub fn barriers_eliminated(&self) -> usize {
        self.plans[0].barriers_eliminated()
    }

    /// Surviving real barriers per processor over the whole run.
    pub fn barriers(&self) -> usize {
        self.plans[0].barriers()
    }
}

/// How much of the analysis a plan may use — the paper's optimisation
/// levels, as levels of one planner rather than separately written kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Aggregation and merged data+sync only: every communicating boundary
    /// keeps its barrier, as a split-phase `Validate_w_sync`. `Push` and
    /// `EliminatedBarrier` classifications become `FullBarrier`; local and
    /// lock boundaries are what they are at [`Level::Full`], and an
    /// accumulation is the guarded `ReadWrite` it lowers to — the paper's
    /// lock+barrier idiom.
    Validate,
    /// Everything the analysis proves: pushes, barrier replacement and
    /// reductions on top.
    Full,
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
    matches!(
        class,
        BoundaryClass::EliminatedBarrier
            | BoundaryClass::FullBarrier { .. }
            | BoundaryClass::Lock(_)
    )
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
    // Unroll with loop structure in hand: the `(phase, iteration)`
    // occurrence order plus, per `Repeat`, its position/length/count (for
    // the GC policy's loop-back detection). The iteration symbol rides
    // along so iteration-dependent spans lower per occurrence.
    let mut occurrences: Vec<(PhaseId, usize)> = Vec::new();
    let mut repeats: Vec<(usize, usize, usize)> = Vec::new();
    let mut next_id = 0;
    for node in &program.nodes {
        match node {
            Node::Phase(_) => {
                occurrences.push((next_id, 0));
                next_id += 1;
            }
            Node::Repeat { times, body } => {
                let ids: Vec<PhaseId> = (next_id..next_id + body.len()).collect();
                next_id += body.len();
                repeats.push((occurrences.len(), body.len(), *times));
                for t in 0..*times {
                    occurrences.extend(ids.iter().map(|&id| (id, t)));
                }
            }
        }
    }
    assert!(!occurrences.is_empty(), "a program needs at least one phase");

    // Walk the unrolled order classifying every boundary occurrence
    // against the writes *accumulated* since they were last synchronized
    // to each consumer — a dependence spanning several boundaries (write,
    // unrelated phase, read) is then caught at the boundary where the read
    // happens, instead of slipping through two NoComm classifications.
    // Clearing mirrors what each synchronization actually delivers: a full
    // barrier distributes every notice to everyone; an eliminated
    // barrier's ack carries all of one producer's notices to one named
    // consumer; a lock acquire delivers the chain's notices, clearing the
    // lock's own guarded writes pair-wise; a push moves bytes, not
    // notices, so it clears nothing.
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
        if level == Level::Validate
            && matches!(analysis.class, BoundaryClass::Push | BoundaryClass::EliminatedBarrier)
        {
            analysis.class = BoundaryClass::FullBarrier { refusal: None, gc_forced: false };
        }
        match &analysis.class {
            BoundaryClass::FullBarrier { .. } => pending.clear_all(),
            BoundaryClass::EliminatedBarrier => {
                for pair in &analysis.pairs {
                    pending.clear_pair(pair.producer, pair.consumer);
                }
            }
            BoundaryClass::NoComm
            | BoundaryClass::Push
            | BoundaryClass::Lock(_)
            | BoundaryClass::Reduce => {}
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
    // protocol, every pushable boundary is demoted: to the merged data+sync
    // exchange when its dependences are nearest-neighbour, to a full
    // barrier otherwise. Demotion only ever increases what later boundaries
    // would have pending, so the walk's classifications stay conservative.
    if analyses.iter().any(|a| flushes(a.class)) {
        for analysis in &mut analyses {
            if analysis.class != BoundaryClass::Push {
                continue;
            }
            let neighbours = analysis.pairs.iter().all(|d| d.producer.abs_diff(d.consumer) == 1);
            analysis.class = if neighbours {
                BoundaryClass::EliminatedBarrier
            } else {
                BoundaryClass::FullBarrier {
                    refusal: Some(Refusal::MixedWithManagedPhases),
                    gc_forced: false,
                }
            };
        }
    }

    // GC policy: intervals flushed at eliminated barriers accumulate until
    // a real barrier distributes a horizon. Within each loop, force a
    // loop-back boundary to a real barrier whenever eliminated flushes
    // have happened since the last real barrier — one horizon advance (and
    // diff-cache trim) at least every iteration that flushes.
    for &(start, len, times) in &repeats {
        if len * times < 2 {
            continue;
        }
        let mut flushes_since_barrier = 0usize;
        for (offset, analysis) in analyses[start..=(start + len * times - 2)].iter_mut().enumerate()
        {
            let is_loopback = (offset + 1) % len == 0;
            if is_loopback
                && flushes_since_barrier > 0
                // A lock boundary cannot be forced to a barrier: the
                // acquire also provides the phase's mutual exclusion, which
                // a barrier does not.
                && !matches!(
                    analysis.class,
                    BoundaryClass::FullBarrier { .. } | BoundaryClass::Lock(_)
                )
            {
                analysis.class = BoundaryClass::FullBarrier { refusal: None, gc_forced: true };
            }
            match analysis.class {
                // A lock release flushes the holder's interval just like an
                // eliminated barrier's flush does, so it counts toward the
                // GC horizon debt.
                BoundaryClass::EliminatedBarrier | BoundaryClass::Lock(_) => {
                    flushes_since_barrier += 1
                }
                BoundaryClass::FullBarrier { .. } => flushes_since_barrier = 0,
                BoundaryClass::NoComm | BoundaryClass::Push | BoundaryClass::Reduce => {}
            }
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

    // Per-processor plan generation.
    let plans = (0..nprocs)
        .map(|me| {
            let sections_for = |phase: PhaseId, iter: usize| -> Vec<RegularSection> {
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
            // What each phase holds prepared since the last flush boundary
            // write-protected it: `flush_epoch` counts flush boundaries
            // passed, `held[phase]` the epoch of the phase's last preparation
            // and every section prepared for it at that epoch. A step without
            // an exchange of its own prepares only what the phase does not
            // hold: nothing, for a phase whose spans ignore the iteration
            // symbol; for an iteration-dependent one, what the occurrence
            // adds (Gauss's shrinking `OwnTail` adds nothing after its first
            // step, the pivot column a new column every time).
            let mut flush_epoch = 0usize;
            let mut held: Vec<(usize, Vec<RegularSection>)> =
                vec![(flush_epoch, Vec::new()); phases.len()];
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
                            &mut held[first],
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
                let mut prepared = |epoch| hold(&mut held[next], epoch, sections_for(next, iter));
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
                        BoundaryOp::Barrier { sections: prepared(flush_epoch) }
                    }
                    BoundaryClass::Lock(lock) => {
                        // The grant validates the sections; the phase-exit
                        // release then flushes the guarded writes, staling
                        // everything (its own sections included).
                        flush_epoch += 1;
                        exit = PhaseExit::Release(lock);
                        BoundaryOp::Lock { lock, sections: sections_for(next, iter) }
                    }
                    BoundaryClass::EliminatedBarrier => {
                        flush_epoch += 1;
                        let sections = prepared(flush_epoch);
                        let mut producers: Vec<ProcId> = analysis
                            .pairs
                            .iter()
                            .filter(|d| d.consumer == me)
                            .map(|d| d.producer)
                            .collect();
                        let mut consumers: Vec<ProcId> = analysis
                            .pairs
                            .iter()
                            .filter(|d| d.producer == me)
                            .map(|d| d.consumer)
                            .collect();
                        producers.sort_unstable();
                        producers.dedup();
                        consumers.sort_unstable();
                        consumers.dedup();
                        BoundaryOp::NeighborSync { producers, consumers, sections }
                    }
                    BoundaryClass::Push | BoundaryClass::Reduce => {
                        let sends: Vec<Push> = analysis
                            .pairs
                            .iter()
                            .filter(|d| d.producer == me)
                            .map(|d| Push { dest: d.consumer, regions: d.regions.clone() })
                            .collect();
                        let mut recv_from: Vec<ProcId> = analysis
                            .pairs
                            .iter()
                            .filter(|d| d.consumer == me)
                            .map(|d| d.producer)
                            .collect();
                        recv_from.sort_unstable();
                        recv_from.dedup();
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

/// Records `sections` as prepared for a phase at flush epoch `epoch` and
/// returns those the phase did not already hold — a section is held when
/// one prepared for the phase at the same epoch has its access kind and
/// covers its bytes. A later epoch holds nothing.
fn hold(
    held: &mut (usize, Vec<RegularSection>),
    epoch: usize,
    sections: Vec<RegularSection>,
) -> Vec<RegularSection> {
    if held.0 != epoch {
        *held = (epoch, Vec::new());
    }
    let covers = |outer: &RegularSection, inner: &RegularSection| {
        outer.access() == inner.access()
            && inner.ranges().iter().all(|r| {
                outer.ranges().iter().any(|o| o.start() <= r.start() && r.end() <= o.end())
            })
    };
    let fresh: Vec<RegularSection> =
        sections.into_iter().filter(|s| !held.1.iter().any(|h| covers(h, s))).collect();
    held.1.extend(fresh.iter().cloned());
    fresh
}
