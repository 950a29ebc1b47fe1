//! Executing a compiled plan over the `ctrt` interface.
//!
//! The application iterates its [`ProcPlan`](crate::ProcPlan)'s steps,
//! [`enter`]s each with the part of the phase's numeric body that reads
//! only already-local data, so that part overlaps the exchange, runs the
//! rest of the body, then runs the step's [`exit`] — a release, or the
//! reduction of the partial an accumulating body added into ([`partial`]). The
//! executor is the *only* place compiled kernels touch the runtime: the
//! application contributes arithmetic, the plan contributes protocol.
//!
//! It also owns *who compiles*: [`kernel_for`] builds the IR and runs
//! [`compile_at`] once per run, however many processors execute the result —
//! the paper's compiler runs offline and every node runs the SPMD code it
//! emitted. What runs once is the classification, symbolic in the processor
//! id and so no dearer on 128 processors than on 2; each processor then
//! builds its own plan ([`CompiledKernel::plan_for`]) on its own thread,
//! after the once-cell has handed it the kernel.

use std::sync::Arc;

use treadmarks::{Process, SyncOp};

use crate::ir::Program;
use crate::plan::{compile_at, BoundaryOp, CompiledKernel, Level, PhaseExit, PlanStep};

/// A program and the kernel compiled from it for one run's cluster size,
/// shared by every processor of that run.
#[derive(Debug)]
pub struct Compiled {
    /// The IR the kernel was compiled from (phase names, array layout).
    pub program: Program,
    /// The classified boundaries; a processor builds its own plan from them
    /// with [`CompiledKernel::plan_for`].
    pub kernel: CompiledKernel,
}

/// Builds the run's program and compiles it at `level` **once per run**:
/// the first processor to arrive runs `build` and [`compile_at`], all others
/// receive the same [`Compiled`] (through [`Process::spmd_once`], so
/// compilation costs no virtual time and sends nothing). The compile only
/// classifies the boundaries, at a cost independent of the cluster size;
/// the plans are each processor's to build afterwards, so the others wait
/// out no `nprocs`-wide planning.
///
/// Sharing is sound because [`compile_at`] is a pure function of the
/// program, the cluster size and the level — its output is
/// `PartialEq`-comparable and equal wherever it is computed — so `build` and
/// `level` must themselves depend only on SPMD-uniform inputs (array layout,
/// iteration counts, the variant being run), never on the calling
/// processor's id. Like shared allocations, calls must occur in the same
/// order on every processor.
///
/// # Panics
///
/// Panics as [`compile_at`] does, on every processor alike.
pub fn kernel_for(p: &mut Process, level: Level, build: impl FnOnce() -> Program) -> Arc<Compiled> {
    let nprocs = p.nprocs();
    p.spmd_once(|| {
        let program = build();
        let kernel = compile_at(&program, nprocs, level);
        Compiled { program, kernel }
    })
}

/// Runs the entry op of a plan step, with `overlap` — computation on
/// sections that were already local — where it overlaps the exchange: for
/// [`BoundaryOp::Barrier`], [`BoundaryOp::Lock`] and
/// [`BoundaryOp::BarrierLock`] between the synchronization and the
/// completion of its merged fetch (a compiled plan's interior/edge split),
/// after any other op, which finishes at once. Touching fetched data in
/// `overlap` is correct, only not overlapped: the first touch completes
/// the fetch.
pub fn enter(p: &mut Process, op: &BoundaryOp, overlap: impl FnOnce(&mut Process)) {
    match op {
        BoundaryOp::Local { sections } => {
            prepare(p, sections);
            overlap(p);
        }
        BoundaryOp::Barrier { sections } => {
            ctrt::validate_w_sync_overlapped(p, SyncOp::Barrier, sections.clone(), overlap);
        }
        // The acquire request carries the sections' page list, so the grant
        // arrives with the releaser's diffs piggybacked — the merged
        // lock-grant+data message.
        BoundaryOp::Lock { lock, sections } => {
            ctrt::validate_w_sync_overlapped(p, SyncOp::Lock(*lock), sections.clone(), overlap);
        }
        BoundaryOp::BarrierLock { lock, sections } => {
            p.barrier();
            ctrt::validate_w_sync_overlapped(p, SyncOp::Lock(*lock), sections.clone(), overlap);
        }
        BoundaryOp::Push { sends, recv_from, sections } => {
            ctrt::push_phase(p, sends, recv_from);
            prepare(p, sections);
            overlap(p);
        }
    }
}

/// Prepares `sections` with one aggregate `Validate`. A step that carries
/// none (its sections are still prepared, or it is a non-owner's pivot
/// step) has nothing to do and does nothing.
fn prepare(p: &mut Process, sections: &ctrt::Lowered) {
    if !sections.is_empty() {
        ctrt::validate(p, sections.clone());
    }
}

/// The buffer a step's body accumulates into when the step's exit reduces
/// it: `buf` resized to the reduced section's words and zeroed — the
/// processor-private partial. `None` when the step accumulates into the
/// shared section itself, under the lock its entry took.
pub fn partial<'a>(step: &PlanStep, buf: &'a mut Vec<u64>) -> Option<&'a mut [u64]> {
    let PhaseExit::Reduce(reduction) = &step.exit else { return None };
    buf.clear();
    buf.resize(reduction.section.len() / 8, 0);
    Some(buf)
}

/// Executes a step's phase exit after its numeric body: releases the lock
/// the entry acquired (flushing the guarded writes and granting queued
/// requesters), or reduces `partial` — the buffer [`partial`] handed the
/// body — over the barrier tree, or does nothing.
pub fn exit(p: &mut Process, step: &PlanStep, partial: &[u64]) {
    match &step.exit {
        PhaseExit::Nothing => {}
        PhaseExit::Release(lock) => ctrt::release(p, *lock),
        PhaseExit::Reduce(r) => ctrt::reduce(p, r.op, r.section, partial, &r.wants),
    }
}
