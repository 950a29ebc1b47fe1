//! Executing a compiled plan over the `ctrt` interface.
//!
//! The application iterates its [`ProcPlan`](crate::ProcPlan)'s steps,
//! issues each entry op, runs the phase's numeric body and completes the
//! entry, so computation on already-local data overlaps the exchange, then
//! runs the step's [`exit`] — a release, or the reduction of the partial an
//! accumulating body added into ([`partial`]). The
//! executor is the *only* place compiled kernels touch the runtime: the
//! application contributes arithmetic, the plan contributes protocol.
//!
//! It also owns *who compiles*: [`kernel_for`] builds the IR and runs
//! [`compile_at`] once per run, however many processors execute the result —
//! the paper's compiler runs offline and every node runs the SPMD code it
//! emitted.

use std::sync::Arc;

use treadmarks::{PendingSync, Process};

use crate::ir::Program;
use crate::plan::{compile_at, BoundaryOp, CompiledKernel, Level, PhaseExit, PlanStep};

/// A program and the kernel compiled from it for one run's cluster size,
/// shared by every processor of that run.
#[derive(Debug)]
pub struct Compiled {
    /// The IR the kernel was compiled from (phase names, array layout).
    pub program: Program,
    /// The classified boundaries and every processor's plan; a processor
    /// borrows its own with [`CompiledKernel::plan_for`].
    pub kernel: CompiledKernel,
}

/// Builds the run's program and compiles it at `level` **once per run**:
/// the first processor to arrive runs `build` and [`compile_at`], all others
/// receive the same [`Compiled`] (through [`Process::spmd_once`], so
/// compilation costs no virtual time and sends nothing).
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

/// Issues the entry op of a plan step. For [`BoundaryOp::Barrier`],
/// [`BoundaryOp::Lock`] and [`BoundaryOp::NeighborSync`] the returned
/// receipt is pending: compute on sections that were already local, then
/// [`complete`] before touching the fetched data (a compiled plan's
/// interior/edge split). Everything else finishes immediately and returns
/// `None`.
#[must_use = "a pending entry op completes only when passed to exec::complete"]
pub fn issue(p: &mut Process, op: &BoundaryOp) -> Option<PendingSync> {
    match op {
        BoundaryOp::Local { sections } => {
            prepare(p, sections);
            None
        }
        BoundaryOp::Barrier { sections } => {
            Some(ctrt::validate_w_sync_issue(p, treadmarks::SyncOp::Barrier, sections))
        }
        // The acquire request carries the sections' page list, so the grant
        // arrives with the releaser's diffs piggybacked — the merged
        // lock-grant+data message.
        BoundaryOp::Lock { lock, sections } => {
            Some(ctrt::validate_w_sync_issue(p, treadmarks::SyncOp::Lock(*lock), sections))
        }
        BoundaryOp::NeighborSync { producers, consumers, sections } => {
            Some(ctrt::neighbor_sync_issue(p, producers, consumers, sections))
        }
        BoundaryOp::Push { sends, recv_from, sections } => {
            ctrt::push_phase(p, sends, recv_from);
            prepare(p, sections);
            None
        }
    }
}

/// Prepares `sections` with one aggregate `Validate`. A step that carries
/// none (its sections are still prepared, or it is a non-owner's pivot
/// step) has nothing to do and does nothing.
fn prepare(p: &mut Process, sections: &[ctrt::RegularSection]) {
    if !sections.is_empty() {
        ctrt::validate(p, sections);
    }
}

/// Completes a pending entry op (no-op for ops that finished at issue).
pub fn complete(p: &mut Process, issued: Option<PendingSync>) {
    if let Some(pending) = issued {
        ctrt::validate_w_sync_complete(p, pending);
    }
}

/// Issues and immediately completes an entry op (no overlap).
pub fn run_boundary(p: &mut Process, op: &BoundaryOp) {
    let issued = issue(p, op);
    complete(p, issued);
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
