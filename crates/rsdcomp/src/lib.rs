//! # rsdcomp — the regular-section compiler
//!
//! The compile-time half of the paper: a loop-nest/phase-graph IR whose
//! phases summarise their shared accesses as regular sections over declared
//! arrays ([`Program`], [`Phase`], [`SectionAccess`]), a dependence
//! analyzer that classifies every phase boundary
//! ([`analyze_boundary`] → [`BoundaryClass`]), and a plan generator
//! ([`compile`], then [`CompiledKernel::plan_for`] on each processor) that
//! lowers the classified program to the exact sequence of `ctrt` calls each
//! processor executes ([`ProcPlan`], run through [`exec`]).
//!
//! The classification ladder, most to least optimized:
//!
//! 1. **`NoComm`** — no inter-processor dependence: the boundary vanishes.
//! 2. **[`BoundaryClass::Push`]** — every dependence's producer section is
//!    final and the consumer sets are statically known: data moves
//!    point-to-point, no barrier, no twins, no diffs, no notices. A section
//!    is final when it carries the pure `WRITE_ALL` assertion, or when it
//!    is a `READ&WRITE_ALL` whose processor is the only writer of its bytes
//!    anywhere in the program (red-black SOR's in-place half-sweeps: the
//!    column distribution alone proves it).
//! 3. **[`BoundaryClass::Reduce`]** — the exit of a phase whose only
//!    cross-processor writes are accumulations into one section: every
//!    processor's private partial is summed over the barrier tree, with no
//!    lock, twin or diff (integer sort's histogram merge).
//! 4. **[`BoundaryClass::Lock`]** — the boundary enters a lock-guarded
//!    phase and every remaining dependence is ordered by that lock's
//!    acquire chain: the entry is an acquire whose grant validates the
//!    phase's sections (the merged lock-grant+data message), the exit a
//!    release — no barrier. Writes the chain cannot order refuse with
//!    [`Refusal::OutsideAcquireChain`]; a refused entry keeps the barrier
//!    *and* the lock ([`BoundaryOp::BarrierLock`]).
//! 5. **`FullBarrier`** — everything else, including the analyzer's
//!    refusals ([`Refusal`]): overlapping write sections, non-affine
//!    subscripts, cross-block dependences, and dependences out of sections
//!    that are not final (a partial write, or bytes a second processor also
//!    writes), whose pages stay DSM-managed. Refusal is always sound — the
//!    real barrier preserves every happens-before edge.
//!    A barrier fed purely by lock-ordered writes (the lock+barrier idiom,
//!    e.g. integer sort's histogram merge) is *not* a refusal: the holder
//!    order is runtime-determined, so the barrier is the intended sync.
//!
//! Spans may reference the enclosing loop's iteration symbol
//! ([`ColSpan::Pivot`], [`ColSpan::PivotReaders`], [`ColSpan::OwnTail`]):
//! the analyzer and plan generator lower them per occurrence, so a
//! per-iteration pivot broadcast classifies as `Push` with an
//! iteration-dependent consumer set (Gaussian elimination's per-step
//! barrier vanishes).
//!
//! `Push` and `Reduce` install raw bytes, so both need the whole program
//! to keep no DSM-managed boundary: if any barrier or lock remains, every
//! push is demoted to a barrier and every accumulation keeps its lock
//! (`DESIGN.md` §6 and §9 have the soundness arguments).
//!
//! The ladder is what [`Level::Full`] may use. [`compile_at`] with
//! [`Level::Validate`] stops at the paper's first level — aggregation and
//! merged data+sync at barriers that all stay: class 2 becomes class 5, an
//! accumulation is the lock it lowers to, the rest are unchanged.
//! [`Level::Stock`] is the program without the compiler: classes 2 and 4
//! become class 5 too, and no step prepares a section.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
pub mod differential;
pub mod exec;
mod explain;
mod form;
mod ir;
mod plan;

pub use analysis::{analyze_boundary, BoundaryAnalysis, BoundaryClass, DepPair, Refusal};
pub use ctrt::{Access, ReduceOp, RegularSection, SyncOp};
pub use differential::{RacyOutcome, RefusalClass};
pub use explain::explain;
pub use ir::{
    col_block, ArrayDecl, ArrayId, ColSpan, Node, Phase, PhaseId, Program, SectionAccess,
};
pub use pagedmem::AddrRange;
pub use plan::{
    compile, compile_at, BoundaryOp, BoundarySummary, CompiledKernel, Level, PhaseExit, PlanStep,
    ProcPlan, Reduction,
};
pub use treadmarks::LockId;
