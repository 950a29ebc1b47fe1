//! The loop-nest / phase-graph IR the compiler analyzes.
//!
//! A [`Program`] describes an SPMD kernel as a sequence of *phases* — each
//! a computation whose shared accesses are summarised by regular sections
//! over declared arrays — optionally repeated by a loop node. Sections are
//! *symbolic in the processor id*: a [`ColSpan`] names column ranges
//! relative to the processor's owned block under the block-column
//! distribution, so one program describes every processor's accesses and
//! the analyzer can enumerate all inter-processor dependences of a phase
//! boundary exactly.

use pagedmem::{Addr, AddrRange};
use treadmarks::{LockId, Shareable, SharedMatrix};

pub use ctrt::{Access, ReduceOp};

/// Index of an array declaration within its [`Program`].
pub type ArrayId = usize;

/// Index of a phase within its [`Program`] (flattened declaration order:
/// straight-line phases first-come, loop-body phases once each).
pub type PhaseId = usize;

/// A shared column-major matrix the program accesses.
///
/// The declaration carries the concrete base address so lowered sections
/// are real address ranges: the IR is built *after* allocation (SPMD
/// programs allocate identically on every processor, so the addresses are
/// program-wide constants by the time the kernel is compiled).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayDecl {
    /// Name used by diagnostics and the `--explain` dump.
    pub name: &'static str,
    /// Base address of element (0, 0).
    pub base: Addr,
    /// Rows (one column of `rows` elements is the contiguity unit).
    pub rows: usize,
    /// Columns, distributed over processors in contiguous blocks.
    pub cols: usize,
    /// Size of one element in bytes.
    pub elem_bytes: usize,
}

impl ArrayDecl {
    /// Declares the array behind a [`SharedMatrix`].
    pub fn of_matrix<T: Shareable>(name: &'static str, m: &SharedMatrix<T>) -> ArrayDecl {
        ArrayDecl {
            name,
            base: m.array().addr_of(0),
            rows: m.rows(),
            cols: m.cols(),
            elem_bytes: T::BYTES,
        }
    }

    /// The byte range of columns `[c0, c1)`.
    pub fn col_range(&self, c0: usize, c1: usize) -> AddrRange {
        assert!(c0 <= c1 && c1 <= self.cols, "column range {c0}..{c1} out of {}", self.cols);
        let col_bytes = self.rows * self.elem_bytes;
        AddrRange::new(self.base.offset(c0 * col_bytes), (c1 - c0) * col_bytes)
    }
}

/// The contiguous block of columns owned by processor `me` of `nprocs`
/// under the block-column distribution (remainder columns go to the
/// lowest-numbered processors, so blocks differ in size by at most one).
pub fn col_block(cols: usize, nprocs: usize, me: usize) -> std::ops::Range<usize> {
    let base = cols / nprocs;
    let extra = cols % nprocs;
    let lo = me * base + me.min(extra);
    let hi = lo + base + usize::from(me < extra);
    lo..hi
}

/// A symbolic column span, evaluated per processor against the block
/// distribution when the program is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColSpan {
    /// The processor's whole owned block.
    OwnBlock,
    /// The owned block minus the fixed global boundary columns (column 0
    /// and column `cols - 1` are never updated by stencil kernels).
    UpdateBlock,
    /// The update block extended by `h` columns on each side, clamped to
    /// the array — the stencil read set (own columns plus the neighbours'
    /// boundary columns).
    UpdateHalo(usize),
    /// The owned block of the processor `offset` positions away. With
    /// `wrap`, the offset is taken modulo `nprocs` (ring patterns);
    /// without, an out-of-range neighbour yields the empty span.
    BlockOf {
        /// Signed processor offset.
        offset: isize,
        /// Whether the offset wraps around the processor ring.
        wrap: bool,
    },
    /// The whole array: a cross-block access (e.g. the read side of a
    /// reduction). Dependences through an `All` span are global, so the
    /// analyzer never eliminates the enclosing boundary.
    All,
    /// The pivot column of the enclosing loop's current iteration (column
    /// `iter`), *for the processor that owns it* — empty on every other
    /// processor. The write side of Gauss's per-iteration pivot broadcast:
    /// exactly one processor's span is non-empty, so the producer set is an
    /// affine function of the iteration symbol.
    Pivot,
    /// The pivot column (column `iter`) for every processor whose owned
    /// block extends past it — the broadcast's consumer set, which shrinks
    /// as the iteration crosses block boundaries. Empty once a processor
    /// has no trailing columns left to update.
    PivotReaders,
    /// The owned block restricted to the trailing columns `iter+1..cols` —
    /// the shrinking trailing submatrix a processor still updates.
    OwnTail,
    /// A subscript the analysis cannot express as a regular section
    /// (non-affine, indirection). Forces a full barrier at every boundary
    /// the access participates in.
    Unknown,
}

impl ColSpan {
    /// Whether the span depends on the enclosing loop's iteration symbol —
    /// its evaluation (and therefore the lowered section) differs per
    /// occurrence of the phase, not just per processor.
    pub fn iter_dependent(self) -> bool {
        matches!(self, ColSpan::Pivot | ColSpan::PivotReaders | ColSpan::OwnTail)
    }

    /// The concrete column range for processor `me` at loop iteration
    /// `iter` (straight-line phases evaluate at `iter == 0`; only the
    /// [`iter_dependent`](Self::iter_dependent) spans read it), or `None`
    /// for [`ColSpan::Unknown`].
    pub fn eval(
        self,
        cols: usize,
        nprocs: usize,
        me: usize,
        iter: usize,
    ) -> Option<std::ops::Range<usize>> {
        match self {
            ColSpan::OwnBlock => Some(col_block(cols, nprocs, me)),
            ColSpan::UpdateBlock => {
                let own = col_block(cols, nprocs, me);
                let lo = own.start.max(1);
                let hi = own.end.min(cols.saturating_sub(1));
                Some(lo..hi.max(lo))
            }
            ColSpan::UpdateHalo(h) => {
                let update = ColSpan::UpdateBlock.eval(cols, nprocs, me, iter).expect("affine");
                if update.is_empty() {
                    return Some(update);
                }
                Some(update.start.saturating_sub(h)..(update.end + h).min(cols))
            }
            ColSpan::BlockOf { offset, wrap } => {
                let n = nprocs as isize;
                let target = me as isize + offset;
                let target = if wrap {
                    target.rem_euclid(n)
                } else if (0..n).contains(&target) {
                    target
                } else {
                    return Some(0..0);
                };
                Some(col_block(cols, nprocs, target as usize))
            }
            ColSpan::All => Some(0..cols),
            ColSpan::Pivot => {
                let own = col_block(cols, nprocs, me);
                if iter < cols && own.contains(&iter) {
                    Some(iter..iter + 1)
                } else {
                    Some(0..0)
                }
            }
            ColSpan::PivotReaders => {
                let own = col_block(cols, nprocs, me);
                if iter < cols && own.end > iter + 1 {
                    Some(iter..iter + 1)
                } else {
                    Some(0..0)
                }
            }
            ColSpan::OwnTail => {
                let own = col_block(cols, nprocs, me);
                let lo = own.start.max(iter + 1).min(own.end);
                Some(lo..own.end)
            }
            ColSpan::Unknown => None,
        }
    }
}

/// One access of a phase: a symbolic column span of an array, tagged with
/// the asserted [`Access`] kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionAccess {
    /// The accessed array.
    pub array: ArrayId,
    /// The columns, symbolic in the processor id.
    pub span: ColSpan,
    /// The access kind (the `WRITE_ALL` variants carry the paper's
    /// full-overwrite assertion, which is what licenses `Push`).
    pub access: Access,
    /// `Some(op)` marks an accumulation: the phase only combines values
    /// into the section's `u64` words with the commutative `op`, and reads
    /// nothing it holds. `access` is then `ReadWrite`, which is what the
    /// accumulation lowers to wherever it is not reduced: a read-modify-write
    /// inside the phase's lock.
    pub accumulates: Option<ReduceOp>,
}

impl SectionAccess {
    /// A new access description.
    pub fn new(array: ArrayId, span: ColSpan, access: Access) -> SectionAccess {
        SectionAccess { array, span, access, accumulates: None }
    }

    /// An accumulation into the section with `op`, declared inside a
    /// lock-guarded phase (see [`SectionAccess::accumulates`]). At
    /// `Level::Full` the compiler may give the phase's body a private
    /// partial and reduce it over the barrier tree instead of taking the
    /// lock; elsewhere it is the guarded `ReadWrite`.
    pub fn accumulate(array: ArrayId, span: ColSpan, op: ReduceOp) -> SectionAccess {
        SectionAccess { array, span, access: Access::ReadWrite, accumulates: Some(op) }
    }

    /// Whether the access reads the section's old contents.
    pub fn reads(&self) -> bool {
        self.access.needs_fetch()
    }

    /// Whether the access writes the section.
    pub fn writes(&self) -> bool {
        self.access.is_write()
    }
}

/// One program phase: a named computation summarised by its accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Diagnostic name (also how applications map plan steps back to their
    /// compute bodies).
    pub name: &'static str,
    /// The phase's shared accesses.
    pub accesses: Vec<SectionAccess>,
    /// The lock guarding the phase, if any. A guarded phase's entry is a
    /// lock acquire (with the phase's sections validated on the grant — the
    /// paper's merged lock-grant+data message) and its exit a release;
    /// overlapping writes between processors inside phases guarded by the
    /// *same* lock are ordered by the lock's acquire chain rather than
    /// refused.
    pub lock: Option<LockId>,
}

impl Phase {
    /// A new (barrier-synchronized) phase.
    pub fn new(name: &'static str, accesses: Vec<SectionAccess>) -> Phase {
        Phase { name, accesses, lock: None }
    }

    /// A phase whose body runs inside `lock`'s critical section.
    pub fn guarded(name: &'static str, accesses: Vec<SectionAccess>, lock: LockId) -> Phase {
        Phase { name, accesses, lock: Some(lock) }
    }

    /// Whether any access's span depends on the loop iteration symbol (the
    /// phase's lowered sections then differ per occurrence).
    pub fn iter_dependent(&self) -> bool {
        self.accesses.iter().any(|a| a.span.iter_dependent())
    }
}

/// A node of the (one-level) loop nest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A straight-line phase, executed once.
    Phase(Phase),
    /// A counted loop over a body of phases.
    Repeat {
        /// The repeat count.
        times: usize,
        /// The phases of one iteration, in execution order.
        body: Vec<Phase>,
    },
}

/// A whole kernel: array declarations plus the phase/loop structure.
///
/// The distribution is implicit: arrays are distributed by contiguous
/// column blocks ([`col_block`]), the per-proc ownership every [`ColSpan`]
/// is evaluated against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// The shared arrays.
    pub arrays: Vec<ArrayDecl>,
    /// The phase/loop structure, in execution order.
    pub nodes: Vec<Node>,
}

impl Program {
    /// Every distinct phase in declaration order; the index is the
    /// [`PhaseId`] used throughout the compiler.
    pub fn phases(&self) -> Vec<&Phase> {
        let mut out = Vec::new();
        for node in &self.nodes {
            match node {
                Node::Phase(p) => out.push(p),
                Node::Repeat { body, .. } => out.extend(body.iter()),
            }
        }
        out
    }

    /// The unrolled execution order as `(phase id, iteration)` pairs: the
    /// iteration symbol of the enclosing `Repeat` (straight-line phases run
    /// at iteration 0), which iteration-dependent [`ColSpan`]s are
    /// evaluated against per occurrence.
    pub fn occurrences_with_iter(&self) -> Vec<(PhaseId, usize)> {
        let mut out = Vec::new();
        let mut next_id = 0;
        for node in &self.nodes {
            match node {
                Node::Phase(_) => {
                    out.push((next_id, 0));
                    next_id += 1;
                }
                Node::Repeat { times, body } => {
                    let ids: Vec<PhaseId> = (next_id..next_id + body.len()).collect();
                    next_id += body.len();
                    for iter in 0..*times {
                        out.extend(ids.iter().map(|&id| (id, iter)));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn col_blocks_partition_the_columns() {
        for (cols, nprocs) in [(8, 4), (10, 4), (7, 3), (4, 4), (32, 16)] {
            let mut covered = 0;
            for me in 0..nprocs {
                let b = col_block(cols, nprocs, me);
                assert_eq!(b.start, covered);
                covered = b.end;
            }
            assert_eq!(covered, cols);
        }
    }

    #[test]
    fn spans_evaluate_against_the_block_distribution() {
        // 8 columns over 4 procs: blocks of 2.
        assert_eq!(ColSpan::OwnBlock.eval(8, 4, 1, 0), Some(2..4));
        assert_eq!(ColSpan::UpdateBlock.eval(8, 4, 0, 0), Some(1..2));
        assert_eq!(ColSpan::UpdateBlock.eval(8, 4, 3, 0), Some(6..7));
        assert_eq!(ColSpan::UpdateHalo(1).eval(8, 4, 1, 0), Some(1..5));
        assert_eq!(ColSpan::UpdateHalo(1).eval(8, 4, 0, 0), Some(0..3));
        assert_eq!(ColSpan::All.eval(8, 4, 2, 0), Some(0..8));
        assert_eq!(ColSpan::Unknown.eval(8, 4, 2, 0), None);
    }

    #[test]
    fn block_of_clamps_or_wraps() {
        let clamped = ColSpan::BlockOf { offset: -1, wrap: false };
        assert_eq!(clamped.eval(8, 4, 0, 0), Some(0..0), "no left neighbour without wrap");
        assert_eq!(clamped.eval(8, 4, 2, 0), Some(2..4));
        let ring = ColSpan::BlockOf { offset: 1, wrap: true };
        assert_eq!(ring.eval(8, 4, 3, 0), Some(0..2), "the ring wraps to processor 0");
    }

    #[test]
    fn pivot_spans_follow_the_iteration_symbol() {
        // 8 columns over 4 procs: blocks of 2. At iteration 2 the pivot
        // column is owned by processor 1; readers are everyone whose block
        // extends past column 2.
        assert_eq!(ColSpan::Pivot.eval(8, 4, 1, 2), Some(2..3));
        assert_eq!(ColSpan::Pivot.eval(8, 4, 0, 2), Some(0..0));
        assert_eq!(ColSpan::Pivot.eval(8, 4, 2, 2), Some(0..0));
        assert_eq!(ColSpan::PivotReaders.eval(8, 4, 1, 2), Some(2..3), "owner still updates 3");
        assert_eq!(ColSpan::PivotReaders.eval(8, 4, 3, 2), Some(2..3));
        assert_eq!(ColSpan::PivotReaders.eval(8, 4, 0, 2), Some(0..0), "no trailing columns");
        // At iteration 3 processor 1's block (2..4) has no trailing columns.
        assert_eq!(ColSpan::PivotReaders.eval(8, 4, 1, 3), Some(0..0));
        assert_eq!(ColSpan::OwnTail.eval(8, 4, 1, 2), Some(3..4));
        assert_eq!(ColSpan::OwnTail.eval(8, 4, 1, 0), Some(2..4), "tail clamps to the block");
        assert_eq!(ColSpan::OwnTail.eval(8, 4, 0, 5), Some(2..2), "exhausted block is empty");
        // Past the last column everything is empty.
        assert_eq!(ColSpan::Pivot.eval(8, 4, 3, 9), Some(0..0));
        assert!(ColSpan::Pivot.iter_dependent() && !ColSpan::OwnBlock.iter_dependent());
    }

    #[test]
    fn occurrences_unroll_loops_and_ids_are_stable() {
        let phase = |name| Phase::new(name, Vec::new());
        let program = Program {
            arrays: Vec::new(),
            nodes: vec![
                Node::Phase(phase("init")),
                Node::Repeat { times: 3, body: vec![phase("red"), phase("black")] },
            ],
        };
        assert_eq!(program.phases().len(), 3);
        assert_eq!(
            program.occurrences_with_iter(),
            vec![(0, 0), (1, 0), (2, 0), (1, 1), (2, 1), (1, 2), (2, 2)],
            "loop-body occurrences carry the iteration symbol"
        );
    }
}
