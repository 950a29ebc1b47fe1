//! # dsm-apps — the paper's application suite
//!
//! Kernels from the ASPLOS '96 evaluation. Each is one numerical loop, one
//! loop-nest IR ([`rsdcomp::Program`]) and one plan driver that runs the IR
//! at whichever compiler level the variant names:
//!
//! * **TreadMarks** — the IR at [`rsdcomp::Level::Stock`]: the program as
//!   the unmodified runtime runs it. Every communicating boundary is a
//!   plain barrier, a guarded phase takes its lock, nothing is prepared or
//!   fetched ahead, and every miss is a page fault and a request/response
//!   pair.
//! * **Validate** — the IR at [`rsdcomp::Level::Validate`]: every
//!   communicating boundary keeps its barrier, merged with the aggregated
//!   fetch of the next phase's sections (`Validate_w_sync`).
//! * **Compiled** — the same IR at [`rsdcomp::Level::Full`]: the analyzer
//!   replaces barriers with pushes and lock chains with reductions where
//!   the dependences allow. Jacobi, SOR and Gauss compile to pushes alone
//!   (SOR's in-place half-sweeps because each processor is the only writer
//!   of its columns); integer sort's histogram merge becomes one reduction
//!   over the barrier tree per iteration, with no lock.
//!
//! [`Variant::Push`] is an alias of [`Variant::Compiled`], kept only while
//! the benchmark package names it.
//!
//! The application contributes only the numeric phase bodies, which run on
//! the bulk accessors at every level; every protocol call is generated by
//! `rsdcomp::compile_at`. All variants therefore execute the identical
//! floating-point operations, so their per-processor checksums are
//! bit-for-bit equal — which is how the tests pin the optimized variants to
//! the stock one.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod gauss;
mod is;
mod jacobi;
mod sor;

pub use gauss::{gauss, gauss_program};
pub use is::{is, is_program};
pub use jacobi::{jacobi, jacobi_program};
pub use sor::{sor, sor_program};

/// Which form of a kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The kernel's IR planned at [`rsdcomp::Level::Stock`]: plain
    /// barriers and locks, every miss a page fault.
    TreadMarks,
    /// The kernel's IR planned at [`rsdcomp::Level::Validate`]:
    /// `Validate_w_sync` at every communicating boundary + bulk accessors.
    Validate,
    /// The kernel's IR planned at [`rsdcomp::Level::Full`]: barriers
    /// replaced with pushes, and lock chains with reductions, wherever the
    /// dependence analysis allows.
    Compiled,
    /// An alias of [`Variant::Compiled`]: it runs the [`rsdcomp::Level::Full`]
    /// plan. It stays only while the benchmark package's `wide64` workload
    /// names it as its checksum reference, and goes with that line. Not in
    /// [`Variant::ALL`].
    Push,
}

impl Variant {
    /// Every distinct variant, in baseline-to-optimized order (the compiled
    /// form last: it is the integrated system the others bound from above).
    pub const ALL: [Variant; 3] = [Variant::TreadMarks, Variant::Validate, Variant::Compiled];

    /// Stable lowercase name, used by the benchmark records.
    pub fn name(self) -> &'static str {
        match self {
            Variant::TreadMarks => "treadmarks",
            Variant::Validate => "validate",
            Variant::Compiled => "compiled",
            Variant::Push => "push",
        }
    }

    /// The compiler level the variant plans its kernel's IR at.
    pub fn level(self) -> rsdcomp::Level {
        match self {
            Variant::TreadMarks => rsdcomp::Level::Stock,
            Variant::Validate => rsdcomp::Level::Validate,
            Variant::Compiled | Variant::Push => rsdcomp::Level::Full,
        }
    }
}

/// Problem size of a grid kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Grid rows (one column of `rows` f64 elements is the unit of
    /// contiguity; `rows == PAGE_SIZE / 8` makes a column exactly one page).
    pub rows: usize,
    /// Grid columns; distributed over processors in contiguous blocks.
    pub cols: usize,
    /// Number of iterations (full sweeps).
    pub iters: usize,
}

/// The contiguous block of columns owned by processor `me` of `nprocs`.
///
/// Remainder columns go to the lowest-numbered processors, so blocks differ
/// in size by at most one. This is the same distribution the compiler's
/// analysis evaluates symbolic spans against — one definition, shared, so
/// the generated plans and the numeric bodies can never disagree about
/// ownership.
pub fn col_block(cols: usize, nprocs: usize, me: usize) -> std::ops::Range<usize> {
    rsdcomp::col_block(cols, nprocs, me)
}

/// The columns of the block `mine` a stencil sweep updates: all but the
/// fixed global boundary columns. Never empty — every kernel asserts at
/// least two columns per processor.
pub(crate) fn update_block(mine: &std::ops::Range<usize>, cols: usize) -> std::ops::Range<usize> {
    mine.start.max(1)..mine.end.min(cols - 1)
}

/// The deterministic initial condition shared by every kernel and variant.
pub(crate) fn seed(i: usize, j: usize) -> f64 {
    ((i * 31 + j * 17) % 97) as f64 / 7.0
}

/// The bulk initialisation every kernel shares: fills the own columns
/// `mine` of each of `grids` with `elem(i, j)`, a column at a time. Above
/// the stock level the plan has write-prepared the block (`WRITE_ALL`).
pub(crate) fn fill_block<T: treadmarks::Shareable>(
    p: &mut treadmarks::Process,
    grids: &[&treadmarks::SharedMatrix<T>],
    mine: std::ops::Range<usize>,
    elem: impl Fn(usize, usize) -> T,
) {
    let rows = grids[0].rows();
    let mut col = Vec::with_capacity(rows);
    for j in mine {
        col.clear();
        col.extend((0..rows).map(|i| elem(i, j)));
        for m in grids {
            p.set_slice(m.array(), col_elems(m, j), &col);
        }
    }
}

/// The float kernels' checksum: the sum over the own column block `mine`
/// of the final grid.
pub(crate) fn block_sum(
    p: &mut treadmarks::Process,
    m: &treadmarks::SharedMatrix<f64>,
    mine: std::ops::Range<usize>,
) -> f64 {
    let mut col = vec![0.0f64; m.rows()];
    let mut sum = 0.0;
    for j in mine {
        p.get_slice(m.array(), col_elems(m, j), &mut col);
        sum += col.iter().sum::<f64>();
    }
    sum
}

/// The element range of column `j` of a column-major matrix.
pub(crate) fn col_elems<T: treadmarks::Shareable>(
    m: &treadmarks::SharedMatrix<T>,
    j: usize,
) -> std::ops::Range<usize> {
    let start = m.index(0, j);
    start..start + m.rows()
}

/// SplitMix64 finalizer: the order-independent per-element hash the integer
/// checksums fold with XOR. XOR-folding hashed elements makes the app-level
/// checksum (the XOR of the per-processor results) independent of the block
/// partition — the same constant pins every cluster size.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Splits a block's updated columns into the interior range — columns whose
/// stencil reads only this processor's own columns — and the at-most-two
/// boundary-adjacent edge ranges that read a neighbour's column. The
/// stencil kernels compute the interior inside `exec::enter` (overlapping
/// the boundary fetch) and the edges afterwards.
pub(crate) fn split_columns(
    update: &std::ops::Range<usize>,
    left_remote: bool,
    right_remote: bool,
) -> (std::ops::Range<usize>, std::ops::Range<usize>, std::ops::Range<usize>) {
    if update.is_empty() {
        let empty = update.start..update.start;
        return (empty.clone(), empty.clone(), empty);
    }
    let interior_start = (update.start + usize::from(left_remote)).min(update.end);
    let interior_end = (update.end - usize::from(right_remote)).max(interior_start);
    (interior_start..interior_end, update.start..interior_start, interior_end..update.end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_columns_partitions_the_update_block() {
        // Interior proc: both flanks remote.
        let (interior, left, right) = split_columns(&(4..12), true, true);
        assert_eq!((interior, left, right), (5..11, 4..5, 11..12));
        // Edge procs: the global-boundary flank is local.
        let (interior, left, right) = split_columns(&(1..8), false, true);
        assert_eq!((interior, left, right), (1..7, 1..1, 7..8));
        let (interior, left, right) = split_columns(&(24..31), true, false);
        assert_eq!((interior, left, right), (25..31, 24..25, 31..31));
        // Degenerate single-column block: exactly one edge range computes
        // it, never both.
        let (interior, left, right) = split_columns(&(4..5), true, true);
        assert!(interior.is_empty());
        assert_eq!(left, 4..5);
        assert!(right.is_empty());
        // Empty update: everything empty.
        let (interior, left, right) = split_columns(&(3..3), true, true);
        assert!(interior.is_empty() && left.is_empty() && right.is_empty());
    }

    #[test]
    fn col_blocks_partition_the_columns() {
        for (cols, nprocs) in [(8, 4), (10, 4), (7, 3), (4, 4)] {
            let mut covered = 0;
            for me in 0..nprocs {
                let b = col_block(cols, nprocs, me);
                assert_eq!(b.start, covered, "blocks must be contiguous");
                covered = b.end;
            }
            assert_eq!(covered, cols, "blocks must cover all columns");
        }
    }
}
