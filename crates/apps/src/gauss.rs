//! Gaussian elimination with a per-iteration pivot-column broadcast.
//!
//! A `rows x cols` matrix is eliminated one leading column per step: the
//! owner of column `k` scales it into a full pivot column (`piv[i][k] =
//! a[i][k] / a[k][k]` below the diagonal, zero at and above), and every
//! processor whose block extends past column `k` subtracts the pivot
//! multiples from its remaining columns. The matrix is made diagonally
//! dominant at initialisation so no row pivoting is needed — the
//! elimination order, and therefore every floating-point operation, is
//! statically fixed and bit-identical across variants.
//!
//! The interesting dependence is the pivot broadcast: its producer (the
//! owner of column `k`) and its consumer set (the processors still holding
//! columns past `k`) *change every iteration*. The baseline pays one
//! barrier per elimination step for it; the analyzable forms express the
//! spans in the loop's iteration symbol ([`ColSpan::Pivot`],
//! [`ColSpan::PivotReaders`], [`ColSpan::OwnTail`]), so the compiled form
//! classifies every step as `Push` with an iteration-dependent consumer
//! set and runs the whole elimination without a single barrier.

use ctrt::Access;
use rsdcomp::{exec, ArrayDecl, ColSpan, Level, Node, Phase, Program, SectionAccess};
use treadmarks::{Process, SharedMatrix};

use crate::{col_block, col_elems, fill_block, mix64, seed, GridConfig, Variant};

/// Diagonal boost added at initialisation. Large against the off-diagonal
/// seeds (which are below 14), so the matrix is strictly diagonally
/// dominant and stays so through every elimination step — no pivot search,
/// no division by small numbers, a statically fixed operation order.
const DIAG: f64 = 1000.0;

/// The deterministic initial element `a[i][j]`.
fn seed_elem(i: usize, j: usize) -> f64 {
    seed(i, j) + if i == j { DIAG } else { 0.0 }
}

/// Computes the full pivot column `k` on its owner: `a[i][k] / a[k][k]`
/// below the diagonal, zero at and above it. Overwrites the whole column,
/// so the section's `WRITE_ALL` assertion is literal.
fn pivot_col(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    piv: &SharedMatrix<f64>,
    k: usize,
    abuf: &mut [f64],
    pbuf: &mut [f64],
) {
    p.get_slice(a.array(), col_elems(a, k), abuf);
    let akk = abuf[k];
    for (i, slot) in pbuf.iter_mut().enumerate() {
        *slot = if i > k { abuf[i] / akk } else { 0.0 };
    }
    p.set_slice(piv.array(), col_elems(piv, k), pbuf);
}

/// Applies elimination step `k` to this processor's columns `tail` (its
/// block clipped to `k+1..`): `a[i][j] -= piv[i][k] * a[k][j]` for the
/// rows below the pivot.
fn update_cols(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    piv: &SharedMatrix<f64>,
    k: usize,
    tail: std::ops::Range<usize>,
    abuf: &mut [f64],
    pbuf: &mut [f64],
) {
    if tail.is_empty() {
        return;
    }
    let rows = a.rows();
    p.get_slice(piv.array(), col_elems(piv, k), pbuf);
    for j in tail {
        p.get_slice(a.array(), col_elems(a, j), abuf);
        let akj = abuf[k];
        for i in k + 1..rows {
            abuf[i] -= pbuf[i] * akj;
        }
        p.set_slice(a.array(), col_elems(a, j), abuf);
    }
}

/// This processor's checksum: the XOR of the hashed bit patterns of its own
/// block's final elements. XOR-combining the per-processor values yields
/// the XOR over *all* elements — independent of the block partition, so one
/// pinned constant covers every cluster size.
fn checksum(p: &mut Process, a: &SharedMatrix<f64>, mine: std::ops::Range<usize>) -> u64 {
    let rows = a.rows();
    let mut buf = vec![0.0f64; rows];
    let mut chk = 0u64;
    for j in mine {
        p.get_slice(a.array(), col_elems(a, j), &mut buf);
        for (i, v) in buf.iter().enumerate() {
            let idx = (j * rows + i) as u64;
            chk ^= mix64(v.to_bits() ^ mix64(idx));
        }
    }
    chk
}

/// Runs Gaussian elimination in the given variant and returns this
/// processor's checksum (XOR-combine across processors for the
/// partition-independent app checksum). All variants perform identical
/// floating-point operations, so checksums are bit-for-bit equal.
///
/// Only `a` is initialised: the pivot phase fully overwrites its column of
/// `piv` before anyone reads it (initialising it would create a spurious
/// dependence). No boundary follows the initialisation in any variant: the
/// first pivot phase reads only its owner's own column.
///
/// # Panics
///
/// Panics if the decomposition is too small (each processor needs at least
/// two columns) or `iters` is not a valid number of elimination steps
/// (`iters < min(rows, cols)`).
pub fn gauss(p: &mut Process, cfg: &GridConfig, variant: Variant) -> u64 {
    let GridConfig { rows, cols, iters } = *cfg;
    assert!(rows >= 2 && cols >= 2 * p.nprocs(), "each processor needs at least two columns");
    assert!(iters < rows && iters < cols, "one elimination step per leading column");
    let a = p.alloc_matrix::<f64>(rows, cols);
    let piv = p.alloc_matrix::<f64>(rows, cols);
    let mine = col_block(cols, p.nprocs(), p.proc_id());
    match variant.level() {
        None => baseline(p, &a, &piv, iters, &mine),
        Some(level) => planned(p, &a, &piv, iters, &mine, level),
    }
    checksum(p, &a, mine)
}

/// This processor's columns past the pivot column `k`: its block clipped to
/// `k+1..`.
fn tail_of(mine: &std::ops::Range<usize>, k: usize) -> std::ops::Range<usize> {
    mine.start.max(k + 1).min(mine.end)..mine.end
}

/// The baseline: per-element checked accesses, one barrier per elimination
/// step between the pivot computation and the updates that consume it.
fn baseline(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    piv: &SharedMatrix<f64>,
    steps: usize,
    mine: &std::ops::Range<usize>,
) {
    let rows = a.rows();
    for j in mine.clone() {
        for i in 0..rows {
            p.set(a.array(), a.index(i, j), seed_elem(i, j));
        }
    }
    for k in 0..steps {
        if mine.contains(&k) {
            let akk = p.get(a.array(), a.index(k, k));
            for i in 0..rows {
                let v = if i > k { p.get(a.array(), a.index(i, k)) / akk } else { 0.0 };
                p.set(piv.array(), piv.index(i, k), v);
            }
        }
        p.barrier();
        for j in tail_of(mine, k) {
            let akj = p.get(a.array(), a.index(k, j));
            for i in k + 1..rows {
                let v = p.get(a.array(), a.index(i, j)) - p.get(piv.array(), piv.index(i, k)) * akj;
                p.set(a.array(), a.index(i, j), v);
            }
        }
    }
}

/// The elimination kernel as a loop-nest IR. The spans are written in the
/// loop's iteration symbol: the pivot phase reads and fully overwrites
/// column `k` on its owner ([`ColSpan::Pivot`]), the update phase reads
/// the pivot column on the processors still holding later columns
/// ([`ColSpan::PivotReaders`]) and read-modifies its own tail
/// ([`ColSpan::OwnTail`]). The analyzer lowers each occurrence at its
/// iteration, finds exactly one dependence per step — owner of `k` →
/// readers of `k`, out of a pure `WRITE_ALL` section — and classifies every
/// step as `Push`: the per-iteration barrier vanishes.
pub fn gauss_program(a: &SharedMatrix<f64>, piv: &SharedMatrix<f64>, steps: usize) -> Program {
    Program {
        arrays: vec![ArrayDecl::of_matrix("a", a), ArrayDecl::of_matrix("piv", piv)],
        nodes: vec![
            Node::Phase(Phase::new(
                "init",
                vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
            )),
            Node::Repeat {
                times: steps,
                body: vec![
                    Phase::new(
                        "pivot",
                        vec![
                            SectionAccess::new(0, ColSpan::Pivot, Access::Read),
                            SectionAccess::new(1, ColSpan::Pivot, Access::WriteAll),
                        ],
                    ),
                    Phase::new(
                        "update",
                        vec![
                            SectionAccess::new(1, ColSpan::PivotReaders, Access::Read),
                            SectionAccess::new(0, ColSpan::OwnTail, Access::ReadWrite),
                        ],
                    ),
                ],
            },
        ],
    }
}

/// Runs the elimination from the plan `rsdcomp` generates for
/// [`gauss_program`] at `level`: the application supplies only the numeric
/// bodies, keyed by phase name and the plan step's iteration number; every
/// data-movement decision — including the per-iteration producer and
/// consumer sets of the pivot broadcast — is the compiler's.
fn planned(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    piv: &SharedMatrix<f64>,
    steps: usize,
    mine: &std::ops::Range<usize>,
    level: Level,
) {
    let compiled = exec::kernel_for(p, level, || gauss_program(a, piv, steps));
    let plan = compiled.kernel.plan_for(p.proc_id());
    let phases = compiled.program.phases();
    let mut abuf = vec![0.0f64; a.rows()];
    let mut pbuf = vec![0.0f64; a.rows()];
    for step in &plan.steps {
        exec::run_boundary(p, &step.entry);
        let k = step.iter;
        match phases[step.phase].name {
            "init" => fill_block(p, &[a], mine.clone(), seed_elem),
            "pivot" if mine.contains(&k) => pivot_col(p, a, piv, k, &mut abuf, &mut pbuf),
            "pivot" => {}
            "update" => update_cols(p, a, piv, k, tail_of(mine, k), &mut abuf, &mut pbuf),
            other => unreachable!("unknown phase {other:?}"),
        }
    }
}
