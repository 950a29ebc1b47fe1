//! Jacobi iterative smoother (the paper's first application).
//!
//! Two `rows x cols` grids; every sweep computes each interior cell of the
//! destination grid as the four-point average of the source grid and then
//! the roles swap. Columns are distributed over processors in contiguous
//! blocks (column-major layout makes a block one contiguous address range);
//! each sweep a processor reads its own block plus one boundary column from
//! each neighbour. Destination columns depend only on the source grid, so
//! they may be written in any order — the split-phase form exploits this to
//! sweep the interior columns while the boundary columns are in flight.

use ctrt::Access;
use rsdcomp::{exec, ArrayDecl, ColSpan, Level, Node, Phase, Program, SectionAccess};
use treadmarks::{Process, SharedMatrix};

use crate::sor::ColBufs;
use crate::{
    block_sum, col_block, col_elems, fill_block, seed, split_columns, update_block, GridConfig,
    Variant,
};

/// Sweeps the contiguous destination columns `cols`: each interior cell of
/// `dst` becomes the four-point average of `src`, boundary rows are copied.
/// Reads only `src`, so the column order is free — bit-identical however
/// the sweep is split.
fn sweep_cols(
    p: &mut Process,
    src: &SharedMatrix<f64>,
    dst: &SharedMatrix<f64>,
    cols: std::ops::Range<usize>,
    bufs: &mut ColBufs,
) {
    if cols.is_empty() {
        return;
    }
    let rows = src.rows();
    p.get_slice(src.array(), col_elems(src, cols.start - 1), &mut bufs.prev);
    p.get_slice(src.array(), col_elems(src, cols.start), &mut bufs.cur);
    for j in cols {
        p.get_slice(src.array(), col_elems(src, j + 1), &mut bufs.next);
        bufs.out[0] = bufs.cur[0];
        for i in 1..rows - 1 {
            bufs.out[i] = 0.25 * (bufs.cur[i - 1] + bufs.cur[i + 1] + bufs.prev[i] + bufs.next[i]);
        }
        bufs.out[rows - 1] = bufs.cur[rows - 1];
        p.set_slice(dst.array(), col_elems(dst, j), &bufs.out);
        std::mem::swap(&mut bufs.prev, &mut bufs.cur);
        std::mem::swap(&mut bufs.cur, &mut bufs.next);
    }
}

/// Runs the Jacobi kernel in the given variant and returns this
/// processor's checksum (the sum over its own column block of the final
/// grid). All variants perform identical floating-point operations, so
/// checksums are bit-for-bit equal across variants.
///
/// # Panics
///
/// Panics if the grid is too small for the decomposition (each processor
/// needs at least two columns and the grid at least two rows).
pub fn jacobi(p: &mut Process, cfg: &GridConfig, variant: Variant) -> f64 {
    let GridConfig { rows, cols, iters } = *cfg;
    assert!(rows >= 2 && cols >= 2 * p.nprocs(), "each processor needs at least two columns");
    let a = p.alloc_matrix::<f64>(rows, cols);
    let b = p.alloc_matrix::<f64>(rows, cols);
    let mine = col_block(cols, p.nprocs(), p.proc_id());
    match variant.level() {
        None => baseline(p, &a, &b, iters, &mine),
        Some(level) => planned(p, &a, &b, iters, &mine, level),
    }
    block_sum(p, if iters.is_multiple_of(2) { &a } else { &b }, mine)
}

/// The baseline: a barrier per sweep, every element access a checked access.
fn baseline(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    b: &SharedMatrix<f64>,
    iters: usize,
    mine: &std::ops::Range<usize>,
) {
    let rows = a.rows();
    for j in mine.clone() {
        for i in 0..rows {
            p.set(a.array(), a.index(i, j), seed(i, j));
            p.set(b.array(), b.index(i, j), seed(i, j));
        }
    }
    p.barrier();
    for t in 0..iters {
        let (src, dst) = if t % 2 == 0 { (a, b) } else { (b, a) };
        p.barrier();
        for j in update_block(mine, a.cols()) {
            for i in 1..rows - 1 {
                let v = 0.25
                    * (p.get(src.array(), src.index(i - 1, j))
                        + p.get(src.array(), src.index(i + 1, j))
                        + p.get(src.array(), src.index(i, j - 1))
                        + p.get(src.array(), src.index(i, j + 1)));
                p.set(dst.array(), dst.index(i, j), v);
            }
            let top = p.get(src.array(), src.index(0, j));
            p.set(dst.array(), dst.index(0, j), top);
            let bottom = p.get(src.array(), src.index(rows - 1, j));
            p.set(dst.array(), dst.index(rows - 1, j), bottom);
        }
    }
}

/// The Jacobi kernel as a loop-nest IR: an initialisation phase overwrites
/// both grids' own blocks, then sweeps alternate between the grids — each
/// sweep reads the source's halo-extended update block and fully
/// overwrites the destination's update block (`WRITE_ALL`). Odd iteration
/// counts append the unpaired trailing sweep after the loop.
///
/// Every boundary's dependences are nearest-neighbour flows out of pure
/// `WRITE_ALL` sections, so the analyzer classifies the whole kernel as
/// `Push`: the compiled form runs without barriers, twins, diffs or write
/// notices, and prepares no write after the initialisation's `WRITE_ALL`.
pub fn jacobi_program(a: &SharedMatrix<f64>, b: &SharedMatrix<f64>, iters: usize) -> Program {
    let sweep = |name, src: usize, dst: usize| {
        Phase::new(
            name,
            vec![
                SectionAccess::new(src, ColSpan::UpdateHalo(1), Access::Read),
                SectionAccess::new(dst, ColSpan::UpdateBlock, Access::WriteAll),
            ],
        )
    };
    let mut nodes = vec![Node::Phase(Phase::new(
        "init",
        vec![
            SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll),
            SectionAccess::new(1, ColSpan::OwnBlock, Access::WriteAll),
        ],
    ))];
    if iters >= 2 {
        nodes.push(Node::Repeat {
            times: iters / 2,
            body: vec![sweep("sweep_ab", 0, 1), sweep("sweep_ba", 1, 0)],
        });
    }
    if iters % 2 == 1 {
        nodes.push(Node::Phase(sweep("sweep_ab", 0, 1)));
    }
    Program { arrays: vec![ArrayDecl::of_matrix("a", a), ArrayDecl::of_matrix("b", b)], nodes }
}

/// Runs Jacobi from the plan `rsdcomp` generates for [`jacobi_program`] at
/// `level`: the application supplies only the numeric bodies (seeding and
/// [`sweep_cols`]); every data-movement decision is the compiler's. A
/// pending split-phase entry overlaps the interior columns, whose stencil
/// reads only this processor's own data.
fn planned(
    p: &mut Process,
    a: &SharedMatrix<f64>,
    b: &SharedMatrix<f64>,
    iters: usize,
    mine: &std::ops::Range<usize>,
    level: Level,
) {
    let compiled = exec::kernel_for(p, level, || jacobi_program(a, b, iters));
    let plan = compiled.kernel.plan_for(p.proc_id());
    let phases = compiled.program.phases();
    let update = update_block(mine, a.cols());
    let (interior, left_edge, right_edge) =
        split_columns(&update, mine.start > 0, mine.end < a.cols());
    let mut bufs = ColBufs::new(a.rows());
    for step in &plan.steps {
        let issued = exec::issue(p, &step.entry);
        match phases[step.phase].name {
            "init" => {
                exec::complete(p, issued);
                fill_block(p, &[a, b], mine.clone(), seed);
            }
            name @ ("sweep_ab" | "sweep_ba") => {
                let (src, dst) = if name == "sweep_ab" { (a, b) } else { (b, a) };
                sweep_cols(p, src, dst, interior.clone(), &mut bufs);
                exec::complete(p, issued);
                sweep_cols(p, src, dst, left_edge.clone(), &mut bufs);
                sweep_cols(p, src, dst, right_edge.clone(), &mut bufs);
            }
            other => unreachable!("unknown phase {other:?}"),
        }
    }
}
