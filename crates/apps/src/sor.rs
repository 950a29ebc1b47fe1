//! Red-black successive over-relaxation (SOR) on a single grid.
//!
//! Each full iteration is two half-sweeps: first every *red* cell
//! (`(i + j)` even) is relaxed against its four (black) neighbours, then
//! every *black* cell against its (red) neighbours, with a phase boundary
//! between the half-sweeps. Because a cell's neighbours always have the
//! opposite colour, in-place update and buffered update compute identical
//! values, and the columns of one half-sweep may be relaxed in any order —
//! which keeps the variants bit-for-bit comparable *and* lets the
//! split-phase form compute interior columns while the boundary fetch is
//! still in flight.

use ctrt::Access;
use rsdcomp::{exec, ArrayDecl, ColSpan, Level, Node, Phase, Program, SectionAccess};
use treadmarks::{Process, SharedMatrix};

use crate::{
    block_sum, col_block, col_elems, fill_block, seed, split_columns, update_block, GridConfig,
    Variant,
};

/// Over-relaxation factor.
const OMEGA: f64 = 1.25;

/// Scratch columns for the streaming relaxation.
pub(crate) struct ColBufs {
    pub prev: Vec<f64>,
    pub cur: Vec<f64>,
    pub next: Vec<f64>,
    pub out: Vec<f64>,
}

impl ColBufs {
    pub(crate) fn new(rows: usize) -> ColBufs {
        ColBufs {
            prev: vec![0.0; rows],
            cur: vec![0.0; rows],
            next: vec![0.0; rows],
            out: vec![0.0; rows],
        }
    }
}

/// Relaxes the `colour` cells of the contiguous columns `cols` in place,
/// streaming three columns at a time through the bulk accessors. Columns of
/// one half-sweep only read cells of the opposite colour in adjacent
/// columns (untouched this half-sweep), so any column order — in
/// particular interior-before-boundary — computes bit-identical values.
fn relax_cols(
    p: &mut Process,
    m: &SharedMatrix<f64>,
    cols: std::ops::Range<usize>,
    colour: usize,
    bufs: &mut ColBufs,
) {
    if cols.is_empty() {
        return;
    }
    let rows = m.rows();
    p.get_slice(m.array(), col_elems(m, cols.start - 1), &mut bufs.prev);
    p.get_slice(m.array(), col_elems(m, cols.start), &mut bufs.cur);
    for j in cols {
        p.get_slice(m.array(), col_elems(m, j + 1), &mut bufs.next);
        bufs.out.copy_from_slice(&bufs.cur);
        // The column's first interior row of this colour, then every other.
        let first = 1 + usize::from((1 + j) % 2 != colour);
        for i in (first..rows - 1).step_by(2) {
            let old = bufs.cur[i];
            let avg = 0.25 * (bufs.cur[i - 1] + bufs.cur[i + 1] + bufs.prev[i] + bufs.next[i]);
            bufs.out[i] = old + OMEGA * (avg - old);
        }
        p.set_slice(m.array(), col_elems(m, j), &bufs.out);
        std::mem::swap(&mut bufs.prev, &mut bufs.cur);
        std::mem::swap(&mut bufs.cur, &mut bufs.next);
    }
}

/// Runs red-black SOR in the given variant and returns this processor's
/// checksum (the sum over its own column block of the final grid).
///
/// # Panics
///
/// Panics if the grid is too small for the decomposition (each processor
/// needs at least two columns and the grid at least two rows).
pub fn sor(p: &mut Process, cfg: &GridConfig, variant: Variant) -> f64 {
    let GridConfig { rows, cols, iters } = *cfg;
    assert!(rows >= 2 && cols >= 2 * p.nprocs(), "each processor needs at least two columns");
    let m = p.alloc_matrix::<f64>(rows, cols);
    let mine = col_block(cols, p.nprocs(), p.proc_id());
    planned(p, &m, iters, &mine, variant.level());
    block_sum(p, &m, mine)
}

/// The red-black SOR kernel as a loop-nest IR: an initialisation phase
/// (every processor fully overwrites its own block) followed by `iters`
/// iterations of two half-sweeps, each reading the halo-extended update
/// block and overwriting the update block in place (`READ&WRITE_ALL`).
///
/// Every processor is the only writer of its own columns in every phase,
/// so the analyzer proves each in-place `ReadWriteAll` section final and
/// classifies every boundary as `Push`: the boundary columns move
/// point-to-point after each half-sweep, and no barrier, twin, diff or
/// write notice remains.
pub fn sor_program(m: &SharedMatrix<f64>, iters: usize) -> Program {
    let grid = ArrayDecl::of_matrix("grid", m);
    let half_sweep = |name| {
        Phase::new(
            name,
            vec![
                SectionAccess::new(0, ColSpan::UpdateHalo(1), Access::Read),
                SectionAccess::new(0, ColSpan::UpdateBlock, Access::ReadWriteAll),
            ],
        )
    };
    Program {
        arrays: vec![grid],
        nodes: vec![
            Node::Phase(Phase::new(
                "init",
                vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
            )),
            Node::Repeat { times: iters, body: vec![half_sweep("red"), half_sweep("black")] },
        ],
    }
}

/// Runs SOR from the plan `rsdcomp` generates for [`sor_program`] at
/// `level`: the application supplies only the numeric bodies (seeding and
/// [`relax_cols`]); every synchronization, fetch, push, write-preparation
/// and warm decision is the compiler's. Each step's entry overlaps the
/// interior columns with its exchange; the edges follow. The split is per
/// column, not per page: the interior columns read no neighbour's column,
/// but where a page holds several columns an interior column shares a page
/// with a neighbour's boundary column, and the overlap body faults on that
/// page while the exchange still has it in flight (ROADMAP item 19).
fn planned(
    p: &mut Process,
    m: &SharedMatrix<f64>,
    iters: usize,
    mine: &std::ops::Range<usize>,
    level: Level,
) {
    let compiled = exec::kernel_for(p, level, || sor_program(m, iters));
    let plan = compiled.kernel.plan_for(p.proc_id());
    let phases = compiled.program.phases();
    let update = update_block(mine, m.cols());
    let (interior, left_edge, right_edge) =
        split_columns(&update, mine.start > 0, mine.end < m.cols());
    let mut bufs = ColBufs::new(m.rows());
    for step in &plan.steps {
        match phases[step.phase].name {
            "init" => {
                exec::enter(p, &step.entry, |_| {});
                fill_block(p, &[m], mine.clone(), seed);
            }
            name @ ("red" | "black") => {
                let colour = usize::from(name == "black");
                exec::enter(p, &step.entry, |p| {
                    relax_cols(p, m, interior.clone(), colour, &mut bufs)
                });
                relax_cols(p, m, left_edge.clone(), colour, &mut bufs);
                relax_cols(p, m, right_edge.clone(), colour, &mut bufs);
            }
            other => unreachable!("unknown phase {other:?}"),
        }
    }
}
