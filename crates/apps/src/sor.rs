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
        for i in 1..rows - 1 {
            if (i + j) % 2 != colour {
                continue;
            }
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
    match variant.level() {
        None => baseline(p, &m, iters, &mine),
        Some(level) => planned(p, &m, iters, &mine, level),
    }
    block_sum(p, &m, mine)
}

/// The baseline: a barrier per half-sweep, every element access a checked
/// access.
fn baseline(p: &mut Process, m: &SharedMatrix<f64>, iters: usize, mine: &std::ops::Range<usize>) {
    let rows = m.rows();
    for j in mine.clone() {
        for i in 0..rows {
            p.set(m.array(), m.index(i, j), seed(i, j));
        }
    }
    p.barrier();
    for _ in 0..iters {
        for colour in 0..2usize {
            p.barrier();
            for j in update_block(mine, m.cols()) {
                for i in 1..rows - 1 {
                    if (i + j) % 2 != colour {
                        continue;
                    }
                    let old = p.get(m.array(), m.index(i, j));
                    let avg = 0.25
                        * (p.get(m.array(), m.index(i - 1, j))
                            + p.get(m.array(), m.index(i + 1, j))
                            + p.get(m.array(), m.index(i, j - 1))
                            + p.get(m.array(), m.index(i, j + 1)));
                    p.set(m.array(), m.index(i, j), old + OMEGA * (avg - old));
                }
            }
        }
    }
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
/// and warm decision is the compiler's. A pending split-phase entry
/// overlaps the interior columns, whose relaxation reads only this
/// processor's own data.
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
        let issued = exec::issue(p, &step.entry);
        match phases[step.phase].name {
            "init" => {
                exec::complete(p, issued);
                fill_block(p, &[m], mine.clone(), seed);
            }
            name @ ("red" | "black") => {
                let colour = usize::from(name == "black");
                relax_cols(p, m, interior.clone(), colour, &mut bufs);
                exec::complete(p, issued);
                relax_cols(p, m, left_edge.clone(), colour, &mut bufs);
                relax_cols(p, m, right_edge.clone(), colour, &mut bufs);
            }
            other => unreachable!("unknown phase {other:?}"),
        }
    }
}
