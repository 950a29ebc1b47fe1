//! Red-black successive over-relaxation (SOR) on a single grid.
//!
//! Each full iteration is two half-sweeps: first every *red* cell
//! (`(i + j)` even) is relaxed against its four (black) neighbours, then
//! every *black* cell against its (red) neighbours, with a phase boundary
//! between the half-sweeps. Because a cell's neighbours always have the
//! opposite colour, in-place update and buffered update compute identical
//! values, and the columns of one half-sweep may be relaxed in any order —
//! which keeps the three variants bit-for-bit comparable *and* lets the
//! split-phase form compute interior columns while the boundary fetch is
//! still in flight.

use ctrt::{
    validate, validate_w_sync_complete, validate_w_sync_issue, warm_sections, Access, Push,
    RegularSection, SyncOp,
};
use rsdcomp::{ArrayDecl, ColSpan, Node, Phase, Program, SectionAccess};
use treadmarks::{Process, SharedMatrix};

use crate::{col_block, col_elems, seed, split_columns, GridConfig, Variant};

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

/// Point-to-point exchange of block-boundary columns of `m`: column `lo`
/// travels to the left neighbour, column `hi - 1` to the right, and the
/// mirror-image columns are received. The collective is globally matched by
/// construction (every processor runs the same rule).
pub(crate) fn exchange_boundaries(p: &mut Process, m: &SharedMatrix<f64>, lo: usize, hi: usize) {
    let me = p.proc_id();
    let nprocs = p.nprocs();
    let mut sends = Vec::new();
    let mut recv = Vec::new();
    if me > 0 {
        sends.push(Push::new(me - 1, &[RegularSection::matrix_cols(m, lo..lo + 1, Access::Read)]));
        recv.push(me - 1);
    }
    if me + 1 < nprocs {
        sends.push(Push::new(me + 1, &[RegularSection::matrix_cols(m, hi - 1..hi, Access::Read)]));
        recv.push(me + 1);
    }
    ctrt::push_phase(p, &sends, &recv);
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
    let nprocs = p.nprocs();
    assert!(rows >= 2 && cols >= 2 * nprocs, "each processor needs at least two columns");
    let m = p.alloc_matrix::<f64>(rows, cols);
    if variant == Variant::Compiled {
        return sor_compiled(p, cfg, &m);
    }
    let me = p.proc_id();
    let mine = col_block(cols, nprocs, me);
    let (lo, hi) = (mine.start, mine.end);
    let update = lo.max(1)..hi.min(cols - 1);
    // Columns whose relaxation reads only this processor's own data, and
    // the (at most two) boundary-adjacent columns that read a neighbour's
    // column — what the split-phase form computes before/after `complete`.
    let (interior, left_edge, right_edge) = split_columns(&update, lo > 0, hi < cols);

    // Deterministic initial condition: per element for the baseline, a
    // WRITE_ALL-validated bulk phase for the optimized forms. For Push the
    // WRITE_ALL assertion is permanent — the push form performs no release,
    // so the block stays write-enabled and twin-free for the whole run.
    let mut colbuf = vec![0.0f64; rows];
    match variant {
        Variant::TreadMarks => {
            for j in mine.clone() {
                for i in 0..rows {
                    p.set(m.array(), m.index(i, j), seed(i, j));
                }
            }
        }
        Variant::Validate | Variant::Push => {
            validate(p, &[RegularSection::matrix_cols(&m, mine.clone(), Access::WriteAll)]);
            for j in mine.clone() {
                for (i, slot) in colbuf.iter_mut().enumerate() {
                    *slot = seed(i, j);
                }
                p.set_slice(m.array(), col_elems(&m, j), &colbuf);
            }
        }
        Variant::Compiled => unreachable!("the compiled form returned above"),
    }
    match variant {
        Variant::TreadMarks => p.barrier(),
        // The Validate form needs no separate barrier here: the first
        // half-sweep's `validate_w_sync_issue` *is* the phase boundary.
        Variant::Validate => {}
        Variant::Push => exchange_boundaries(p, &m, lo, hi),
        Variant::Compiled => unreachable!("the compiled form returned above"),
    }

    // The sections of one half-sweep: the columns flanking the update block
    // are read (a neighbour's boundary column, or a fixed global boundary
    // column — covering the latter keeps the fast path warm), and the
    // update block is read and then fully overwritten (`set_slice` rewrites
    // every byte of every update column) — the paper's READ&WRITE_ALL:
    // fetched, but twin-free.
    let half_sweep_sections = |m: &SharedMatrix<f64>| {
        let mut sections = Vec::new();
        if !update.is_empty() {
            sections.push(RegularSection::matrix_cols(
                m,
                update.start - 1..update.start,
                Access::Read,
            ));
            sections.push(RegularSection::matrix_cols(m, update.end..update.end + 1, Access::Read));
            sections.push(RegularSection::matrix_cols(m, update.clone(), Access::ReadWriteAll));
        }
        sections
    };

    let mut bufs = ColBufs::new(rows);
    for _ in 0..iters {
        for colour in 0..2usize {
            match variant {
                Variant::TreadMarks => {
                    p.barrier();
                    for j in update.clone() {
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
                Variant::Validate => {
                    // Split-phase: issue the merged fetch at the phase
                    // boundary, relax the interior columns while the
                    // neighbours' boundary columns are in flight, complete,
                    // then relax the boundary-adjacent columns.
                    let pending =
                        validate_w_sync_issue(p, SyncOp::Barrier, &half_sweep_sections(&m));
                    relax_cols(p, &m, interior.clone(), colour, &mut bufs);
                    validate_w_sync_complete(p, pending);
                    relax_cols(p, &m, left_edge.clone(), colour, &mut bufs);
                    relax_cols(p, &m, right_edge.clone(), colour, &mut bufs);
                }
                Variant::Push => {
                    let read = lo.saturating_sub(1)..(hi + 1).min(cols);
                    let mut sections = vec![RegularSection::matrix_cols(&m, read, Access::Read)];
                    if !update.is_empty() {
                        sections.push(RegularSection::matrix_cols(
                            &m,
                            update.clone(),
                            Access::Write,
                        ));
                    }
                    warm_sections(p, &sections);
                    relax_cols(p, &m, update.clone(), colour, &mut bufs);
                    exchange_boundaries(p, &m, lo, hi);
                }
                Variant::Compiled => unreachable!("the compiled form returned above"),
            }
        }
    }

    // The push exchanges staled every mapping (each install bumps the
    // epoch); re-warm the block once instead of slow-filling per page.
    if variant == Variant::Push {
        warm_sections(p, &[RegularSection::matrix_cols(&m, mine.clone(), Access::Read)]);
    }
    let mut sum = 0.0;
    for j in mine {
        p.get_slice(m.array(), col_elems(&m, j), &mut colbuf);
        sum += colbuf.iter().sum::<f64>();
    }
    sum
}

/// The red-black SOR kernel as a loop-nest IR: an initialisation phase
/// (every processor fully overwrites its own block) followed by `iters`
/// iterations of two half-sweeps, each reading the halo-extended update
/// block and overwriting the update block in place (`READ&WRITE_ALL`).
///
/// The analyzer classifies the half-sweep boundaries as eliminable
/// nearest-neighbour exchanges — the in-place `ReadWriteAll` keeps the
/// pages DSM-managed, so only the barrier goes, replaced by the merged
/// data+sync handshake — and the GC policy retains the loop-back boundary
/// as the one real barrier per iteration.
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

/// Runs SOR from the plan `rsdcomp::compile` generates for [`sor_program`]:
/// the application supplies only the numeric bodies (seeding and
/// [`relax_cols`]); every synchronization, fetch, push, write-preparation
/// and warm decision is the compiler's.
fn sor_compiled(p: &mut Process, cfg: &GridConfig, m: &SharedMatrix<f64>) -> f64 {
    let GridConfig { rows, cols, iters } = *cfg;
    let nprocs = p.nprocs();
    let me = p.proc_id();
    let compiled = rsdcomp::exec::kernel_for(p, || sor_program(m, iters));
    let plan = compiled.kernel.plan_for(me);
    let phases = compiled.program.phases();

    let mine = col_block(cols, nprocs, me);
    let update = mine.start.max(1)..mine.end.min(cols - 1);
    let (interior, left_edge, right_edge) = split_columns(&update, mine.start > 0, mine.end < cols);
    let mut bufs = ColBufs::new(rows);
    let mut colbuf = vec![0.0f64; rows];

    for step in &plan.steps {
        // Issue the generated entry op; a pending split-phase sync
        // overlaps the interior columns, exactly like the hand-written
        // Validate form.
        let issued = rsdcomp::exec::issue(p, &step.entry);
        match phases[step.phase].name {
            "init" => {
                rsdcomp::exec::complete(p, issued);
                for j in mine.clone() {
                    for (i, slot) in colbuf.iter_mut().enumerate() {
                        *slot = seed(i, j);
                    }
                    p.set_slice(m.array(), col_elems(m, j), &colbuf);
                }
            }
            name @ ("red" | "black") => {
                let colour = usize::from(name == "black");
                relax_cols(p, m, interior.clone(), colour, &mut bufs);
                rsdcomp::exec::complete(p, issued);
                relax_cols(p, m, left_edge.clone(), colour, &mut bufs);
                relax_cols(p, m, right_edge.clone(), colour, &mut bufs);
            }
            other => unreachable!("unknown phase {other:?}"),
        }
    }
    rsdcomp::exec::run_boundary(p, &plan.exit);
    let mut sum = 0.0;
    for j in mine {
        p.get_slice(m.array(), col_elems(m, j), &mut colbuf);
        sum += colbuf.iter().sum::<f64>();
    }
    sum
}
