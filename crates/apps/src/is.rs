//! Integer sort (IS): a lock-merged shared histogram with a
//! barrier-separated ranking phase — the paper's lock+barrier idiom.
//!
//! Each processor owns a block of keys in `0..B` (`B = rows * cols`
//! buckets). Every iteration it acquires the merge lock, folds its keys
//! into the shared histogram and deterministically evolves them, then all
//! processors barrier and rank: each reads its own block of buckets and
//! folds the counts into its checksum. Histogram increments commute and
//! key evolution depends only on the global element index, so the result
//! is independent of the runtime-determined lock-holder order — which is
//! exactly why the merge needs a *lock* (any order is fine, some order is
//! required) and the rank needs a *barrier* (every merge must be visible).
//!
//! The levels differ in what fences the rank. At [`Level::Stock`] the
//! merge's entry is a barrier and then the acquire, and merge→rank a second
//! barrier: nothing is validated, so the ranking reads fault on demand, and
//! without the first barrier a page fetched while ranking could be served
//! from a base that already holds a later merge's counts. The validate
//! level declares the critical section's accesses on the acquire, so the
//! grant comes back with the previous holders' diffs piggybacked — the
//! merged lock-grant+data message — and keeps only the rank barrier: under
//! lazy release consistency a page validated at that barrier cannot change
//! under its reader until the reader's own next acquire, so the ranking
//! reads are deterministic without fencing off the next iteration's
//! merges. The full level takes no lock at all (see [`is_program`]).

use ctrt::Access;
use pagedmem::PAGE_SIZE;
use rsdcomp::{exec, ArrayDecl, ColSpan, Level, Node, Phase, Program, ReduceOp, SectionAccess};
use treadmarks::{LockId, Process, SharedMatrix};

use crate::{col_block, col_elems, fill_block, mix64, GridConfig, Variant};

/// The lock guarding the histogram merge phase. Exposed so tests and the
/// benchmark driver can reference the same id the IR carries.
pub const MERGE_LOCK: LockId = 7;

/// The deterministic initial key of global element `idx` (column-major).
fn key_seed(i: usize, j: usize, bins: usize) -> u64 {
    ((i * 31 + j * 17) % bins) as u64
}

/// The next-iteration key: a function of the old key, the iteration and
/// the *global* element index only, so the key stream is independent of
/// the processor count and the lock-holder order.
fn next_key(k: u64, t: usize, idx: usize, bins: usize) -> u64 {
    (k * 5 + (t as u64) * 7 + idx as u64) % bins as u64
}

/// The per-bucket checksum contribution at iteration `t`.
fn bin_mix(b: usize, h: u64, t: usize) -> u64 {
    mix64(h ^ mix64((b as u64) ^ ((t as u64) << 32)))
}

/// The merge where it is not reduced, under the lock the step's entry took:
/// counts this processor's keys into the zeroed private `counts` (evolving
/// the keys), then adds them into the shared histogram a page at a time,
/// touching only the pages some key hit.
fn merge_locked(
    p: &mut Process,
    keys: &SharedMatrix<u64>,
    hist: &SharedMatrix<u64>,
    mine: &std::ops::Range<usize>,
    t: usize,
    kbuf: &mut [u64],
    counts: &mut Vec<u64>,
) {
    const BINS_PER_PAGE: usize = PAGE_SIZE / 8;
    let mut page_buf = [0u64; BINS_PER_PAGE];
    counts.clear();
    counts.resize(hist.array().len(), 0);
    count_keys(p, keys, mine, t, kbuf, counts);
    for (page, part) in counts.chunks(BINS_PER_PAGE).enumerate() {
        if part.iter().all(|&c| c == 0) {
            continue;
        }
        let bins = page * BINS_PER_PAGE..page * BINS_PER_PAGE + part.len();
        let hbuf = &mut page_buf[..part.len()];
        p.get_slice(hist.array(), bins.clone(), hbuf);
        for (h, &c) in hbuf.iter_mut().zip(part) {
            *h = h.wrapping_add(c);
        }
        p.set_slice(hist.array(), bins, hbuf);
    }
}

/// Adds one to `counts` at each of this processor's keys and evolves the
/// keys: the merge without its histogram traffic, adding into a private
/// partial that a reduction combines or [`merge_locked`] adds into the
/// shared histogram.
fn count_keys(
    p: &mut Process,
    keys: &SharedMatrix<u64>,
    mine: &std::ops::Range<usize>,
    t: usize,
    kbuf: &mut [u64],
    counts: &mut [u64],
) {
    let rows = keys.rows();
    let bins = counts.len();
    for j in mine.clone() {
        p.get_slice(keys.array(), col_elems(keys, j), kbuf);
        for (i, slot) in kbuf.iter_mut().enumerate() {
            let idx = j * rows + i;
            let k = *slot;
            counts[k as usize] = counts[k as usize].wrapping_add(1);
            *slot = next_key(k, t, idx, bins);
        }
        p.set_slice(keys.array(), col_elems(keys, j), kbuf);
    }
}

/// Ranks this processor's own block of buckets: folds each final count of
/// iteration `t` into the checksum.
fn rank_bulk(
    p: &mut Process,
    hist: &SharedMatrix<u64>,
    own_bins: std::ops::Range<usize>,
    t: usize,
    hbuf: &mut [u64],
) -> u64 {
    let n = own_bins.len();
    p.get_slice(hist.array(), own_bins.clone(), &mut hbuf[..n]);
    let mut chk = 0u64;
    for (off, &h) in hbuf[..n].iter().enumerate() {
        chk ^= bin_mix(own_bins.start + off, h, t);
    }
    chk
}

/// The buckets this processor ranks: those of its own column block.
fn own_bins(mine: &std::ops::Range<usize>, rows: usize) -> std::ops::Range<usize> {
    mine.start * rows..mine.end * rows
}

/// Folds this processor's final keys into the checksum (covers the key
/// evolution the histogram only witnesses indirectly).
fn keys_checksum(p: &mut Process, keys: &SharedMatrix<u64>, mine: std::ops::Range<usize>) -> u64 {
    let rows = keys.rows();
    let mut kbuf = vec![0u64; rows];
    let mut chk = 0u64;
    for j in mine {
        p.get_slice(keys.array(), col_elems(keys, j), &mut kbuf);
        for (i, &k) in kbuf.iter().enumerate() {
            let idx = (j * rows + i) as u64;
            chk ^= mix64(k ^ mix64(idx ^ 0x517c_c1b7_2722_0a95));
        }
    }
    chk
}

/// Runs integer sort in the given variant and returns this processor's
/// checksum (XOR-combine across processors for the partition-independent
/// app checksum). All variants perform identical integer operations, so
/// checksums are equal across variants *and* cluster sizes.
///
/// Only the own key block is initialised; the histogram starts from the
/// allocator's zeroed pages. The plan's entry into the first merge orders
/// the init writes.
///
/// # Panics
///
/// Panics if the decomposition is too small (each processor needs at least
/// two columns).
pub fn is(p: &mut Process, cfg: &GridConfig, variant: Variant) -> u64 {
    let GridConfig { rows, cols, iters } = *cfg;
    assert!(rows >= 1 && cols >= 2 * p.nprocs(), "each processor needs at least two columns");
    let keys = p.alloc_matrix::<u64>(rows, cols);
    let hist = p.alloc_matrix::<u64>(rows, cols);
    let mine = col_block(cols, p.nprocs(), p.proc_id());
    let chk = planned(p, &keys, &hist, iters, &mine, variant.level());
    chk ^ keys_checksum(p, &keys, mine)
}

/// The integer-sort kernel as a loop-nest IR: an init phase overwrites the
/// own key block, then each iteration a *lock-guarded* merge phase
/// (declared via [`Phase::guarded`]) read-rewrites the own keys and
/// accumulates into the whole histogram with wrapping adds, and an
/// unguarded rank phase reads the own block of buckets.
///
/// At [`Level::Stock`] every boundary that communicates is a barrier, and
/// a merge entry a barrier and then the acquire.
/// At [`Level::Validate`] the accumulation is the guarded read-modify-write
/// of the paper's lock+barrier idiom: init→merge and rank→merge classify as
/// [`rsdcomp::BoundaryClass::Lock`] (an acquire whose grant validates the
/// sections, a release at the exit), and merge→rank stays a real barrier
/// *without* being a refusal — the holder order is runtime-determined, so
/// the barrier is the intended synchronization. At [`Level::Full`] nothing
/// but the accumulation touches the histogram, so merge→rank classifies as
/// [`rsdcomp::BoundaryClass::Reduce`]: the merge adds into a private
/// partial, the partials are summed up the barrier tree and each processor
/// receives the totals of its own bucket block, with no lock at all.
pub fn is_program(keys: &SharedMatrix<u64>, hist: &SharedMatrix<u64>, iters: usize) -> Program {
    Program {
        arrays: vec![ArrayDecl::of_matrix("keys", keys), ArrayDecl::of_matrix("hist", hist)],
        nodes: vec![
            Node::Phase(Phase::new(
                "init",
                vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
            )),
            Node::Repeat {
                times: iters,
                body: vec![
                    Phase::guarded(
                        "merge",
                        vec![
                            SectionAccess::new(0, ColSpan::OwnBlock, Access::ReadWriteAll),
                            SectionAccess::accumulate(1, ColSpan::All, ReduceOp::WrappingAdd),
                        ],
                        MERGE_LOCK,
                    ),
                    Phase::new(
                        "rank",
                        vec![SectionAccess::new(1, ColSpan::OwnBlock, Access::Read)],
                    ),
                ],
            },
        ],
    }
}

/// Runs integer sort from the plan `rsdcomp` generates for [`is_program`]
/// at `level`: the application supplies only the numeric bodies, and the
/// plan everything else. At the stock and validate levels that is the
/// acquire, the release and the barriers, and the merge adds its private
/// counts into the shared histogram ([`merge_locked`]). At the full level
/// it is one reduction per iteration: the merge counts into the zeroed
/// private partial the step hands it, and the step's exit combines the
/// partials over the barrier tree. Returns the ranking checksum.
fn planned(
    p: &mut Process,
    keys: &SharedMatrix<u64>,
    hist: &SharedMatrix<u64>,
    iters: usize,
    mine: &std::ops::Range<usize>,
    level: Level,
) -> u64 {
    let compiled = exec::kernel_for(p, level, || is_program(keys, hist, iters));
    let plan = compiled.kernel.plan_for(p.proc_id());
    let phases = compiled.program.phases();
    let rows = keys.rows();
    let bins = rows * keys.cols();
    let mut kbuf = vec![0u64; rows];
    let mut hbuf = vec![0u64; bins];
    let mut partial = Vec::new();
    let mut chk = 0u64;
    for step in &plan.steps {
        exec::enter(p, &step.entry, |_| {});
        match phases[step.phase].name {
            "init" => fill_block(p, &[keys], mine.clone(), |i, j| key_seed(i, j, bins)),
            "merge" => match exec::partial(step, &mut partial) {
                Some(counts) => count_keys(p, keys, mine, step.iter, &mut kbuf, counts),
                None => merge_locked(p, keys, hist, mine, step.iter, &mut kbuf, &mut partial),
            },
            "rank" => chk ^= rank_bulk(p, hist, own_bins(mine, rows), step.iter, &mut hbuf),
            other => unreachable!("unknown phase {other:?}"),
        }
        exec::exit(p, step, &partial);
    }
    chk
}
