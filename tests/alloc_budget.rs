//! Allocation budget of a wide synchronization point.
//!
//! A 64-processor `Validate_w_sync` barrier used to deep-copy the whole
//! request set once per tree child, clone every served diff run by run and
//! rebuild a map of vectors per notice batch: `wide64` spent its host time
//! in the allocator. Write notices now travel as the interval records their
//! flushes built, shared rather than flattened and regrouped per page, and
//! a page's write state lives in its frame alone (no second set of
//! `WRITE_ALL` pages), and the missing lists are folded at the GC horizon
//! instead of growing. This binary counts every allocation of the process,
//! so it holds exactly one test.
//!
//! The case runs twice, at 8 and at 24 iterations, and the two runs split
//! what it allocates into a slope — per processor-barrier — and an
//! intercept — per 64-processor run: a cost that grows with the run cannot
//! hide in the run's fixed cost, nor one paid once per node in the slope.

mod counting;

use dsm_apps::{jacobi, GridConfig, Variant};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocations per processor-barrier at 8 iterations: 46.1, release and
/// debug builds alike, with 8 % of margin (85.6 before per-writer state
/// became one buffer a node, routed requests were shared and each plan step
/// was lowered once).
const PER_PROC_BARRIER: f64 = 50.0;
/// Allocations per processor-barrier beyond the first 8 iterations: 31.2,
/// with 12 % of margin (57.2 before).
const SLOPE: f64 = 35.0;
/// Allocations per 64-processor run that no barrier pays: ≈ 7 650, with
/// 4 % of margin (≈ 14 600 before).
const INTERCEPT: f64 = 8_000.0;

/// `(allocations, bytes, processor-barriers)` of the case at `iters`.
fn case(iters: usize) -> (f64, f64, f64) {
    // `wide64`'s jacobi case: 64 processors, SP/2 model.
    const NPROCS: usize = 64;
    let cfg = GridConfig { rows: 64, cols: 256, iters };
    let config = DsmConfig::new(NPROCS).with_cost_model(CostModel::sp2());
    let (run, allocations, bytes) = counting::allocations_during(|| {
        Dsm::run(config, move |p| jacobi(p, &cfg, Variant::Validate))
    });
    // Σ over the processors of the barriers each entered.
    let proc_barriers = run.stats.total().barriers;
    assert_eq!(proc_barriers % NPROCS as u64, 0, "barriers are collective");
    (allocations as f64, bytes as f64, proc_barriers as f64)
}

#[test]
fn a_wide_validate_w_sync_barrier_stays_inside_its_allocation_budget() {
    let (allocations, bytes, proc_barriers) = case(8);
    let per = allocations / proc_barriers;
    println!(
        "{allocations} allocations, {bytes} bytes over {proc_barriers} processor-barriers: \
         {per:.1} allocations and {:.0} bytes each",
        bytes / proc_barriers
    );
    let (long, _, long_barriers) = case(24);
    let slope = (long - allocations) / (long_barriers - proc_barriers);
    let intercept = allocations - slope * proc_barriers;
    println!(
        "slope {slope:.1} allocations per processor-barrier, intercept {intercept:.0} per run"
    );
    assert!(per <= PER_PROC_BARRIER, "{per:.1} allocations per processor-barrier");
    assert!(slope <= SLOPE, "a processor-barrier allocates {slope:.1} times");
    assert!(intercept <= INTERCEPT, "a run allocates {intercept:.0} times outside its barriers");
}
