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

mod counting;

use dsm_apps::{jacobi, GridConfig, Variant};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// What this same test read at the commit before diffs, departure payloads
/// and the notice path stopped copying (770.9, 771.2, 771.8 over three runs).
const PARENT_ALLOCATIONS_PER_PROC_BARRIER: f64 = 771.0;

#[test]
fn a_wide_validate_w_sync_barrier_stays_inside_its_allocation_budget() {
    // `wide64`'s jacobi case: 64 processors, SP/2 model.
    const NPROCS: usize = 64;
    let cfg = GridConfig { rows: 64, cols: 256, iters: 8 };
    let config = DsmConfig::new(NPROCS).with_cost_model(CostModel::sp2());
    let (run, allocations, bytes) = counting::allocations_during(|| {
        Dsm::run(config, move |p| jacobi(p, &cfg, Variant::Validate))
    });
    // Σ over the processors of the barriers each entered.
    let proc_barriers = run.stats.total().barriers;
    assert_eq!(proc_barriers % NPROCS as u64, 0, "barriers are collective");
    let per = allocations as f64 / proc_barriers as f64;
    println!(
        "{allocations} allocations, {bytes} bytes over {proc_barriers} processor-barriers: \
         {per:.1} allocations and {:.0} bytes each",
        bytes as f64 / proc_barriers as f64
    );
    assert!(
        per <= 0.13 * PARENT_ALLOCATIONS_PER_PROC_BARRIER,
        "{per:.1} allocations per processor per barrier; the budget is 13 % of \
         {PARENT_ALLOCATIONS_PER_PROC_BARRIER}"
    );
}
