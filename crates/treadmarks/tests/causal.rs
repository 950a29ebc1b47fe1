//! Causal ordering of diff application across *messages*.
//!
//! Within one response message diffs were always applied in rank
//! (happens-before) order, but batches arriving at a single
//! synchronization point through different channels — a lock grant's
//! piggyback versus a third-party aggregated fetch — used to be applied in
//! arrival order. For causally ordered writes to the same word that is a
//! lost update: the piggyback (causally *later*, from the last releaser)
//! landed first and the third-party diff (causally *earlier*) overwrote it.
//! The runtime now collects every record of the synchronization point and
//! rank-sorts the whole batch before applying.

use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, LockId, SyncOp};

fn free_config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

const LOCK: LockId = 0;

/// The adversarial piggyback mix: processor 0 writes the word under the
/// lock, processor 1 causally later overwrites it under the same lock, and
/// processor 2 then performs a `Validate_w_sync(Lock)`. The grant comes
/// from processor 1 (the last releaser) and piggybacks only *its* diff; the
/// causally earlier diff of processor 0 arrives through the third-party
/// aggregated fetch. Whatever the delivery interleaving, the causally
/// later value must win.
#[test]
fn lock_piggyback_and_third_party_diffs_apply_in_causal_order() {
    let run = Dsm::run(free_config(3), |p| {
        let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
        match p.proc_id() {
            0 => {
                p.lock_acquire(LOCK);
                p.set(&a, 0, 1);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                p.barrier();
                p.get(&a, 0)
            }
            1 => {
                p.barrier();
                p.lock_acquire(LOCK);
                // Faults: fetches processor 0's diff, twins, overwrites the
                // same word — a causally *later* modification.
                p.set(&a, 0, 2);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                p.get(&a, 0)
            }
            _ => {
                p.barrier();
                p.barrier();
                // Both intervals are missing here: (proc 0, i0) arrives via
                // the third-party fetch, (proc 1, i1) via the grant
                // piggyback. Rank order, not arrival order, must decide.
                p.fetch_diffs_w_sync(
                    SyncOp::Lock(LOCK),
                    &a.full_range().pages().collect::<Vec<_>>(),
                );
                let v = p.get(&a, 0);
                p.lock_release(LOCK);
                p.barrier();
                v
            }
        }
    });
    assert_eq!(
        run.results,
        vec![2, 2, 2],
        "the causally later write must survive the piggyback mix"
    );
}

/// The same scenario driven through the split-phase interface, on the SP/2
/// model so that the third-party fetch takes time: the piggyback is held in
/// hand across the overlap body and still lands in causal order at the
/// completion.
#[test]
fn split_phase_lock_sync_applies_the_batch_in_causal_order() {
    use treadmarks::PhasePlan;
    let run = Dsm::run(DsmConfig::new(3).with_cost_model(CostModel::sp2()), |p| {
        let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
        match p.proc_id() {
            0 => {
                p.lock_acquire(LOCK);
                p.set(&a, 0, 7);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                p.barrier();
                p.get(&a, 0)
            }
            1 => {
                p.barrier();
                p.lock_acquire(LOCK);
                p.set(&a, 0, 9);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                p.get(&a, 0)
            }
            _ => {
                p.barrier();
                p.barrier();
                let waited = p.stats().snapshot().sync_wait_ns;
                let plan =
                    PhasePlan { fetch: a.full_range().pages().collect(), ..PhasePlan::default() };
                p.sync_phase(SyncOp::Lock(LOCK), &plan, |_| {});
                let waited = p.stats().snapshot().sync_wait_ns - waited;
                assert!(waited > 0, "the completion waits for the third-party fetch in flight");
                let v = p.get(&a, 0);
                p.lock_release(LOCK);
                p.barrier();
                v
            }
        }
    });
    assert_eq!(run.results, vec![9, 9, 9]);
}

/// Regression: one barrier batch can carry the same write notice twice —
/// the master concatenates every child's arrival notices, and two children
/// may both have learned a third processor's interval along the lock-grant
/// chain. The duplicate used to put two copies of `(proc, interval)` on
/// the page's missing list; applying the real diff claimed only one, and
/// the surviving phantom entry demand-fetched the *old* interval again
/// after a newer interval of the same processor had been applied — rolling
/// those words back and losing an increment (observed as integer sort's
/// histogram counting one short on the barrier master at three or more
/// processors).
///
/// The shape: every processor read-modify-writes the same words under one
/// lock (so consecutive intervals of each processor modify the same
/// words and notices propagate along the grant chain), then reads them
/// through a merged barrier fetch. Every word must count all processors
/// every iteration, on every processor, whatever the acquire order.
#[test]
fn duplicate_barrier_notices_must_not_roll_back_newer_diffs() {
    const WORDS: usize = 4;
    const ITERS: u64 = 3;
    let run = Dsm::run(free_config(3), |p| {
        let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
        let n = p.nprocs() as u64;
        let mut ok = true;
        for t in 0..ITERS {
            p.lock_acquire(LOCK);
            for i in 0..WORDS {
                let v = p.get(&a, i);
                p.set(&a, i, v + 1);
            }
            p.lock_release(LOCK);
            p.fetch_diffs_w_sync(SyncOp::Barrier, &a.full_range().pages().collect::<Vec<_>>());
            for i in 0..WORDS {
                ok &= p.get(&a, i) == n * (t + 1);
            }
            // Anti-dependence barrier: nobody starts the next iteration's
            // increments until every processor has taken its reads.
            p.barrier();
        }
        ok
    });
    assert_eq!(
        run.results,
        vec![true; 3],
        "a duplicated notice must not lose an increment to a stale re-fetch"
    );
}
