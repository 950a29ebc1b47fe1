//! The drain rule: a request is served by the thread that sends it, one
//! drainer per node at a time, the flag only ever *tried*. These runs
//! hammer the lock chain — the one path where a drain nests inside
//! another (a manager forwards to the last holder and drains the holder's
//! port at once) — and count every increment. A lost update is a broken
//! grant; a wedge is a drain that waited; a request left on a port at the
//! end fails every debug run by itself (`Dsm::try_run`'s teardown check).

use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, LockId, Process, SharedArray};

fn free_config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

/// Elements of a page-sized `u64` array: one counter a page, so no two
/// locks' counters share a page.
const STRIDE: usize = PAGE_SIZE / 8;

/// Increments `lock`'s counter under `lock`.
fn bump(p: &mut Process, counters: &SharedArray<u64>, lock: LockId) {
    p.lock_acquire(lock);
    let at = lock as usize * STRIDE;
    let v = p.get(counters, at);
    p.set(counters, at, v + 1);
    p.lock_release(lock);
}

/// Every counter, read after a closing barrier.
fn totals(p: &mut Process, counters: &SharedArray<u64>, locks: usize) -> Vec<u64> {
    p.barrier();
    (0..locks).map(|lock| p.get(counters, lock * STRIDE)).collect()
}

#[test]
fn two_managers_that_are_each_others_last_holders_do_not_wedge() {
    // Lock 0 is managed by P0 and lock 1 by P1. Each round P1 takes lock 0
    // and P0 takes lock 1, so each manager is the other lock's last holder;
    // then P2 and P3 acquire locks 0 and 1 at once. P2's drain of P0
    // forwards to P1 and drains P1 nested while P3's drain of P1 forwards
    // to P0 and drains P0 nested: with a blocking drain the two wait for
    // each other forever; with a tried one each serves the other's forward
    // when it gets back to its own port.
    const ROUNDS: u64 = 300;
    let run = Dsm::run(free_config(4), |p| {
        let counters = p.alloc_array::<u64>(2 * STRIDE);
        for _ in 0..ROUNDS {
            match p.proc_id() {
                0 => bump(p, &counters, 1),
                1 => bump(p, &counters, 0),
                _ => {}
            }
            p.barrier();
            match p.proc_id() {
                2 => bump(p, &counters, 0),
                3 => bump(p, &counters, 1),
                _ => {}
            }
            p.barrier();
        }
        totals(p, &counters, 2)
    });
    assert_eq!(run.results, vec![vec![2 * ROUNDS; 2]; 4]);
    assert_eq!(run.reactors.len(), 4, "one serving snapshot per node");
    assert!(run.reactors[..2].iter().all(|r| r.served > 0), "both managers were served");
}

#[test]
fn one_lock_contended_by_64_processors_loses_no_update() {
    // Every processor hammers one manager's port: most sends find another
    // thread draining it and leave their request to that thread's re-check.
    const ROUNDS: u64 = 20;
    let nprocs = 64;
    let run = Dsm::run(free_config(nprocs), |p| {
        let counters = p.alloc_array::<u64>(STRIDE);
        for _ in 0..ROUNDS {
            bump(p, &counters, 0);
        }
        totals(p, &counters, 1)
    });
    assert_eq!(run.results, vec![vec![nprocs as u64 * ROUNDS]; nprocs]);
}

#[test]
fn every_processor_contending_for_every_lock_loses_no_update() {
    // Eight managers, eight locks, everyone after every lock in a rotated
    // order: drains nest across every pair of managers.
    const ROUNDS: u64 = 20;
    let nprocs = 8;
    let run = Dsm::run(free_config(nprocs), |p| {
        let counters = p.alloc_array::<u64>(nprocs * STRIDE);
        for _ in 0..ROUNDS {
            for k in 0..nprocs {
                bump(p, &counters, ((p.proc_id() + k) % nprocs) as LockId);
            }
        }
        totals(p, &counters, nprocs)
    });
    assert_eq!(run.results, vec![vec![nprocs as u64 * ROUNDS; nprocs]; nprocs]);
    assert!(run.reactors.iter().all(|r| r.served > 0), "every manager's port was drained");
}
