//! The run-scoped SPMD once-cell ([`Process::spmd_once`]): one `init` per
//! cell per run however many processors share it, nothing carried into the
//! next run, failures surfacing as application panics, and — the property
//! everything else rests on — no trace in the simulated machine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, Process};

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("the panic carries a message")
}

#[test]
fn init_runs_once_per_cell_per_run_and_never_leaks_into_the_next_run() {
    for nprocs in [1, 8, 64] {
        let calls = AtomicUsize::new(0);
        for round in 1..=2 {
            let run = Dsm::run(DsmConfig::new(nprocs), |p| {
                let shared = p.spmd_once(|| calls.fetch_add(1, Ordering::SeqCst) + 1);
                p.barrier();
                *shared
            });
            // A cell surviving the first run would hand round 2 the value 1
            // and leave the counter alone.
            assert_eq!(run.results, vec![round; nprocs], "every processor got this run's value");
            assert_eq!(calls.load(Ordering::SeqCst), round, "one init per run at {nprocs} procs");
            assert_eq!(run.once_inits, vec![1]);
        }
    }
}

#[test]
fn cells_are_named_by_call_order_and_stay_distinct() {
    let run = Dsm::run(DsmConfig::new(8), |p| {
        let first = p.spmd_once(|| String::from("first"));
        let second = p.spmd_once(|| String::from("second"));
        // Same type, different cells; and every processor holds the *same*
        // allocation, not an equal copy.
        (format!("{first}/{second}"), Arc::as_ptr(&first) as usize)
    });
    for (text, ptr) in &run.results {
        assert_eq!(text, "first/second");
        assert_eq!(*ptr, run.results[0].1, "one shared value, not one per processor");
    }
    assert_eq!(run.once_inits, vec![1, 1]);
}

#[test]
fn a_panicking_init_is_the_applications_panic_not_a_hang() {
    // Every processor retries the empty cell and fails the same way; peers
    // already parked at the barrier are poisoned out by the harness. The
    // default 30 s watchdog never gets a say.
    let attempts = AtomicUsize::new(0);
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Dsm::run(DsmConfig::new(8), |p| {
            let value: Arc<u64> = p.spmd_once(|| {
                attempts.fetch_add(1, Ordering::SeqCst);
                panic!("array \"m\" needs at least two columns per processor")
            });
            p.barrier();
            *value
        })
    }))
    .expect_err("the init's panic must fail the run");
    assert!(panic_message(panic).contains("needs at least two columns per processor"));
    assert_eq!(attempts.load(Ordering::SeqCst), 8, "each processor surfaced the same failure");
}

#[test]
fn a_type_mismatch_between_processors_names_the_cell_and_both_types() {
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Dsm::run(DsmConfig::new(2), |p| {
            let _ = p.spmd_once(|| 0u8);
            if p.proc_id() == 0 {
                let _ = p.spmd_once(|| 1u32);
            } else {
                let _ = p.spmd_once(|| 1i64);
            }
        })
    }))
    .expect_err("diverging cell types are an SPMD violation");
    let message = panic_message(panic);
    assert!(message.contains("once-cell #1"), "the cell index is missing: {message}");
    assert!(message.contains("u32") && message.contains("i64"), "types missing: {message}");
}

#[test]
fn a_run_sharing_a_value_is_bit_identical_to_one_computing_it_everywhere() {
    // Token-passing locks and barriers under the SP/2 cost model (a
    // deterministic lock workload: the barriers fix the grant order),
    // steered by a table that is either shared through a cell or rebuilt
    // on every processor.
    fn table() -> Vec<u64> {
        (0..64u64).map(|i| i * i + 3).collect()
    }
    fn body(p: &mut Process, table: &[u64]) -> u64 {
        let a = p.alloc_array::<u64>(512);
        for turn in 0..p.nprocs() {
            if p.proc_id() == turn {
                p.lock_acquire(5);
                let v = p.get(&a, 0);
                p.set(&a, 0, v + table[p.proc_id()]);
                p.lock_release(5);
            }
            p.barrier();
        }
        p.set(&a, 8 + p.proc_id(), table[p.proc_id() + 8]);
        p.barrier();
        (0..p.nprocs()).map(|i| p.get(&a, 8 + i)).sum::<u64>() + p.get(&a, 0)
    }
    let config = || DsmConfig::new(8).with_cost_model(CostModel::sp2());
    let local = Dsm::run(config(), |p| body(p, &table()));
    let shared = Dsm::run(config(), |p| {
        let table = p.spmd_once(table);
        body(p, &table)
    });
    assert_eq!(shared.results, local.results);
    assert_eq!(shared.elapsed, local.elapsed, "a cell charges no virtual time");
    assert_eq!(shared.stats, local.stats, "a cell counts in no statistic and sends nothing");
    assert_eq!((shared.once_inits, local.once_inits), (vec![1], vec![]));
}
