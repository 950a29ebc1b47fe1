//! The processor threads a run borrows from the process-wide pool: reused
//! across runs, surviving a failed run, shared by runs on two host threads,
//! and free to borrow the caller's stack.
//!
//! A binary of its own because it reads the process's thread count; its
//! tests take [`SERIAL`] so that none of them grows the pool under another.

use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, DsmRun, Process};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Live threads of this process.
fn threads_now() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .expect("the status file has a thread count")
}

/// Every processor writes its slot, and after a barrier sums all of them.
fn sum_of_ids(p: &mut Process) -> u64 {
    let a = p.alloc_array::<u64>(p.nprocs());
    p.set(&a, p.proc_id(), p.proc_id() as u64);
    p.barrier();
    (0..p.nprocs()).map(|i| p.get(&a, i)).sum()
}

fn assert_sum_of_ids(run: &DsmRun<u64>, nprocs: usize) {
    let expect = (nprocs * (nprocs - 1) / 2) as u64;
    assert_eq!(run.results, vec![expect; nprocs], "a correct run at {nprocs} processors");
}

fn panic_message(panic: Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .expect("the panic carries a message")
}

#[test]
fn twenty_sequential_wide_runs_spawn_no_thread_after_the_first() {
    let _serial = serial();
    let nprocs = 64;
    let run = Dsm::run(DsmConfig::new(nprocs), sum_of_ids);
    assert_sum_of_ids(&run, nprocs);
    let after_first = threads_now();
    assert!(after_first > nprocs, "{after_first} threads: the run's workers stay parked");
    for _ in 1..20 {
        let run = Dsm::run(DsmConfig::new(nprocs), sum_of_ids);
        assert_sum_of_ids(&run, nprocs);
    }
    let after_last = threads_now();
    assert!(
        after_last <= after_first,
        "{after_last} threads after twenty runs, {after_first} after the first: a run spawned"
    );
}

#[test]
fn a_panicking_processor_leaves_the_pool_serving_correct_runs() {
    let _serial = serial();
    let nprocs = 8;
    let failed = std::panic::catch_unwind(|| {
        Dsm::run(DsmConfig::new(nprocs), |p| {
            if p.proc_id() == 3 {
                panic!("application bug on processor 3");
            }
            sum_of_ids(p)
        })
    })
    .expect_err("the processor's panic is the run's");
    assert_eq!(panic_message(failed), "application bug on processor 3");
    assert_sum_of_ids(&Dsm::run(DsmConfig::new(nprocs), sum_of_ids), nprocs);
}

#[test]
fn a_watchdog_failed_run_leaves_the_pool_serving_correct_runs() {
    let _serial = serial();
    let nprocs = 4;
    let config = DsmConfig::new(nprocs)
        .with_cost_model(CostModel::free())
        .with_watchdog(Duration::from_millis(300));
    let failed = std::panic::catch_unwind(|| {
        // Whoever wins the lock parks at a barrier the losers can never
        // reach; the losers wait for a grant that will never come.
        Dsm::run(config, |p| {
            p.lock_acquire(7);
            p.barrier();
        })
    })
    .expect_err("the deadlock must fail the run");
    assert!(panic_message(failed).contains("watchdog"), "the watchdog fired");
    assert_sum_of_ids(&Dsm::run(DsmConfig::new(nprocs), sum_of_ids), nprocs);
}

#[test]
fn runs_on_two_host_threads_at_once_match_the_same_runs_alone() {
    let _serial = serial();
    let widths = [16, 24];
    // Both runs' processor 0 meet here, so each run is in flight while the
    // other is: the pool serves 40 processors at once.
    let both_running = std::sync::Barrier::new(widths.len());
    let together: Vec<DsmRun<u64>> = std::thread::scope(|scope| {
        let hosts: Vec<_> = widths
            .iter()
            .map(|&nprocs| {
                let both_running = &both_running;
                scope.spawn(move || {
                    Dsm::run(DsmConfig::new(nprocs), |p| {
                        if p.proc_id() == 0 {
                            both_running.wait();
                        }
                        sum_of_ids(p)
                    })
                })
            })
            .collect();
        hosts.into_iter().map(|h| h.join().expect("neither run panicked")).collect()
    });
    for (run, &nprocs) in together.iter().zip(&widths) {
        let alone = Dsm::run(DsmConfig::new(nprocs), sum_of_ids);
        assert_sum_of_ids(run, nprocs);
        assert_eq!(run.results, alone.results, "results at {nprocs}");
        assert_eq!(run.elapsed, alone.elapsed, "clocks at {nprocs}");
        assert_eq!(run.stats, alone.stats, "counters at {nprocs}");
    }
}

#[test]
fn a_processor_borrows_the_callers_stack_and_writes_through_it() {
    let _serial = serial();
    let nprocs = 8;
    let weights: Vec<u64> = (0..nprocs as u64).map(|i| i * i).collect();
    for round in 1..=2u64 {
        let written = Mutex::new(vec![0u64; nprocs]);
        let run = Dsm::run(DsmConfig::new(nprocs), |p| {
            let me = p.proc_id();
            written.lock().expect("no processor panics holding it")[me] = weights[me] * round;
            sum_of_ids(p)
        });
        assert_sum_of_ids(&run, nprocs);
        let written = written.into_inner().expect("no processor panicked holding it");
        assert_eq!(written, weights.iter().map(|w| w * round).collect::<Vec<_>>());
    }
}
