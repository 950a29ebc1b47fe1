//! A pool of parked threads that run borrowing jobs.
//!
//! [`Pool::run`] does what `std::thread::scope` does for `n` closures that
//! borrow from the caller's stack: each runs on a thread of its own, a panic
//! comes back as that job's outcome, and the call returns only once every
//! job has finished. What it saves is the thread. A worker outlives the call
//! and parks on its own job channel until the next `run` takes it from the
//! idle list, so a thread is spawned, and its stack mapped, once per process
//! instead of once per call. The idle list grows to the peak number of jobs
//! running at once and never shrinks.
//!
//! A worker keeps whatever per-thread state the standard library gave it at
//! spawn time. The one such state visible to a user is the test harness's
//! output capture: a worker prints into the capture of the test that spawned
//! it, so a job's panic message may show under another test, or under none
//! (run with `--nocapture` to see them all). The payload, which is what a
//! test asserts on, always comes back to the caller of `run`.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::Result as Outcome;

/// A job as a worker receives it.
struct Job {
    /// The caller's closure with its lifetime erased (see [`Pool::run`]).
    work: Box<dyn FnOnce() + Send>,
    /// Counted down once `work` has returned and been dropped.
    done: Arc<Latch>,
}

/// A set of worker threads, all with one stack size. Meant to be a `static`:
/// its workers live as long as the process.
pub struct Pool {
    stack: usize,
    /// The parked workers, each reached through the sending half of its job
    /// channel.
    idle: Mutex<Vec<Sender<Job>>>,
}

impl Pool {
    /// An empty pool whose workers will have `stack` bytes of stack.
    pub const fn new(stack: usize) -> Pool {
        Pool { stack, idle: Mutex::new(Vec::new()) }
    }

    /// Runs `f(0)`, …, `f(n - 1)`, each on a pooled thread of its own, and
    /// returns their outcomes in that order. An `Err` holds the payload of a
    /// job that panicked, as [`std::thread::JoinHandle::join`] gives it;
    /// the worker survives it. Returns only once every job has finished and
    /// dropped its borrows of `f`.
    ///
    /// # Panics
    ///
    /// Panics if the pool lacks idle workers and cannot spawn the shortfall;
    /// no job has started then.
    pub fn run<T, F>(&self, n: usize, f: F) -> Vec<Outcome<T>>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.take(n);
        let mut outcomes: Vec<Option<Outcome<T>>> = (0..n).map(|_| None).collect();
        let latch = Arc::new(Latch::new(n));
        let f = &f;
        let jobs: Vec<Job> = outcomes
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                let work: Box<dyn FnOnce() + Send + '_> =
                    Box::new(move || *slot = Some(catch_unwind(AssertUnwindSafe(|| f(i)))));
                // SAFETY: the job borrows `f` and one slot of `outcomes`, both
                // of which live until this call returns; erasing the lifetime
                // is sound because no worker can touch them after that.
                // - Every worker this call needs was taken or spawned above,
                //   before the first job is sent, so a failed spawn unwinds
                //   with no job running.
                // - From the first send to the end of `latch.wait()` nothing
                //   can unwind: `abort` turns any panic there into a process
                //   abort, so this frame cannot be left while a job runs.
                // - A worker counts the latch down only after `work()` has
                //   returned, and calling a boxed `FnOnce` consumes it, so
                //   the closure and every borrow it holds are dropped first.
                //   `work` itself cannot unwind: the job's panic is caught
                //   into its slot.
                let work = unsafe {
                    std::mem::transmute::<
                        Box<dyn FnOnce() + Send + '_>,
                        Box<dyn FnOnce() + Send + 'static>,
                    >(work)
                };
                Job { work, done: Arc::clone(&latch) }
            })
            .collect();
        let abort = AbortOnUnwind;
        for (worker, job) in workers.iter().zip(jobs) {
            worker.send(job).expect("a pooled worker never exits");
        }
        latch.wait();
        std::mem::forget(abort);
        self.idle.lock().unwrap_or_else(PoisonError::into_inner).extend(workers);
        outcomes.into_iter().map(|slot| slot.expect("every job filled its slot")).collect()
    }

    /// `n` workers: as many idle ones as there are, and the rest new.
    fn take(&self, n: usize) -> Vec<Sender<Job>> {
        let mut workers = {
            let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
            let keep = idle.len().saturating_sub(n);
            idle.split_off(keep)
        };
        while workers.len() < n {
            match self.spawn() {
                Ok(worker) => workers.push(worker),
                Err(err) => {
                    self.idle.lock().unwrap_or_else(PoisonError::into_inner).extend(workers);
                    panic!("failed to spawn a pooled worker thread: {err}");
                }
            }
        }
        workers
    }

    /// Spawns a worker. Its handle is dropped: the thread never exits while
    /// its sender sits in a `Pool`, and a job's panic never reaches it.
    fn spawn(&self) -> std::io::Result<Sender<Job>> {
        let (sender, jobs) = channel::<Job>();
        std::thread::Builder::new().stack_size(self.stack).spawn(move || {
            for Job { work, done } in jobs {
                work();
                done.count_down();
            }
        })?;
        Ok(sender)
    }
}

impl fmt::Debug for Pool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner).len();
        f.debug_struct("Pool").field("stack", &self.stack).field("idle", &idle).finish()
    }
}

/// A count of unfinished jobs that the caller of [`Pool::run`] waits on.
struct Latch {
    left: Mutex<usize>,
    zero: Condvar,
}

impl Latch {
    fn new(left: usize) -> Latch {
        Latch { left: Mutex::new(left), zero: Condvar::new() }
    }

    fn count_down(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        *left -= 1;
        if *left == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.left.lock().unwrap_or_else(PoisonError::into_inner);
        while *left > 0 {
            left = self.zero.wait(left).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Aborts the process if dropped: held across the stretch of
/// [`Pool::run`] that must not unwind, and forgotten at its end.
struct AbortOnUnwind;

impl Drop for AbortOnUnwind {
    fn drop(&mut self) {
        std::process::abort();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_borrow_the_callers_stack_and_come_back_in_order() {
        static POOL: Pool = Pool::new(64 * 1024);
        let base = [10, 20, 30];
        let seen = Mutex::new(Vec::new());
        let outcomes = POOL.run(3, |i| {
            seen.lock().expect("no job panics holding it").push(i);
            base[i] + i
        });
        let results: Vec<usize> =
            outcomes.into_iter().map(|o| o.expect("no job panicked")).collect();
        assert_eq!(results, vec![10, 21, 32]);
        let mut seen = seen.into_inner().expect("no job panicked holding it");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn a_panicking_job_is_its_outcome_and_the_worker_survives() {
        static ONE: Pool = Pool::new(64 * 1024);
        let outcomes = ONE.run(2, |i| if i == 1 { panic!("job {i} failed") } else { i });
        assert_eq!(*outcomes[0].as_ref().expect("job 0 returned"), 0);
        let payload = outcomes[1].as_ref().expect_err("job 1 panicked");
        assert_eq!(payload.downcast_ref::<String>().map(String::as_str), Some("job 1 failed"));
        assert_eq!(ONE.idle.lock().expect("unpoisoned").len(), 2, "both workers came back");
        let again = ONE.run(2, |i| i * 7);
        assert_eq!(again.into_iter().map(|o| o.expect("ok")).collect::<Vec<_>>(), vec![0, 7]);
        assert_eq!(ONE.idle.lock().expect("unpoisoned").len(), 2, "and nothing was spawned");
    }
}
