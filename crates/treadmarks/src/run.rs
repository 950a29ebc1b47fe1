//! Run-wide state: everything the processors of one run share on the *host*.
//!
//! [`Dsm::try_run`](crate::Dsm::try_run) creates one [`RunShared`] before any
//! thread starts, every node's [`NodeShared`](crate::state::NodeShared) holds
//! it, and it is dropped with the run — nothing here outlives a run or is
//! visible to the next one. None of it is part of the simulated machine: the
//! race log, the wait board and the once-cells never touch a virtual clock,
//! a statistic or the wire.

use std::any::{Any, TypeId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use dsm_core::sync::Mutex;
use racecheck::RaceLog;

use crate::types::ProcId;
use crate::watch::{Label, WaitBoard};

/// The host-side state of one run.
#[derive(Debug)]
pub(crate) struct RunShared {
    /// The race-report log, present only when detection is on. `None` keeps
    /// the apply paths on their unhooked fast path.
    pub race: Option<RaceLog>,
    /// What each thread is currently blocked on, rendered into the
    /// watchdog's deadlock dump.
    pub board: WaitBoard,
    /// Real-time deadline for every blocking protocol receive (from
    /// [`DsmConfig::watchdog`](crate::DsmConfig::watchdog)).
    pub watchdog: Duration,
    /// The SPMD once-cells, in call order (see [`RunShared::spmd_once`]).
    cells: Mutex<Vec<Arc<Cell>>>,
}

/// One SPMD once-cell: a value computed by the first processor to arrive
/// and shared by all.
#[derive(Debug)]
struct Cell {
    type_id: TypeId,
    type_name: &'static str,
    /// How many times an `init` was started for this cell: 1 unless one
    /// panicked and a later arrival retried.
    inits: AtomicU64,
    value: OnceLock<Arc<dyn Any + Send + Sync>>,
}

impl RunShared {
    pub(crate) fn new(nprocs: usize, race: Option<RaceLog>, watchdog: Duration) -> RunShared {
        RunShared { race, board: WaitBoard::new(nprocs), watchdog, cells: Mutex::new(Vec::new()) }
    }

    /// The value of the run's `k`-th once-cell, running `init` if processor
    /// `me` is the first to arrive and blocking (labelled on the wait board)
    /// while another processor's `init` is still running.
    ///
    /// A panicking `init` leaves the cell empty, so the next arrival runs
    /// its own `init`: a deterministic failure (a compile assertion)
    /// surfaces as the same panic on every processor instead of a hang.
    ///
    /// # Panics
    ///
    /// Panics if another processor's `k`-th cell holds a different type.
    pub(crate) fn spmd_once<T>(&self, me: ProcId, k: usize, init: impl FnOnce() -> T) -> Arc<T>
    where
        T: Send + Sync + 'static,
    {
        let cell = {
            let mut cells = self.cells.lock();
            // Every processor numbers its calls from zero, so whoever asks
            // for cell `k` has already asked for (and created) `0..k`.
            if cells.len() == k {
                cells.push(Arc::new(Cell {
                    type_id: TypeId::of::<T>(),
                    type_name: std::any::type_name::<T>(),
                    inits: AtomicU64::new(0),
                    value: OnceLock::new(),
                }));
            }
            Arc::clone(&cells[k])
        };
        assert!(
            cell.type_id == TypeId::of::<T>(),
            "SPMD violation: once-cell #{k} is a `{}` on one processor and a `{}` on P{me} — \
             every processor must make the same sequence of spmd_once calls",
            cell.type_name,
            std::any::type_name::<T>(),
        );
        let value = match cell.value.get() {
            Some(value) => value,
            None => {
                self.board.wait(me, Label::Once(k));
                let value = cell.value.get_or_init(|| {
                    // This thread won the cell: it is running, not parked.
                    self.board.done(me);
                    cell.inits.fetch_add(1, Ordering::Relaxed);
                    Arc::new(init())
                });
                self.board.done(me);
                value
            }
        };
        Arc::clone(value).downcast::<T>().expect("the cell's type was checked above")
    }

    /// Per cell, in call order, how many times an `init` was started.
    pub(crate) fn once_inits(&self) -> Vec<u64> {
        self.cells.lock().iter().map(|cell| cell.inits.load(Ordering::Relaxed)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_shared(nprocs: usize) -> RunShared {
        RunShared::new(nprocs, None, Duration::from_secs(30))
    }

    #[test]
    fn a_processor_parked_on_a_cell_is_named_on_the_wait_board() {
        // Both threads race for cell 0 with an init that reports in and then
        // blocks until the test releases it: whichever wins is running, the
        // other is parked and must say so on the board until the winner
        // finishes. Observations are taken while the init is held and
        // asserted after the release, so a failure cannot strand a thread.
        const PARKED: &str = "SPMD once-cell #0 (initialising on another processor)";
        let run = run_shared(2);
        let (entered_tx, entered) = std::sync::mpsc::channel::<()>();
        let (release, gate) = std::sync::mpsc::channel::<()>();
        let gate = std::sync::Mutex::new(gate);
        let (labels, dump) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|me| {
                    let (run, gate, entered_tx) = (&run, &gate, entered_tx.clone());
                    scope.spawn(move || {
                        *run.spmd_once(me, 0, || {
                            entered_tx.send(()).expect("the test is listening");
                            let gate = gate.lock().expect("only the winner takes the gate");
                            gate.recv().expect("the test releases the init");
                            7u32
                        })
                    })
                })
                .collect();
            // Once the init has reported in, the winner's own label is
            // cleared for good, so the first label to appear is the loser's.
            entered.recv().expect("one thread wins the cell");
            let labels = loop {
                let labels = [run.board.label(0), run.board.label(1)];
                if labels.iter().any(Option::is_some) {
                    break labels;
                }
                std::thread::yield_now();
            };
            let dump = run.board.dump();
            release.send(()).expect("the initialiser is waiting");
            for handle in handles {
                assert_eq!(handle.join().expect("no thread panicked"), 7);
            }
            (labels, dump)
        });
        let parked = labels.iter().position(Option::is_some).expect("a label was observed");
        assert_eq!(labels[parked].as_deref(), Some(PARKED));
        assert_eq!(labels[1 - parked], None, "the initialiser is running, not parked");
        assert!(dump.contains(&format!("P{parked} compute: {PARKED}")), "{dump}");
        assert_eq!(run.board.label(0), None);
        assert_eq!(run.board.label(1), None);
        assert_eq!(run.once_inits(), vec![1]);
    }

    #[test]
    fn a_panicking_init_leaves_the_cell_empty_for_the_next_arrival() {
        let run = run_shared(2);
        let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run.spmd_once::<u32>(0, 0, || panic!("compile assertion"))
        }));
        assert!(first.is_err(), "the init's panic is the caller's panic");
        assert_eq!(run.board.label(0), None, "an unwound initialiser is not parked");
        assert_eq!(*run.spmd_once(1, 0, || 5u32), 5, "no poison: the next arrival initialises");
        assert_eq!(*run.spmd_once(0, 0, || 6u32), 5, "and later arrivals share its value");
        assert_eq!(run.once_inits(), vec![2]);
    }
}
