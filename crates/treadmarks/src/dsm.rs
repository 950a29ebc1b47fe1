//! The run harness: N simulated processors over a [`msgnet::Cluster`].
//!
//! [`Dsm::run`] runs each simulated processor — the application closure
//! executing through its [`Process`] — on a thread of its own, waits for them
//! all and collects per-node clocks and statistics. There is no other
//! thread: the interrupt handlers that service remote lock and diff requests
//! are run by whoever sends the request (see [`crate::server::drain`]). The
//! threads are borrowed from [`PROCESSORS`], a process-wide
//! [`Pool`](dsm_core::pool::Pool) of parked workers: a run spawns only the
//! processors no earlier run left idle, so a program that runs the same width
//! again pays for no thread and maps no stack.

use std::fmt;
use std::sync::{Arc, Mutex};

use dsm_core::pool::Pool;
use msgnet::{Cluster, DeliveryExpired, NodeId, Port};
use racecheck::{RaceDetect, RaceLog, RaceReport};
use sp2model::{ClusterStats, ReactorSnapshot, VirtualTime};

use crate::config::DsmConfig;
use crate::message::TmkMessage;
use crate::process::{PeerAbort, Process};
use crate::run::RunShared;
use crate::server::Lane;
use crate::state::NodeShared;
use crate::types::ProcId;

/// The stack of a processor thread: its closure, the protocol and the
/// handlers it drains. Pages live on the heap and nothing recurses; the
/// platform's 2 MiB default mapped megabytes no processor touches. A stack is
/// mapped once per pooled worker, when the worker is spawned, not per run.
const PROCESSOR_STACK: usize = 256 * 1024;

/// The threads every run's processors execute on. Grows to the largest
/// number of processors running at once in the process, and never shrinks.
static PROCESSORS: Pool = Pool::new(PROCESSOR_STACK);

/// The DSM run harness. See [`Dsm::run`].
#[derive(Debug, Clone, Copy)]
pub struct Dsm;

/// A structured failure of a DSM run, surfaced by [`Dsm::try_run`] instead
/// of a panic. Application bugs (a panicking closure) still propagate as
/// panics; this type covers failures of the simulated *system* itself.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DsmError {
    /// A message to `node` exhausted the retransmission policy's maximum
    /// attempts: under the configured fault schedule the link is
    /// effectively dead and the run cannot make progress. Only possible
    /// with [`DsmConfig::net_faults`] enabled.
    PeerUnresponsive {
        /// The processor that could not be reached.
        node: ProcId,
        /// The port the undeliverable traffic was addressed to.
        port: Port,
        /// What the sending side was doing when delivery expired.
        waiting_on: String,
    },
}

impl fmt::Display for DsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsmError::PeerUnresponsive { node, port, waiting_on } => write!(
                f,
                "processor P{node} is unresponsive on the {port:?} port \
                 (retransmission attempts exhausted while {waiting_on})"
            ),
        }
    }
}

impl std::error::Error for DsmError {}

/// The outcome of a DSM run.
#[derive(Debug, Clone)]
pub struct DsmRun<R> {
    /// Whatever each processor's closure returned, indexed by processor id.
    pub results: Vec<R>,
    /// Final virtual time of each processor.
    pub elapsed: Vec<VirtualTime>,
    /// Per-processor protocol statistics.
    pub stats: ClusterStats,
    /// Data races observed by the detector, in canonical order with
    /// symmetric observations deduplicated (see
    /// [`racecheck::RaceLog::drain_sorted`]). Always empty when
    /// [`DsmConfig::race_detect`] is [`RaceDetect::Off`].
    pub races: Vec<RaceReport>,
    /// One snapshot per node, indexed by processor id, of how its request
    /// port was drained: drains that found work (`polls`), requests served
    /// (`served`) and the deepest backlog a drain started on
    /// (`max_queue_depth`); `wakeups` is always 0. (The field keeps the
    /// name of the reactor pool it once described, until the benchmark's
    /// `[benchmark]` PR renames it.) Host-scheduling dependent (never part
    /// of the deterministic model outputs) — informational only.
    pub reactors: Vec<ReactorSnapshot>,
    /// Per SPMD once-cell the run used, in call order, how many times its
    /// `init` was started (see [`Process::spmd_once`]): `1` everywhere on a
    /// healthy run, however many processors shared the cell. Host-side
    /// bookkeeping like [`reactors`](Self::reactors) — never part of the
    /// model outputs.
    pub once_inits: Vec<u64>,
}

impl<R> DsmRun<R> {
    /// The run's execution time: the maximum final clock over processors.
    pub fn execution_time(&self) -> VirtualTime {
        self.elapsed.iter().copied().max().unwrap_or(VirtualTime::ZERO)
    }
}

impl Dsm {
    /// Runs `f` on `config.nprocs` simulated processors and collects the
    /// results, clocks and statistics.
    ///
    /// `f` is executed once per processor (SPMD style) with that
    /// processor's [`Process`] handle. The closure must perform the same
    /// sequence of shared allocations on every processor and must keep
    /// collective operations (barriers, pushes) matched, exactly like an
    /// SPMD program over real TreadMarks.
    ///
    /// # Panics
    ///
    /// Panics if any processor's closure panics (after shutting down the
    /// simulated cluster), or if the run fails with a [`DsmError`] — use
    /// [`Dsm::try_run`] to handle system failures without unwinding.
    pub fn run<R, F>(config: DsmConfig, f: F) -> DsmRun<R>
    where
        R: Send,
        F: Fn(&mut Process) -> R + Sync,
    {
        match Self::try_run(config, f) {
            Ok(run) => run,
            Err(err) => panic!("{err}"),
        }
    }

    /// Like [`Dsm::run`], but surfaces failures of the simulated *system*
    /// (today: an unresponsive peer under an injected fault schedule) as a
    /// structured [`DsmError`] instead of a panic. Application panics still
    /// propagate as panics.
    pub fn try_run<R, F>(config: DsmConfig, f: F) -> Result<DsmRun<R>, DsmError>
    where
        R: Send,
        F: Fn(&mut Process) -> R + Sync,
    {
        let nprocs = config.nprocs;
        let race_log = match config.race_detect {
            RaceDetect::Off => None,
            RaceDetect::Collect => Some(RaceLog::new(false)),
            RaceDetect::FailFast => Some(RaceLog::new(true)),
        };
        // Everything the run's threads share on the host; dropped with the
        // run, so no once-cell or report leaks into the next one.
        let run_shared = Arc::new(RunShared::new(nprocs, race_log, config.watchdog));
        // Every node of the run, as each processor serves the requests it
        // sends (a node's state points at `run_shared`, never back here).
        let lanes: Arc<[Lane]> = Cluster::<TmkMessage>::new_with_faults(
            nprocs,
            config.cost_model.clone(),
            config.net_faults.clone(),
        )
        .into_endpoints()
        .into_iter()
        .enumerate()
        .map(|(id, ep)| {
            let stats = ep.stats().clone();
            let cost = config.cost_model.clone();
            let shared = NodeShared::new(id, nprocs, cost, stats, Arc::clone(&run_shared));
            Lane::new(ep, Arc::new(shared))
        })
        .collect();

        // The first system failure of the run; later ones (the poisoned
        // peers' cascading aborts) are consequences, not causes.
        let net_error: Mutex<Option<DsmError>> = Mutex::new(None);
        let report_expired = |expired: &DeliveryExpired, waiting_on: String| {
            let mut slot = net_error.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(DsmError::PeerUnresponsive {
                node: expired.dst.index(),
                port: expired.port,
                waiting_on,
            });
        };
        // Debug builds only: replies a processor received and never
        // consumed (see the check at the end).
        #[cfg(debug_assertions)]
        let orphans: Mutex<Vec<String>> = Mutex::new(Vec::new());

        let outcomes = PROCESSORS.run(nprocs, |me| {
            let mut process = Process::new(Arc::clone(&lanes), me, &config);
            // A handler this thread ran while draining a port unwinds it
            // too: the harness below reports either.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut process)));
            #[cfg(debug_assertions)]
            orphans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .extend(process.unconsumed_replies().map(orphan));
            match result {
                Ok(result) => Ok((result, process.clock().now())),
                Err(panic) => {
                    if let Some(expired) = panic.downcast_ref::<DeliveryExpired>() {
                        // Delivery expires at send time, before the op
                        // parks on the wait board; name the port being
                        // served, or else the undeliverable traffic.
                        let waiting_on = lanes[me].shared.run.board.label(me);
                        report_expired(
                            expired,
                            waiting_on.unwrap_or_else(|| {
                                format!("sending protocol traffic to {}", expired.dst)
                            }),
                        );
                    }
                    // Poison every reply port so peers blocked in a
                    // collective unwind instead of waiting for a message
                    // this processor will never send. The poison bypasses
                    // the fault plan: a droppable shutdown could wedge the
                    // abort path itself.
                    let ep = &lanes[me].endpoint;
                    for peer in (0..nprocs).map(NodeId) {
                        ep.send_control(peer, Port::Reply, TmkMessage::Shutdown);
                    }
                    Err(panic)
                }
            }
        });

        // Failures of the simulated system come back as structured errors;
        // the accompanying panics (the expired send's own unwind and the
        // poisoned peers' aborts) are its mechanism, not separate failures.
        if let Some(err) = net_error.into_inner().unwrap_or_else(|e| e.into_inner()) {
            return Err(err);
        }

        // If anything panicked, resume the root cause — not the secondary
        // `PeerAbort` unwinds of processors that were poisoned out of a
        // collective. A panic that escaped the processor's body is its
        // outcome too, as a join would deliver it.
        let mut results = Vec::with_capacity(nprocs);
        let mut elapsed = Vec::with_capacity(nprocs);
        let mut peer_abort = None;
        for outcome in outcomes {
            match outcome.and_then(|processor| processor) {
                Ok((result, time)) => {
                    results.push(result);
                    elapsed.push(time);
                }
                Err(panic) if panic.is::<PeerAbort>() => {
                    peer_abort.get_or_insert(panic);
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        if let Some(panic) = peer_abort {
            std::panic::resume_unwind(panic);
        }
        let stats = lanes.iter().map(|lane| lane.endpoint.stats().snapshot()).collect();
        let races = run_shared.race.as_ref().map(RaceLog::drain_sorted).unwrap_or_default();
        let reactors = lanes.iter().map(Lane::stats).collect();
        let once_inits = run_shared.once_inits();

        // Every reply is consumed by the wait it answers: a responder and a
        // requester that disagree about who answers whom leave either a
        // requester blocked until the watchdog or, checked here, a stray
        // reply nobody waited for. And every request is served by a drain:
        // one left on a port was stranded by a missed re-check. Debug builds
        // only (the statistics above are already taken, so draining the
        // mailboxes moves no counter).
        #[cfg(debug_assertions)]
        {
            let mut orphans = orphans.into_inner().unwrap_or_else(|e| e.into_inner());
            for lane in lanes.iter() {
                let ep = &lane.endpoint;
                orphans.extend(
                    std::iter::from_fn(|| ep.try_recv(Port::Reply))
                        .filter(|env| !matches!(env.payload, TmkMessage::Shutdown))
                        .map(|env| orphan(&env)),
                );
            }
            assert!(orphans.is_empty(), "the run left unconsumed replies: {}", orphans.join("; "));
            let stranded: Vec<String> = lanes
                .iter()
                .filter(|lane| lane.endpoint.backlog(Port::Request) > 0)
                .map(|lane| format!("P{}", lane.endpoint.id().index()))
                .collect();
            assert!(stranded.is_empty(), "the run left requests unserved: {}", stranded.join(", "));
        }
        Ok(DsmRun { results, elapsed, stats, races, reactors, once_inits })
    }
}

/// Names an unconsumed reply by its receiver, message kind and sender.
#[cfg(debug_assertions)]
fn orphan(env: &msgnet::Envelope<TmkMessage>) -> String {
    let payload = format!("{:?}", env.payload);
    let kind = payload.split(' ').next().unwrap_or_default();
    format!("P{} holds a {kind} from P{}", env.dst.index(), env.src.index())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::{PhasePlan, SyncOp};
    use crate::types::LockId;
    use pagedmem::PAGE_SIZE;
    use sp2model::CostModel;

    fn free_config(nprocs: usize) -> DsmConfig {
        DsmConfig::new(nprocs).with_cost_model(CostModel::free())
    }

    /// The plan a compiled phase prepares a `WRITE_ALL` section with.
    fn write_all(range: pagedmem::AddrRange) -> PhasePlan {
        PhasePlan { write_all: vec![range], ..PhasePlan::default() }
    }

    #[test]
    fn single_processor_runs_without_communication() {
        let run = Dsm::run(free_config(1), |p| {
            let a = p.alloc_array::<u64>(16);
            for i in 0..16 {
                p.set(&a, i, i as u64);
            }
            p.barrier();
            (0..16).map(|i| p.get(&a, i)).sum::<u64>()
        });
        assert_eq!(run.results, vec![120]);
        assert_eq!(run.stats.total().messages_sent, 0);
    }

    #[test]
    fn writes_propagate_through_a_barrier() {
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(8);
            if p.proc_id() == 0 {
                for i in 0..8 {
                    p.set(&a, i, 10 + i as u64);
                }
            }
            p.barrier();
            p.get(&a, 3)
        });
        assert_eq!(run.results, vec![13, 13]);
        let total = run.stats.total();
        assert!(total.messages_sent > 0);
        assert!(total.diffs_applied >= 1);
    }

    #[test]
    fn concurrent_writers_of_one_page_merge() {
        // Both processors write disjoint halves of the same page; after the
        // barrier each sees both halves (the multiple-writer protocol).
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u32>(PAGE_SIZE / 4);
            let half = a.len() / 2;
            let base = p.proc_id() * half;
            for i in 0..half {
                p.set(&a, base + i, (base + i) as u32);
            }
            p.barrier();
            let other = (1 - p.proc_id()) * half;
            (0..half).map(|i| p.get(&a, other + i) as u64).sum::<u64>()
        });
        let expect0: u64 = (512..1024).sum();
        let expect1: u64 = (0..512).sum();
        assert_eq!(run.results, vec![expect0, expect1]);
    }

    #[test]
    fn locks_transfer_modifications_lazily() {
        const LOCK: LockId = 3;
        let run = Dsm::run(free_config(3), |p| {
            // A simple token-passing counter: each processor increments a
            // shared counter under the lock, in processor order enforced by
            // barriers.
            let a = p.alloc_array::<u64>(1);
            for turn in 0..p.nprocs() {
                if p.proc_id() == turn {
                    p.lock_acquire(LOCK);
                    let v = p.get(&a, 0);
                    p.set(&a, 0, v + 1);
                    p.lock_release(LOCK);
                }
                p.barrier();
            }
            p.lock_acquire(LOCK);
            let v = p.get(&a, 0);
            p.lock_release(LOCK);
            v
        });
        assert_eq!(run.results, vec![3, 3, 3]);
        assert!(run.stats.total().lock_acquires >= 6);
    }

    #[test]
    fn barrier_synchronizes_virtual_clocks() {
        let run = Dsm::run(DsmConfig::new(4), |p| {
            if p.proc_id() == 2 {
                p.compute(VirtualTime::from_millis(40));
            }
            p.barrier();
            p.clock().now()
        });
        for t in &run.results {
            assert!(*t >= VirtualTime::from_millis(40), "barrier must propagate the slowest clock");
        }
        assert!(run.execution_time() >= VirtualTime::from_millis(40));
    }

    #[test]
    fn fetch_diffs_aggregates_one_message_per_destination() {
        // Processor 0 writes four pages; processor 1 validates all four in
        // one fetch: exactly one request and one response.
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u8>(4 * PAGE_SIZE);
            if p.proc_id() == 0 {
                for page in 0..4 {
                    p.set(&a, page * PAGE_SIZE, 7);
                }
            }
            p.barrier();
            let before = p.stats().snapshot().messages_sent;
            if p.proc_id() == 1 {
                p.fetch_diffs(&a.full_range().pages().collect::<Vec<_>>());
                let sent = p.stats().snapshot().messages_sent - before;
                assert_eq!(sent, 1, "one aggregated request regardless of page count");
                (0..4).map(|page| p.get(&a, page * PAGE_SIZE) as u64).sum()
            } else {
                0u64
            }
        });
        assert_eq!(run.results[1], 28);
    }

    #[test]
    fn fetch_w_sync_barrier_piggybacks_the_fetch() {
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            if p.proc_id() == 0 {
                p.set(&a, 0, 99);
            }
            let range = a.full_range();
            p.fetch_diffs_w_sync(SyncOp::Barrier, &range.pages().collect::<Vec<_>>());
            // The page is already valid: reading it faults no further.
            let before = p.stats().snapshot().page_faults;
            let v = p.get(&a, 0);
            assert_eq!(p.stats().snapshot().page_faults, before);
            v
        });
        assert_eq!(run.results, vec![99, 99]);
    }

    #[test]
    fn fetch_w_sync_lock_piggybacks_the_releasers_diffs() {
        const LOCK: LockId = 1;
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(4);
            if p.proc_id() == 0 {
                p.lock_acquire(LOCK);
                p.set(&a, 1, 41);
                p.lock_release(LOCK);
                p.barrier();
                41
            } else {
                p.barrier();
                p.fetch_diffs_w_sync(
                    SyncOp::Lock(LOCK),
                    &a.full_range().pages().collect::<Vec<_>>(),
                );
                let v = p.get(&a, 1);
                p.lock_release(LOCK);
                v
            }
        });
        assert_eq!(run.results, vec![41, 41]);
    }

    /// P1 learns at a barrier of P0's write to a page it holds, then takes
    /// a lock from P2, whose grant has nothing new for it: once plainly,
    /// once fetching the page. The fetch lowers the timestamp it advertises
    /// below P0's interval, yet the grant's notices start above P1's own
    /// timestamp, so P2 sends the same bytes both times.
    #[test]
    fn a_grant_answering_a_lowered_request_carries_no_record_the_acquirer_holds() {
        const LOCK: LockId = 2;
        let granter_bytes = |fetch: bool| {
            let run = Dsm::run(free_config(3), |p| {
                let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
                assert_eq!(p.get(&a, 0), 0);
                p.barrier();
                if p.proc_id() == 0 {
                    p.set(&a, 0, 7);
                }
                p.barrier();
                if p.proc_id() == 2 {
                    p.lock_acquire(LOCK);
                    p.lock_release(LOCK);
                }
                p.barrier();
                if p.proc_id() == 1 {
                    let pages: Vec<_> = a.full_range().pages().filter(|_| fetch).collect();
                    p.fetch_diffs_w_sync(SyncOp::Lock(LOCK), &pages);
                    assert_eq!(p.get(&a, 0), 7);
                    p.lock_release(LOCK);
                }
                p.barrier();
                p.stats().snapshot().bytes_sent
            });
            run.results[2]
        };
        assert_eq!(granter_bytes(true), granter_bytes(false));
    }

    #[test]
    fn a_lock_grant_charges_the_full_pages_it_materialises() {
        // Everything is free but diff encoding. P0's `WRITE_ALL` page keeps
        // no delta, so the grant's piggyback materialises it, and the grant
        // leaves one page's encoding after the request arrived — as a diff
        // response would.
        const LOCK: LockId = 0;
        let cost = CostModel { diff_create_page_ns: 1_000_000, ..CostModel::free() };
        let run = Dsm::run(DsmConfig::new(2).with_cost_model(cost.clone()), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            if p.proc_id() == 0 {
                p.lock_acquire(LOCK);
                p.prepare_phase(&write_all(a.full_range()));
                p.set(&a, 0, 5);
                p.lock_release(LOCK);
                p.barrier();
                (5, sp2model::VirtualTime::ZERO)
            } else {
                p.barrier();
                let before = p.clock().now();
                p.fetch_diffs_w_sync(
                    SyncOp::Lock(LOCK),
                    &a.full_range().pages().collect::<Vec<_>>(),
                );
                let took = p.clock().now().saturating_sub(before);
                let v = p.get(&a, 0);
                p.lock_release(LOCK);
                (v, took)
            }
        });
        assert_eq!(run.results[1], (5, cost.diff_create_cost(1)));
    }

    /// Runs `kernel` with everything free but diff encoding (1 ms each) and
    /// again with encoding free too. Returns the encodings charged and the
    /// time they added to each processor, in encodings.
    fn charged<F: Fn(&mut Process) + Sync>(config: DsmConfig, kernel: F) -> (u64, Vec<u64>) {
        const ENCODING_NS: u64 = 1_000_000;
        let priced = CostModel { diff_create_page_ns: ENCODING_NS, ..CostModel::free() };
        let run = Dsm::run(config.clone().with_cost_model(priced), &kernel);
        let free = Dsm::run(config.with_cost_model(CostModel::free()), &kernel);
        let added = run.elapsed.iter().zip(&free.elapsed);
        let added = added.map(|(priced, free)| priced.saturating_sub(*free).as_nanos());
        assert!(added.clone().all(|ns| ns % ENCODING_NS == 0));
        (run.stats.total().diffs_created, added.map(|ns| ns / ENCODING_NS).collect())
    }

    #[test]
    fn a_diff_is_charged_by_the_batch_that_serves_it() {
        // (a) A flushed delta nobody reads is never charged.
        let unread = charged(free_config(2), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            p.barrier();
            p.barrier();
        });
        assert_eq!(unread, (0, vec![0, 0]), "an unread delta");

        // (b) Two requesters of one delta at one merged barrier: the
        // producer's serve pays once, before either reply leaves.
        let merged = |p: &mut Process| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            p.fetch_diffs_w_sync(SyncOp::Barrier, &a.full_range().pages().collect::<Vec<_>>());
            assert_eq!(p.get(&a, 0), 1);
        };
        assert_eq!(charged(free_config(3), merged), (1, vec![1, 1, 1]), "one merged serve");

        // (c) The same two fetching by fault: each response pays its own.
        let faulted = charged(free_config(3), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            p.barrier();
            assert_eq!(p.get(&a, 0), 1);
        });
        assert_eq!(faulted, (2, vec![0, 1, 1]), "two fault fetches");

        // (d) A base (P0's delta of X, trimmed unread) and a `WRITE_ALL`
        // full page (Y) each pay one encoding.
        let whole = charged(free_config(2), |p| {
            let words = PAGE_SIZE / 8;
            let a = p.alloc_array::<u64>(2 * words);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            for _ in 0..3 {
                p.barrier();
            }
            assert!(p.gc_horizon().get(0) >= 1, "X's delta is trimmed");
            if p.proc_id() == 0 {
                p.prepare_phase(&write_all(a.range_of(words, 2 * words)));
                p.set(&a, words, 2);
            }
            p.barrier();
            if p.proc_id() == 1 {
                assert_eq!((p.get(&a, 0), p.get(&a, words)), (1, 2));
            }
        });
        assert_eq!(whole, (2, vec![0, 2]), "a base and a full page");

        // (e) The race detector encodes on the host to check the merged
        // fetch, and the serve still pays the one encoding.
        let collect = free_config(3).with_race_detect(RaceDetect::Collect);
        assert_eq!(charged(collect, merged), (1, vec![1, 1, 1]), "race detector on");
    }

    #[test]
    fn push_exchange_moves_data_without_faults_or_notices() {
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            let me = p.proc_id();
            let other = 1 - me;
            let half = a.len() / 2;
            // Each processor produces its half under WRITE_ALL (no twins)
            // and pushes it directly to the other.
            let mine = a.range_of(me * half, (me + 1) * half);
            p.prepare_phase(&write_all(mine));
            for i in 0..half {
                p.set(&a, me * half + i, (100 + me * half + i) as u64);
            }
            p.push_exchange([(other, &[mine][..])], &[other]);
            let faults_before = p.stats().snapshot().page_faults;
            let sum: u64 = (0..a.len()).map(|i| p.get(&a, i)).sum();
            assert_eq!(p.stats().snapshot().page_faults, faults_before);
            sum
        });
        let expect: u64 = (100..100 + 512).sum();
        assert_eq!(run.results, vec![expect, expect]);
        // Push never creates twins or diffs on the receiving side.
        assert_eq!(run.stats.total().diffs_applied, 0);
    }

    #[test]
    fn write_all_skips_twins_and_fetches() {
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            // Round 1: processor 0 fills the page.
            if p.proc_id() == 0 {
                for i in 0..a.len() {
                    p.set(&a, i, 1);
                }
            }
            p.barrier();
            // Round 2: processor 1 overwrites the whole page under
            // WRITE_ALL — it must not fetch processor 0's diffs first.
            if p.proc_id() == 1 {
                let twins_before = p.stats().snapshot().twins_created;
                let msgs_before = p.stats().snapshot().messages_sent;
                p.prepare_phase(&write_all(a.full_range()));
                for i in 0..a.len() {
                    p.set(&a, i, 2);
                }
                assert_eq!(p.stats().snapshot().twins_created, twins_before);
                assert_eq!(p.stats().snapshot().messages_sent, msgs_before);
            }
            p.barrier();
            p.get(&a, 17)
        });
        assert_eq!(run.results, vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "re-entrantly")]
    fn reentrant_lock_acquire_panics() {
        let _ = Dsm::run(free_config(1), |p| {
            p.lock_acquire(0);
            p.lock_acquire(0);
        });
    }

    #[test]
    #[should_panic(expected = "application bug on processor 1")]
    fn a_panicking_processor_unblocks_peers_in_collectives() {
        // Processor 0 waits at a barrier processor 1 never reaches; the
        // harness must propagate processor 1's panic, not hang, and must
        // report the root cause rather than the peers' secondary aborts.
        let _ = Dsm::run(free_config(2), |p| {
            if p.proc_id() == 1 {
                panic!("application bug on processor {}", p.proc_id());
            }
            p.barrier();
        });
    }

    #[test]
    fn a_dead_link_surfaces_as_a_structured_error() {
        use msgnet::{FaultPlan, LinkRates, NetFaults, RetryPolicy};
        // Every link drops every transmission attempt: the first cross-node
        // protocol message exhausts its retry budget and the run must come
        // back as a structured `PeerUnresponsive`, not a hang or a bare
        // panic.
        let faults = NetFaults {
            plan: FaultPlan::uniform(42, LinkRates { drop_permille: 1000, ..LinkRates::default() }),
            retry: RetryPolicy::default(),
        };
        let config = free_config(2).with_net_faults(Some(faults));
        let err = Dsm::try_run(config, |p| {
            let a = p.alloc_array::<u64>(8);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            p.barrier();
            p.get(&a, 0)
        })
        .expect_err("a dead interconnect cannot complete a barrier");
        // The only variant today; the destructure is irrefutable inside the
        // defining crate despite `#[non_exhaustive]`.
        let DsmError::PeerUnresponsive { node, waiting_on, .. } = err;
        assert!(node < 2, "the unresponsive peer is a cluster node");
        assert!(!waiting_on.is_empty(), "the error names the stuck operation");
    }

    #[test]
    fn try_run_succeeds_without_faults() {
        let run = Dsm::try_run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(4);
            if p.proc_id() == 0 {
                p.set(&a, 2, 9);
            }
            p.barrier();
            p.get(&a, 2)
        })
        .expect("a fault-free run returns Ok");
        assert_eq!(run.results, vec![9, 9]);
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn the_watchdog_converts_a_deadlock_into_a_failing_test() {
        // Processor 0 takes the lock and parks at a barrier processor 1 can
        // never reach (it waits for the lock processor 0 will never
        // release): a genuine protocol-level deadlock. The watchdog must
        // turn it into a panic carrying the cluster's wait state.
        let config = free_config(2).with_watchdog(std::time::Duration::from_millis(300));
        let _ = Dsm::run(config, |p| {
            // Whoever wins the lock parks at a barrier the loser can never
            // reach; the loser waits for a grant that will never come.
            p.lock_acquire(7);
            p.barrier();
        });
    }

    #[test]
    fn the_watchdog_dump_names_the_blocked_operations() {
        let config = free_config(2).with_watchdog(std::time::Duration::from_millis(300));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Dsm::run(config, |p| {
                p.lock_acquire(7);
                p.barrier();
            });
        }))
        .expect_err("the deadlock must fail the run");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("watchdog panics carry a message");
        assert!(message.contains("cluster wait state"), "dump missing: {message}");
        assert!(message.contains("a lock grant"), "stuck lock wait missing: {message}");
    }

    #[test]
    fn contended_locks_preserve_mutual_exclusion() {
        // Heavy uncoordinated contention: every processor repeatedly
        // increments a shared counter under the lock. Lost updates would
        // reveal a grant issued while another grant was still in flight
        // (the forwarded-request race on a pending local acquire).
        const LOCK: LockId = 2;
        const ROUNDS: usize = 50;
        let nprocs = 4;
        let run = Dsm::run(free_config(nprocs), |p| {
            let a = p.alloc_array::<u64>(1);
            for _ in 0..ROUNDS {
                p.lock_acquire(LOCK);
                let v = p.get(&a, 0);
                p.set(&a, 0, v + 1);
                p.lock_release(LOCK);
            }
            p.barrier();
            p.get(&a, 0)
        });
        let expect = (nprocs * ROUNDS) as u64;
        assert_eq!(run.results, vec![expect; nprocs]);
    }

    #[test]
    fn a_wide_run_spawns_one_thread_per_processor() {
        // 128 simulated processors: the requests are served by the threads
        // that send them, so the harness spawns the compute threads and
        // nothing else — not the seed's two threads per node. The count is
        // read from /proc/self/status inside the run, so the bound is over
        // *live* threads (with headroom for concurrently running tests —
        // the margin below is nprocs-sized, far above what the rest of the
        // suite spawns at once).
        let nprocs = 128;
        let threads_now = || -> usize {
            let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
            status
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        let peak = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let peak_in_run = Arc::clone(&peak);
        let run = Dsm::run(free_config(nprocs), move |p| {
            let a = p.alloc_array::<u64>(nprocs);
            p.set(&a, p.proc_id(), 1);
            p.barrier();
            if p.proc_id() == 0 {
                peak_in_run.store(threads_now(), std::sync::atomic::Ordering::SeqCst);
            }
            (0..nprocs).map(|i| p.get(&a, i)).sum::<u64>()
        });
        assert_eq!(run.results, vec![nprocs as u64; nprocs]);
        assert_eq!(run.reactors.len(), nprocs, "one serving snapshot per node");
        let served: u64 = run.reactors.iter().map(|r| r.served).sum();
        assert!(served > 0, "the senders served the run's requests");
        let peak = peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak >= nprocs, "the compute threads were live when sampled: {peak}");
        assert!(
            peak < 2 * nprocs,
            "{peak} live threads: the protocol side must not cost a thread per node"
        );
    }

    #[test]
    fn the_watchdog_dump_names_every_node_of_a_wide_run() {
        // 32 nodes: whoever wins lock 7 parks at a barrier the 31 losers can
        // never reach. The watchdog dump must name every node's one slot —
        // a processor has one thread, which also serves what it sends.
        let nprocs = 32;
        let config = free_config(nprocs).with_watchdog(std::time::Duration::from_millis(400));
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = Dsm::run(config, |p| {
                p.lock_acquire(7);
                p.barrier();
            });
        }))
        .expect_err("the deadlock must fail the run");
        let message = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .expect("watchdog panics carry a message");
        assert!(message.contains("cluster wait state"), "dump missing: {message}");
        for proc in 0..nprocs {
            assert!(
                message.contains(&format!("P{proc} compute:")),
                "node {proc} missing from the dump: {message}"
            );
        }
        assert_eq!(message.matches(" compute: ").count(), nprocs, "one slot a node: {message}");
        let losers = message.matches("a lock grant").count();
        assert!(losers >= nprocs - 1, "all {} losers parked on the lock: {message}", nprocs - 1);
    }

    #[test]
    fn write_all_on_a_partially_covered_page_keeps_remote_writes() {
        // Processor 0 writes the back half of a page; processor 1 then
        // asserts WRITE_ALL for the *front* half only. The uncovered back
        // half must still be fetched, not silently dropped.
        let run = Dsm::run(free_config(2), |p| {
            let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
            let half = a.len() / 2;
            if p.proc_id() == 0 {
                for i in half..a.len() {
                    p.set(&a, i, 5);
                }
            }
            p.barrier();
            if p.proc_id() == 1 {
                p.prepare_phase(&write_all(a.range_of(0, half)));
                for i in 0..half {
                    p.set(&a, i, 9);
                }
                // The uncovered half faults and fetches processor 0's diff.
                let back: u64 = (half..a.len()).map(|i| p.get(&a, i)).sum();
                assert_eq!(back, 5 * half as u64, "remote writes must survive partial WRITE_ALL");
            }
            p.barrier();
            (p.get(&a, 0), p.get(&a, a.len() - 1))
        });
        assert_eq!(run.results, vec![(9, 5), (9, 5)]);
    }
}
