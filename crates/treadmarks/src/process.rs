//! The per-processor runtime.
//!
//! A [`Process`] is one simulated processor's view of the DSM: the
//! application closure passed to [`Dsm::run`](crate::Dsm::run) performs
//! every shared access, synchronization operation and compiler-interface
//! primitive through it. This file holds the handle itself — identity,
//! clock, allocation and the two ends of its wire: `send`, the one place a
//! message leaves the processor (`send_request` also serves what it sent),
//! and `recv_reply`, the one place it blocks for one. Each job has a
//! submodule:
//!
//! * `access` — the *checked software access path* that replaces the
//!   mprotect/SIGSEGV mechanism of the original system (see `DESIGN.md` for
//!   the substitution argument) and the fault handler;
//! * `interval` — the flush that ends an interval, and write-notice
//!   application;
//! * `sync` — what every synchronization point shares: the [`PhasePlan`],
//!   the split-phase [`Process::sync_phase`] with its overlap body, write
//!   preparation, the single-hold install, and the completion's one wait
//!   loop;
//! * `barrier`, `lock`, `push` — the collectives, each with its own order
//!   of charges and sends (`DESIGN.md` §2: shared plumbing, no pipeline);
//! * `race` — the race detector's hooks into the install and push paths.
//!
//! The run-time primitives of the paper's Figure 4, out of which the `ctrt`
//! crate composes `Validate` / `Validate_w_sync` / `Push` (the last is
//! [`Process::push_exchange`]):
//!
//! | Figure 4                        | here                                   | module     |
//! |---------------------------------|----------------------------------------|------------|
//! | `Fetch_diffs` + `Apply_diffs`   | [`Process::fetch_diffs`]               | `sync`     |
//! | `Fetch_diffs_w_sync`            | [`Process::sync_phase`]                | `sync`     |
//! | `Create_twins` + `Write_enable` | [`Process::prepare_phase`]             | `sync`     |
//! | `Write_protect`                 | `flush_interval`, run by every release | `interval` |

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use msgnet::{Endpoint, Envelope, NetError, NodeId, Port};
use pagedmem::SharedAlloc;
use sp2model::{CostModel, SharedStats, VirtualClock};

use crate::config::DsmConfig;
use crate::message::TmkMessage;
use crate::run::RunShared;
use crate::server::{self, Lane};
use crate::sharedarray::{Shareable, SharedArray, SharedMatrix};
use crate::tlb::NodeGate;
use crate::types::{ProcId, Vt};

mod access;
mod barrier;
mod interval;
mod lock;
mod push;
mod race;
mod sync;

pub use sync::{PhasePlan, SyncOp};

/// Panic payload used when a processor unwinds because a *peer* panicked
/// (the harness poisons every reply port so processors blocked in a
/// collective do not wait forever). The harness filters these out so the
/// panic it propagates to the caller is the root cause.
pub(crate) struct PeerAbort;

/// One simulated processor of a DSM run.
///
/// Created by [`Dsm::run`](crate::Dsm::run), one per node thread. All
/// shared-memory access, synchronization and compiler-interface primitives
/// go through this handle; every operation is charged to the node's virtual
/// clock and counted in the shared statistics.
pub struct Process {
    /// This processor's id: its index in `lanes`.
    me: ProcId,
    /// Every node of the run, this one's endpoint among them: what a
    /// request this processor sends is served through.
    lanes: Arc<[Lane]>,
    /// The software TLB with the frames it holds on lease, and the only way
    /// to the node's `proto` and `table` locks (which returns the leases
    /// first — see [`NodeGate`]).
    node: NodeGate,
    /// The node's statistics counters (shared with its handlers).
    stats: SharedStats,
    cost: CostModel,
    /// The run-wide host state: race log, wait board, watchdog deadline and
    /// SPMD once-cells.
    run: Arc<RunShared>,
    clock: VirtualClock,
    heap: SharedAlloc,
    /// Reply-port messages received while waiting for something else.
    pending: VecDeque<Envelope<TmkMessage>>,
    next_req_id: u64,
    /// The synchronization whose overlap body is running, if any: what its
    /// completion waits for and installs. The end of `sync_phase` runs the
    /// completion, or the fault handler on the first touch of a page it
    /// covers, whichever comes first.
    in_flight: Option<sync::InFlightSync>,
    /// How many [`spmd_once`](Process::spmd_once) calls this processor has
    /// made. Every processor makes the same sequence of calls (the SPMD
    /// allocation rule), so the count names the same cell on all of them.
    once_seq: usize,
    /// The barrier schedule's constants: the reduction tree's arity, a
    /// node's per-child service and whether hops take the interrupt path
    /// ([`BarrierTopology::shape`](crate::BarrierTopology::shape) of
    /// [`DsmConfig::barrier`]).
    barrier: (usize, sp2model::VirtualTime, bool),
}

impl Process {
    pub(crate) fn new(lanes: Arc<[Lane]>, me: ProcId, config: &DsmConfig) -> Process {
        let shared = Arc::clone(&lanes[me].shared);
        Process {
            me,
            lanes,
            stats: shared.stats.clone(),
            cost: shared.cost.clone(),
            run: Arc::clone(&shared.run),
            node: NodeGate::new(shared),
            clock: VirtualClock::new(),
            heap: SharedAlloc::new(),
            pending: VecDeque::new(),
            next_req_id: 1,
            in_flight: None,
            once_seq: 0,
            barrier: config.barrier.shape(config.nprocs, &config.cost_model),
        }
    }

    /// This processor's id, `0..nprocs`.
    pub fn proc_id(&self) -> ProcId {
        self.me
    }

    /// Number of processors in the run.
    pub fn nprocs(&self) -> usize {
        self.lanes.len()
    }

    /// This processor's connection to the cluster.
    fn endpoint(&self) -> &Endpoint<TmkMessage> {
        &self.lanes[self.me].endpoint
    }

    /// The processor's virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The node's statistics counters (shared with its handlers). Every
    /// snapshot read through here is exact: the TLB hits the access path
    /// counts locally are added in first.
    pub fn stats(&self) -> &SharedStats {
        self.node.publish_hits();
        &self.stats
    }

    /// Number of per-interval entries currently in this node's diff cache —
    /// the quantity the barrier garbage-collection horizon bounds.
    pub fn diff_cache_entries(&mut self) -> usize {
        self.node.unleased().proto().diff_cache.values().map(BTreeMap::len).sum()
    }

    /// Number of `(processor, interval)` records in this node's notice log.
    pub fn notice_log_records(&mut self) -> usize {
        self.node.unleased().proto().notice_log.interval_count()
    }

    /// The garbage-collection horizon distributed with the last barrier
    /// departure: own diffs at or below its component for this node, and
    /// notices it covers, have been dropped. Always covered by the last
    /// global vector timestamp.
    pub fn gc_horizon(&mut self) -> Vt {
        self.node.unleased().proto().gc_horizon.clone()
    }

    /// Debug builds only: the reply-port messages this processor received
    /// while waiting for something else and never consumed.
    #[cfg(debug_assertions)]
    pub(crate) fn unconsumed_replies(&self) -> impl Iterator<Item = &Envelope<TmkMessage>> {
        self.pending.iter()
    }

    /// Charges `cost` of application computation to this processor.
    pub fn compute(&mut self, cost: sp2model::VirtualTime) {
        self.clock.advance_compute(cost);
    }

    /// Computes a value once per run and shares it between the processors:
    /// the first processor (host thread) to make its `k`-th `spmd_once`
    /// call runs `init`, every other processor's `k`-th call blocks until
    /// that finishes and receives the same `Arc`.
    ///
    /// This is the run's *compile time*, not its run time: the call charges
    /// no virtual time, counts in no statistic and sends no message, so a
    /// run that shares a value this way is bit-identical to one computing
    /// it on every processor — provided `init` is a pure function of
    /// SPMD-uniform inputs, which is the caller's obligation. Like shared
    /// allocations, `spmd_once` calls must occur in the same order on every
    /// processor. `init` cannot reach the `Process` (it is mutably borrowed
    /// for the call), so a cell can never wait on the protocol.
    ///
    /// If `init` panics the cell stays empty and the next processor to
    /// arrive runs its own `init`, so a deterministic failure surfaces as
    /// the same application panic on every processor.
    ///
    /// # Panics
    ///
    /// Panics, naming the cell's index and both type names, if another
    /// processor's `k`-th call was made with a different `T`.
    pub fn spmd_once<T>(&mut self, init: impl FnOnce() -> T) -> Arc<T>
    where
        T: Send + Sync + 'static,
    {
        let k = self.once_seq;
        self.once_seq += 1;
        // The call may block on another processor's `init`.
        self.node.return_leases();
        self.run.spmd_once(self.proc_id(), k, init)
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocates a shared array of `len` elements, page aligned.
    ///
    /// Every processor performs the same allocation sequence (SPMD style),
    /// so the array lives at the same address on every node. Page alignment
    /// mirrors what real TreadMarks programs arrange to minimise false
    /// sharing.
    ///
    /// # Panics
    ///
    /// Panics if the shared heap is exhausted.
    pub fn alloc_array<T: Shareable>(&mut self, len: usize) -> SharedArray<T> {
        let range =
            self.heap.alloc_array_page_aligned::<T>(len.max(1)).expect("shared heap exhausted");
        SharedArray::new(range.start(), len)
    }

    /// Allocates a shared `rows x cols` matrix in column-major layout.
    ///
    /// # Panics
    ///
    /// Panics if the shared heap is exhausted.
    pub fn alloc_matrix<T: Shareable>(&mut self, rows: usize, cols: usize) -> SharedMatrix<T> {
        let array = self.alloc_array::<T>(rows * cols);
        SharedMatrix::new(array, rows, cols)
    }

    // ------------------------------------------------------------------
    // The wire
    // ------------------------------------------------------------------

    /// Sends `msg` to `dest` at the current virtual time, charged at its
    /// own wire size. Every message this processor's compute thread sends
    /// leaves through here.
    fn send(&self, dest: ProcId, port: Port, msg: TmkMessage, interrupt: bool) {
        let (endpoint, bytes) = (self.endpoint(), msg.wire_bytes(self.nprocs()));
        endpoint.send(NodeId(dest), port, msg, bytes, self.clock.now(), interrupt);
    }

    /// Sends a request to `dest`'s request port on the interrupt path and
    /// serves it: this thread drains the port, unless another already is
    /// (see [`server::drain`]). The leases go back first — a handler may
    /// wait for a frame, and this thread may be the one holding it.
    fn send_request(&mut self, dest: ProcId, msg: TmkMessage) {
        self.send(dest, Port::Request, msg, true);
        self.node.return_leases();
        server::drain(&self.lanes, dest, self.me);
    }

    /// Receives the next reply-port message satisfying `pred`, queueing any
    /// other message (out-of-band barrier arrivals, early pushes) for later
    /// in arrival order.
    ///
    /// `what` names the awaited message on the run's wait board, and every
    /// block is bounded by the configured watchdog: if the deadline passes
    /// with nothing received, the processor panics with a dump of the whole
    /// cluster's wait state — a protocol deadlock becomes a failing test
    /// instead of a hang, under any fault schedule.
    fn recv_reply(
        &mut self,
        what: &'static str,
        pred: impl Fn(&TmkMessage) -> bool,
    ) -> Envelope<TmkMessage> {
        if let Some(pos) = self.pending.iter().position(|e| pred(&e.payload)) {
            return self.pending.remove(pos).expect("position is in range");
        }
        // About to block on another thread: it may be serving this node's
        // requests, which may need a frame.
        self.node.return_leases();
        let me = self.proc_id();
        self.run.board.wait(me, what);
        loop {
            let env = match self.endpoint().recv_timeout(Port::Reply, self.run.watchdog) {
                Ok(env) => env,
                Err(NetError::Timeout) => panic!(
                    "watchdog: P{me} waited more than {:?} for {what} — the protocol is wedged\n{}",
                    self.run.watchdog,
                    self.run.board.dump(),
                ),
                Err(err) => panic!("the cluster outlives its compute threads: {err}"),
            };
            if matches!(env.payload, TmkMessage::Shutdown) {
                // A peer panicked and the harness poisoned the reply ports;
                // unwind with the marker so the harness reports the peer's
                // panic, not this secondary abort.
                std::panic::panic_any(PeerAbort);
            }
            if pred(&env.payload) {
                self.run.board.done(me);
                return env;
            }
            self.pending.push_back(env);
        }
    }
}

impl fmt::Debug for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Process")
            .field("proc_id", &self.proc_id())
            .field("nprocs", &self.nprocs())
            .field("now", &self.clock.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Arc;

    use pagedmem::{PageId, Protection};

    use super::interval::{apply_notices_locked, contiguous_runs, NoticeTally};
    use super::*;
    use crate::notice::NoticeRecord;
    use crate::state::ProtoState;
    use crate::types::Interval;

    /// One page's write notice, the form notices travelled in before an
    /// interval's record did.
    struct WriteNotice {
        page: PageId,
        proc: ProcId,
        interval: Interval,
    }

    /// `apply_notices_locked` as it was when it grouped per-page notices
    /// through a map of vectors and deduplicated each group through a hash
    /// set, kept verbatim: the walk the replacement must reproduce.
    fn apply_notices_grouped(
        proto: &mut ProtoState,
        table: &mut pagedmem::PageTable,
        notices: &[WriteNotice],
    ) -> NoticeTally {
        let me = proto.me;
        let mut grouped: BTreeMap<(ProcId, Interval), Vec<PageId>> = BTreeMap::new();
        for n in notices {
            if n.proc == me {
                continue;
            }
            grouped.entry((n.proc, n.interval)).or_default().push(n.page);
        }
        let mut recorded = 0u64;
        let mut invalidated = Vec::new();
        for ((proc, interval), mut pages) in grouped {
            let mut seen = HashSet::with_capacity(pages.len());
            pages.retain(|page| seen.insert(*page));
            let record = NoticeRecord { proc, interval, pages: pages.clone().into() };
            if !proto.notice_log.record(record) {
                continue;
            }
            recorded += pages.len() as u64;
            for page in pages {
                proto.page_missing.entry(page).or_default().push((proc, interval));
                match table.protection(page) {
                    Protection::ReadOnly | Protection::ReadWrite => {
                        table.set_protection(page, Protection::Invalid);
                        invalidated.push(page);
                    }
                    Protection::Unmapped | Protection::Invalid => {}
                }
            }
        }
        invalidated.sort_unstable();
        NoticeTally { recorded, invalidation_runs: contiguous_runs(&invalidated) }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "unconsumed replies: P1 holds a SyncDiffs from P0")]
    fn a_reply_nobody_waited_for_fails_a_debug_run() {
        // P0 sends P1 a reply that P1 never waits for.
        let config = DsmConfig::new(2).with_cost_model(sp2model::CostModel::free());
        crate::Dsm::run(config, |p| {
            if p.proc_id() == 0 {
                let stray = TmkMessage::SyncDiffs { from: 0, diffs: Vec::new() };
                p.send(1, Port::Reply, stray, true);
            }
        });
    }

    const NPROCS: usize = 5;
    const PAGES: usize = 12;

    /// Node 2 of five with pages in every protection state and one record
    /// already in its log.
    fn node() -> (ProtoState, pagedmem::PageTable) {
        let mut proto = ProtoState::new(2, NPROCS);
        let mut table = pagedmem::PageTable::new();
        for page in 0..PAGES {
            let protection = match page % 4 {
                0 => Protection::ReadOnly,
                1 => Protection::ReadWrite,
                2 => Protection::Invalid,
                _ => continue,
            };
            table.map_zeroed(PageId(page), protection);
        }
        proto.notice_log.record(record(3, 1, &[0]));
        (proto, table)
    }

    fn record(proc: ProcId, interval: Interval, pages: &[usize]) -> NoticeRecord {
        NoticeRecord { proc, interval, pages: pages.iter().copied().map(PageId).collect() }
    }

    #[test]
    fn notice_batches_apply_exactly_as_the_grouped_walk_did() {
        // Every copy of an interval's record is the one its flush built.
        let [p1i3, p0i1, p4i5, p4i2, p4i4, own, p0i2, p3i1, p3i2, p1i2, p1i1, p0i3] = [
            record(1, 3, &[4, 5, 8]),
            record(0, 1, &[9]),
            record(4, 5, &[1, 7]),
            record(4, 2, &[6, 7]),
            record(4, 4, &[0]),
            record(2, 1, &[3, 4]),
            record(0, 2, &[1, 2]),
            record(3, 1, &[0]),
            record(3, 2, &[0, 1]),
            record(1, 2, &[4]),
            record(1, 1, &[5]),
            record(0, 3, &[8, 9, 10]),
        ];
        let batches: Vec<Vec<NoticeRecord>> = vec![
            // The same interval from two children, another between.
            vec![p1i3.clone(), p0i1.clone(), p1i3.clone()],
            // Intervals out of order, two of them naming page 7.
            vec![p4i5, p4i2, p4i4],
            // Own records, alone and between foreign ones.
            vec![own.clone(), p0i2, own],
            // Records the log already holds: one from set-up, two from the
            // batches above.
            vec![p3i1, p1i3.clone(), p0i1, p3i2],
            vec![],
            // An older interval of a processor arriving after a newer one.
            vec![p1i2, p1i1, p0i3],
        ];
        let (mut proto, mut table) = node();
        let (mut ref_proto, mut ref_table) = node();
        let everything = Vt::new(NPROCS);
        for (k, batch) in batches.iter().enumerate() {
            let tally = apply_notices_locked(&mut proto, &mut table, batch.clone());
            let flattened: Vec<WriteNotice> = batch
                .iter()
                .flat_map(|r| {
                    r.pages.iter().map(|&page| WriteNotice {
                        page,
                        proc: r.proc,
                        interval: r.interval,
                    })
                })
                .collect();
            let expected = apply_notices_grouped(&mut ref_proto, &mut ref_table, &flattened);
            assert_eq!(
                (tally.recorded, tally.invalidation_runs),
                (expected.recorded, expected.invalidation_runs),
                "tally of batch {k}"
            );
            assert!(
                proto
                    .notice_log
                    .records_after(&everything)
                    .eq(ref_proto.notice_log.records_after(&everything)),
                "notice log after batch {k}"
            );
            // `Vec` equality: the missing lists must agree *in order*.
            assert_eq!(proto.page_missing, ref_proto.page_missing, "missing lists after batch {k}");
            for page in (0..PAGES).map(PageId) {
                assert_eq!(
                    table.protection(page),
                    ref_table.protection(page),
                    "{page:?}, batch {k}"
                );
            }
        }
        // The log holds the page list it was handed, not a copy.
        let logged =
            proto.notice_log.records_after(&everything).find(|r| (r.proc, r.interval) == (1, 3));
        assert!(Arc::ptr_eq(&logged.expect("P1's third interval").pages, &p1i3.pages));
        // The batches did what they were written to do.
        assert!(proto.page_missing[&PageId(4)].starts_with(&[(1, 3)]));
        assert_eq!(proto.page_missing[&PageId(5)], [(1, 3), (1, 1)]);
        assert_eq!(proto.page_missing[&PageId(0)], [(4, 4), (3, 2)], "a held record is skipped");
        assert_eq!(proto.page_missing[&PageId(7)], [(4, 2), (4, 5)], "ascending by interval");
        assert_eq!(table.protection(PageId(4)), Protection::Invalid);
    }
}
