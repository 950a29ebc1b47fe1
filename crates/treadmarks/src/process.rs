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

use std::collections::VecDeque;
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
use crate::state::NodeShared;
use crate::types::{ProcId, Vt};
use crate::watch::Label;

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
    /// The node's state shared with the threads serving its requests: its
    /// `proto` and `table` locks, taken in that order.
    node: Arc<NodeShared>,
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
    buffers: barrier::Buffers,
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
            node: shared,
            clock: VirtualClock::new(),
            heap: SharedAlloc::new(),
            pending: VecDeque::new(),
            next_req_id: 1,
            in_flight: None,
            once_seq: 0,
            barrier: config.barrier.shape(config.nprocs, &config.cost_model),
            buffers: barrier::Buffers::default(),
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

    /// The node's statistics counters (shared with its handlers).
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Number of per-interval entries currently in this node's diff cache —
    /// the quantity the barrier garbage-collection horizon bounds.
    pub fn diff_cache_entries(&self) -> usize {
        self.node.proto.lock().cached_entries()
    }

    /// Number of `(processor, interval)` records in this node's notice log.
    pub fn notice_log_records(&self) -> usize {
        self.node.proto.lock().notice_log.interval_count()
    }

    /// The garbage-collection horizon distributed with the last barrier
    /// departure: own diffs at or below its component for this node, and
    /// notices it covers, have been dropped. Always covered by the last
    /// global vector timestamp.
    pub fn gc_horizon(&self) -> Vt {
        self.node.proto.lock().gc_horizon.clone()
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
    /// (see [`server::drain`]).
    fn send_request(&mut self, dest: ProcId, msg: TmkMessage) {
        self.send(dest, Port::Request, msg, true);
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
        let me = self.proc_id();
        self.run.board.wait(me, Label::Text(what));
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
    use std::collections::{BTreeMap, HashSet};
    use std::sync::Arc;

    use pagedmem::{PageId, Protection};

    use super::interval::{apply_notices_locked, contiguous_runs, NoticeTally};
    use super::*;
    use crate::notice::{NoticeRecord, Segment};
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
    /// set, kept verbatim but for asking the log whether it holds a record
    /// (the log no longer filters): the walk the replacement must reproduce.
    fn apply_notices_grouped(
        proto: &mut ProtoState,
        table: &mut pagedmem::PageTable,
        notices: &[WriteNotice],
        page_missing: &mut dsm_core::hash::IntMap<PageId, Vec<(ProcId, Interval)>>,
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
            if proto.notice_log.contains(proc, interval) {
                continue;
            }
            proto.notice_log.record(NoticeRecord { proc, interval, pages: pages.clone().into() });
            recorded += pages.len() as u64;
            for page in pages {
                page_missing.entry(page).or_default().push((proc, interval));
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

    /// Node 2 of five with pages in every protection state, and its own
    /// first interval and P3's first in its log and its timestamp.
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
            // Every mapped page is materialised.
            proto.materialise([PageId(page)]);
        }
        for held in [record(2, 1, &[3, 4]), record(3, 1, &[0])] {
            proto.vt.advance(held.proc, held.interval);
            proto.notice_log.record(held);
        }
        (proto, table)
    }

    /// Asserts that every page's missing list at `proto` is `eager`'s, the
    /// lists every notice used to extend: in order where the page is
    /// materialised (the notice walk extended its list), as a set where
    /// `proto` builds it from the log.
    fn assert_missing_as_eager(
        proto: &ProtoState,
        eager: &dsm_core::hash::IntMap<PageId, Vec<(ProcId, Interval)>>,
        what: &str,
    ) {
        for page in (0..PAGES).map(PageId) {
            let mut expected = eager.get(&page).cloned().unwrap_or_default();
            let mut missing = proto.missing_of(page);
            if !proto.is_materialised(page) {
                expected.sort_unstable();
                missing.sort_unstable();
            }
            assert_eq!(missing, expected, "{page:?}, {what}");
        }
    }

    fn record(proc: ProcId, interval: Interval, pages: &[usize]) -> NoticeRecord {
        NoticeRecord { proc, interval, pages: pages.iter().copied().map(PageId).collect() }
    }

    #[test]
    fn notice_batches_apply_exactly_as_the_grouped_walk_did() {
        // Every copy of an interval's record is the one its flush built.
        let [p0i1, p0i2, p0i3, p1i1, p1i2, p1i3, p3i1, p3i2, p4i1, p4i2, p4i3, own] = [
            record(0, 1, &[9]),
            record(0, 2, &[1, 2]),
            record(0, 3, &[8, 9, 10]),
            record(1, 1, &[5]),
            record(1, 2, &[4]),
            record(1, 3, &[4, 5, 8]),
            record(3, 1, &[0]),
            record(3, 2, &[0, 1]),
            record(4, 1, &[6, 7]),
            record(4, 2, &[0]),
            record(4, 3, &[1, 7]),
            record(2, 1, &[3, 4]),
        ];
        // Each message's segments: one per child of an arrival, else one.
        let messages: Vec<Vec<Vec<NoticeRecord>>> = vec![
            // Two children's overlapping lists: the same interval from both,
            // another ahead of it in the second.
            vec![vec![p1i1, p1i2, p1i3.clone()], vec![p0i1.clone(), p1i3.clone()]],
            // One writer's intervals, two of them naming page 7.
            vec![vec![p4i1, p4i2, p4i3.clone()]],
            // Own records, alone and between foreign ones.
            vec![vec![own.clone()], vec![p0i2, own, p4i3]],
            // Records the log already holds: one from set-up, two from the
            // messages above.
            vec![vec![p0i1, p1i3.clone(), p3i1, p3i2]],
            vec![vec![]],
            // A new record ahead of a held one.
            vec![vec![p0i3, p1i3.clone()]],
        ];
        let (mut proto, mut table) = node();
        let (mut ref_proto, mut ref_table) = node();
        let mut eager = dsm_core::hash::IntMap::default();
        let everything = Vt::new(NPROCS);
        for (k, segments) in messages.iter().enumerate() {
            let owned = segments.iter().cloned().map(Segment::Owned);
            let tally = apply_notices_locked(&mut proto, &mut table, owned);
            let flattened: Vec<WriteNotice> = segments
                .iter()
                .flatten()
                .flat_map(|r| {
                    r.pages.iter().map(|&page| WriteNotice {
                        page,
                        proc: r.proc,
                        interval: r.interval,
                    })
                })
                .collect();
            let expected =
                apply_notices_grouped(&mut ref_proto, &mut ref_table, &flattened, &mut eager);
            assert_eq!(
                (tally.recorded, tally.invalidation_runs),
                (expected.recorded, expected.invalidation_runs),
                "tally of message {k}"
            );
            assert!(
                proto
                    .notice_log
                    .records_after(&everything)
                    .eq(ref_proto.notice_log.records_after(&everything)),
                "notice log after message {k}"
            );
            assert_missing_as_eager(&proto, &eager, &format!("message {k}"));
            for page in (0..PAGES).map(PageId) {
                assert_eq!(
                    table.protection(page),
                    ref_table.protection(page),
                    "{page:?}, message {k}"
                );
            }
        }
        // The log holds the page list it was handed, not a copy.
        let logged =
            proto.notice_log.records_after(&everything).find(|r| (r.proc, r.interval) == (1, 3));
        assert!(Arc::ptr_eq(&logged.expect("P1's third interval").pages, &p1i3.pages));
        // The messages did what they were written to do.
        assert_eq!(proto.missing_of(PageId(4)), [(1, 2), (1, 3)]);
        assert_eq!(proto.missing_of(PageId(5)), [(1, 1), (1, 3)]);
        assert_eq!(proto.missing_of(PageId(0)), [(4, 2), (3, 2)], "a held record is skipped");
        assert_eq!(proto.missing_of(PageId(7)), [(4, 1), (4, 3)], "ascending by interval");
        assert!(!proto.is_materialised(PageId(7)), "an unmapped page holds no list");
        assert_eq!(table.protection(PageId(4)), Protection::Invalid);
        let raised: Vec<Interval> = (0..NPROCS).map(|p| proto.vt.get(p)).collect();
        assert_eq!(raised, [3, 3, 1, 2, 3], "the timestamp is raised through every record");
    }

    #[test]
    fn a_departure_batch_applies_what_the_sorted_walk_applied() {
        // The node has flushed its own first interval and learned P3's
        // first and P1's first (the log records what the timestamp covers).
        let learned = || {
            let (mut proto, table) = node();
            proto.notice_log.record(record(1, 1, &[5]));
            proto.vt.advance(1, 1);
            (proto, table)
        };
        let (mut proto, mut table) = learned();
        let (mut ref_proto, mut ref_table) = learned();
        // The root's batch: everything above the previous global timestamp
        // (zero here), in its log's order, this node's own record included.
        let batch: Arc<[NoticeRecord]> = Arc::new([
            record(0, 1, &[9]),
            record(0, 2, &[1, 2]),
            record(1, 1, &[5]),
            record(1, 2, &[4]),
            record(2, 1, &[3, 4]),
            record(3, 1, &[0]),
            record(3, 2, &[0, 1]),
            record(4, 1, &[6, 7]),
            record(4, 2, &[1, 7]),
        ]);
        let tally = apply_notices_locked(&mut proto, &mut table, [Segment::Shared(batch.clone())]);
        // What a departure carried before the batch was shared: the records
        // above the receiver's timestamp, a list of its own.
        let unseen = batch.iter().filter(|r| r.interval > ref_proto.vt.get(r.proc)).cloned();
        let unseen = Segment::Owned(unseen.collect());
        let expected = apply_notices_locked(&mut ref_proto, &mut ref_table, [unseen]);
        assert_eq!((tally.recorded, tally.invalidation_runs), (10, expected.invalidation_runs));
        assert_eq!(expected.recorded, 10, "six records, ten pages");
        let everything = Vt::new(NPROCS);
        assert!(proto
            .notice_log
            .records_after(&everything)
            .eq(ref_proto.notice_log.records_after(&everything)));
        for page in (0..PAGES).map(PageId) {
            // Per page, the list the node holds or would build, in order.
            assert_eq!(proto.missing_of(page), ref_proto.missing_of(page), "{page:?}");
            assert_eq!(table.protection(page), ref_table.protection(page), "{page:?}");
        }
        assert!(proto.missing_of(PageId(3)).is_empty(), "the node's own record is skipped");
        assert!(proto.missing_of(PageId(5)).is_empty(), "a record the timestamp covers is skipped");
    }
}

#[cfg(test)]
mod history {
    //! The segment notice log and the own-interval diff queue against the
    //! stores they replaced.
    //!
    //! [`QueueLog`] is the notice log as it was — per processor, a sorted queue
    //! of owned record clones, trimmed by draining its front — and [`MapCache`]
    //! the own diff cache — per page, a map of intervals, trimmed by splitting
    //! every map. One seeded sequence of flushes, departure batches (the node's
    //! own and known records among the new), arrivals (a second child's list
    //! repeating the first's), lock grants (records withheld so far among
    //! them) and trims, with and without a merged
    //! fetch's pages in flight, drives a [`ProtoState`] next to the two models.
    //! After every step the node answers every query as the models do:
    //! `records_after`, `clone_after` and `contains` for random timestamps, the
    //! pages each writer's trimmed records named, `diffs_for_pages_after` for
    //! random pages and requester timestamps, the diff a random page and
    //! interval look up, and the pages with trimmed diffs.

    use std::collections::{BTreeMap, BTreeSet, VecDeque};
    use std::sync::Arc;

    use pagedmem::{Diff, Page, PageId, PageTable, PAGE_SIZE};

    use super::interval::apply_notices_locked;
    use crate::notice::{NoticeRecord, Segment};
    use crate::state::{full_page_diff, CachedDiff, Delta, DiffEntry, ProtoState};
    use crate::types::{Interval, ProcId, Vt};

    const NPROCS: usize = 4;
    const ME: ProcId = 2;
    const PAGES: usize = 24;
    const STEPS: u64 = 300;

    /// SplitMix64 finalizer folded over `words` (the benchmark's `rng.rs`): no
    /// generator state, every draw a pure function of its indices.
    fn mix(words: &[u64]) -> u64 {
        let mut h = 0x9e37_79b9_7f4a_7c15_u64;
        for &word in words {
            h = h.wrapping_add(word).wrapping_add(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        h
    }

    /// Up to `most` distinct pages, ascending.
    fn some_pages(draw: impl Fn(u64) -> u64, most: u64) -> Vec<PageId> {
        let count = 1 + draw(0) % most;
        let pages: BTreeSet<PageId> =
            (0..count).map(|k| PageId((draw(1 + k) % PAGES as u64) as usize)).collect();
        pages.into_iter().collect()
    }

    /// The notice log as per-processor queues of owned records.
    struct QueueLog {
        per_proc: Vec<VecDeque<NoticeRecord>>,
        trimmed: Vec<BTreeSet<PageId>>,
    }

    impl QueueLog {
        fn record(&mut self, record: NoticeRecord) -> bool {
            let records = &mut self.per_proc[record.proc];
            match records.binary_search_by_key(&record.interval, |r| r.interval) {
                Ok(_) => false,
                Err(at) => {
                    records.insert(at, record);
                    true
                }
            }
        }

        fn contains(&self, proc: ProcId, interval: Interval) -> bool {
            self.per_proc[proc].iter().any(|r| r.interval == interval)
        }

        fn records_after(&self, vt: &Vt) -> Vec<&NoticeRecord> {
            let all = self.per_proc.iter().flatten();
            all.filter(|r| r.interval > vt.get(r.proc)).collect()
        }

        fn trim_covered(&mut self, horizon: &Vt) -> usize {
            let mut removed = 0;
            for (proc, records) in self.per_proc.iter_mut().enumerate() {
                while let Some(record) = records.pop_front_if(|r| r.interval <= horizon.get(proc)) {
                    self.trimmed[proc].extend(record.pages.iter());
                    removed += 1;
                }
            }
            removed
        }
    }

    /// The own diff cache as per-page maps of intervals: what each entry
    /// encodes to.
    #[derive(Default)]
    struct MapCache {
        per_page: BTreeMap<PageId, BTreeMap<Interval, (u64, Diff)>>,
        trimmed: BTreeSet<PageId>,
    }

    impl MapCache {
        fn after(&self, pages: &[PageId], seen: Interval) -> (Vec<Entry>, Vec<PageId>) {
            let (mut out, mut examined) = (Vec::new(), Vec::new());
            for &page in pages {
                let Some(intervals) = self.per_page.get(&page) else { continue };
                examined.push(page);
                for (&interval, (rank, diff)) in intervals.range(seen + 1..) {
                    out.push((page, ME, interval, *rank, diff.clone()));
                }
            }
            out.sort_by_key(|&(page, _, interval, _, _)| (page, interval));
            (out, examined)
        }

        fn trim(&mut self, own: Interval) -> u64 {
            let mut dropped = 0;
            for (&page, intervals) in &mut self.per_page {
                let keep = intervals.split_off(&(own + 1));
                if !intervals.is_empty() {
                    dropped += intervals.len() as u64;
                    self.trimmed.insert(page);
                }
                *intervals = keep;
            }
            self.per_page.retain(|_, intervals| !intervals.is_empty());
            dropped
        }
    }

    /// What a reader can tell apart in a served diff record.
    type Entry = (PageId, ProcId, Interval, u64, Diff);

    /// One node and the two models, driven in step.
    struct Stepper {
        seed: u64,
        proto: ProtoState,
        table: PageTable,
        log: QueueLog,
        cache: MapCache,
        /// Each writer's latest interval.
        latest: [Interval; NPROCS],
        /// Each writer's records not sent to the node yet, oldest first: a
        /// suffix of its intervals, as a node learns a writer's intervals
        /// as a prefix.
        withheld: Vec<NoticeRecord>,
    }

    impl Stepper {
        fn new(seed: u64) -> Stepper {
            Stepper {
                seed,
                proto: ProtoState::new(ME, NPROCS),
                table: PageTable::new(),
                log: QueueLog {
                    per_proc: vec![VecDeque::new(); NPROCS],
                    trimmed: vec![BTreeSet::new(); NPROCS],
                },
                cache: MapCache::default(),
                latest: [0; NPROCS],
                withheld: Vec::new(),
            }
        }

        /// A new record of a writer other than this node, sent with every
        /// record of the writer withheld so far; now and then it is withheld
        /// too, and a later message sends it.
        fn fresh_records(&mut self, draw: impl Fn(u64) -> u64) -> Vec<NoticeRecord> {
            let proc = (ME + 1 + (draw(0) % (NPROCS as u64 - 1)) as usize) % NPROCS;
            let pages: Arc<[PageId]> = some_pages(|k| draw(10 + k), 5).into();
            self.latest[proc] += 1;
            self.withheld.push(NoticeRecord { proc, interval: self.latest[proc], pages });
            if draw(1).is_multiple_of(4) {
                return Vec::new();
            }
            self.release(proc, Interval::MAX)
        }

        /// The withheld records of `proc` up to `interval`, no longer held
        /// back.
        fn release(&mut self, proc: ProcId, interval: Interval) -> Vec<NoticeRecord> {
            let (sent, kept) = std::mem::take(&mut self.withheld)
                .into_iter()
                .partition(|r| r.proc == proc && r.interval <= interval);
            self.withheld = kept;
            sent
        }

        /// Some records the node already holds, its own among them.
        fn known(&self, draw: impl Fn(u64) -> u64) -> Vec<NoticeRecord> {
            let held = self.proto.notice_log.records_after(&self.proto.gc_horizon);
            held.enumerate()
                .filter(|&(k, _)| draw(k as u64).is_multiple_of(3))
                .map(|(_, r)| r.clone())
                .collect()
        }

        /// The flush of an interval that wrote `pages`: a delta of each, but a
        /// whole page for every fifth.
        fn flush(&mut self, draw: impl Fn(u64) -> u64) {
            let pages = some_pages(|k| draw(10 + k), 6);
            let interval = self.proto.open_interval();
            let rank = u64::from(interval) * 7;
            let mut diffs = Vec::new();
            for &page in &pages {
                let (entry, diff) = if draw(100 + page.0 as u64).is_multiple_of(5) {
                    (DiffEntry::FullPage, full_page_diff(&self.table, page))
                } else {
                    let mut written = Page::zeroed();
                    let stamp = [page.0 as u8, interval as u8, 1, 1];
                    written.as_mut_slice()[..4].copy_from_slice(&stamp);
                    let diff = Diff::create(&[0u8; PAGE_SIZE], written.as_slice());
                    (DiffEntry::Delta(Delta::new(Page::zeroed(), written)), diff)
                };
                diffs.push(CachedDiff { entry, rank, vt: None });
                self.cache.per_page.entry(page).or_default().insert(interval, (rank, diff));
            }
            let pages_of_record: Arc<[PageId]> = pages.as_slice().into();
            self.log.record(NoticeRecord { proc: ME, interval, pages: pages_of_record });
            self.proto.close_interval(pages, diffs);
            self.latest[ME] = interval;
        }

        /// A barrier departure's batch: records the node holds and new ones,
        /// in `(proc, interval)` order.
        fn departure(&mut self, draw: impl Fn(u64) -> u64) {
            let mut batch = self.known(|k| draw(100 + k));
            for k in 0..1 + draw(1) % 4 {
                batch.extend(self.fresh_records(|j| draw(200 + 20 * k + j)));
            }
            batch.sort_by_key(|r| (r.proc, r.interval));
            let batch: Arc<[NoticeRecord]> = batch.into();
            let vt = self.proto.vt.clone();
            for record in batch.iter().filter(|r| r.proc != ME && r.interval > vt.get(r.proc)) {
                self.log.record(record.clone());
            }
            apply_notices_locked(&mut self.proto, &mut self.table, [Segment::Shared(batch)]);
        }

        /// An arrival's or a grant's records: known ones and new ones, for a
        /// grant also some of one writer's withheld records, the oldest
        /// first; an arrival's second child repeats some of the first's.
        fn notices(&mut self, draw: impl Fn(u64) -> u64, grant: bool) {
            let mut records = self.known(|k| draw(100 + k));
            for k in 0..draw(1) % 3 {
                records.extend(self.fresh_records(|j| draw(200 + 20 * k + j)));
            }
            if grant && !self.withheld.is_empty() {
                let upto = &self.withheld[(draw(2) % self.withheld.len() as u64) as usize];
                let (proc, interval) = (upto.proc, upto.interval);
                records.extend(self.release(proc, interval));
            }
            records.sort_by_key(|r| (r.proc, r.interval));
            for record in records.iter().filter(|r| r.proc != ME) {
                self.log.record(record.clone());
            }
            let mut segments = vec![Segment::Owned(records.clone())];
            if !grant {
                let repeats = records
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| draw(300 + *k as u64).is_multiple_of(2));
                segments.push(Segment::Owned(repeats.map(|(_, r)| r.clone()).collect()));
            }
            apply_notices_locked(&mut self.proto, &mut self.table, segments);
        }

        /// A trim at a horizon that is monotone, within what the node knows,
        /// and below every record still on its way.
        fn trim(&mut self, draw: impl Fn(u64) -> u64) {
            let mut horizon = self.proto.gc_horizon.clone();
            for proc in 0..NPROCS {
                let withheld = self.withheld.iter().filter(|r| r.proc == proc);
                let cap = withheld.map(|r| r.interval - 1).min().unwrap_or(Interval::MAX);
                let (low, high) = (horizon.get(proc), self.proto.vt.get(proc).min(cap));
                if high > low {
                    let up = draw(proc as u64) % u64::from(high - low + 1);
                    horizon.advance(proc, low + up as Interval);
                }
            }
            let in_flight = if draw(10).is_multiple_of(2) {
                some_pages(|k| draw(20 + k), 4)
            } else {
                Vec::new()
            };
            let (diffs, notices) = self.proto.gc_trim(&horizon, &in_flight);
            assert_eq!(diffs, self.cache.trim(horizon.get(ME)), "diffs trimmed");
            assert_eq!(notices, self.log.trim_covered(&horizon) as u64, "records trimmed");
        }

        fn step(&mut self, step: u64) {
            let seed = self.seed;
            let draw = move |k: u64| mix(&[seed, step, k]);
            match draw(0) % 10 {
                0 | 1 => self.flush(|k| draw(1 + k)),
                2..=4 => self.departure(|k| draw(1 + k)),
                5 => self.notices(|k| draw(1 + k), false),
                6 | 7 => self.notices(|k| draw(1 + k), true),
                _ => self.trim(|k| draw(1 + k)),
            }
        }

        /// Every query, against the models.
        fn check(&self, step: u64) {
            let at = format!("seed {}, step {step}", self.seed);
            let draw = |k: u64| mix(&[self.seed, step, 0xc0de, k]);
            let (proto, log) = (&self.proto.notice_log, &self.log);
            for k in 0..4 {
                let mut vt = Vt::new(NPROCS);
                for proc in 0..NPROCS {
                    let bound = u64::from(self.latest[proc]) + 2;
                    vt.advance(proc, (draw(10 * k + proc as u64) % bound) as Interval);
                }
                let held: Vec<&NoticeRecord> = proto.records_after(&vt).collect();
                assert_eq!(held, log.records_after(&vt), "{at}: records after {vt}");
                let cloned: Vec<NoticeRecord> = held.into_iter().cloned().collect();
                assert_eq!(proto.clone_after(&vt), cloned, "{at}: clone after {vt}");
                let proc = (draw(50 + k) % NPROCS as u64) as usize;
                let interval = (draw(60 + k) % (u64::from(self.latest[proc]) + 2)) as Interval;
                assert_eq!(proto.contains(proc, interval), log.contains(proc, interval), "{at}");
            }
            assert_eq!(
                proto.interval_count(),
                log.per_proc.iter().map(VecDeque::len).sum::<usize>()
            );
            for (proc, trimmed) in log.trimmed.iter().enumerate() {
                let bits: Vec<PageId> =
                    (0..PAGES).map(PageId).filter(|&page| proto.trimmed(proc, page)).collect();
                assert_eq!(
                    bits,
                    trimmed.iter().copied().collect::<Vec<_>>(),
                    "{at}: P{proc}'s bits"
                );
            }
            for k in 0..4 {
                let pages = some_pages(|j| draw(100 + 10 * k + j), 8);
                let seen = (draw(200 + k) % (u64::from(self.latest[ME]) + 2)) as Interval;
                let seen = seen.max(self.proto.gc_horizon.get(ME));
                let mut examined = Vec::new();
                let served =
                    self.proto.diffs_for_pages_after(&pages, seen, &self.table, &mut examined);
                let served: Vec<Entry> = served
                    .into_iter()
                    .map(|r| (r.page, r.proc, r.interval, r.rank, r.diff))
                    .collect();
                let expected = self.cache.after(&pages, seen);
                assert_eq!((served, examined), expected, "{at}: {pages:?} above {seen}");
            }
            for k in 0..8 {
                let page = PageId((draw(300 + k) % PAGES as u64) as usize);
                let interval = (draw(400 + k) % (u64::from(self.latest[ME]) + 2)) as Interval;
                let cached = self.proto.cached(page, interval).map(|cached| cached.rank);
                let model = self.cache.per_page.get(&page).and_then(|m| m.get(&interval));
                assert_eq!(cached, model.map(|&(rank, _)| rank), "{at}: {page:?} of {interval}");
            }
            let trimmed: Vec<PageId> =
                (0..PAGES).map(PageId).filter(|&p| self.proto.trimmed(p)).collect();
            assert_eq!(trimmed, self.cache.trimmed.iter().copied().collect::<Vec<_>>(), "{at}");
            assert_eq!(
                self.proto.cached_entries(),
                self.cache.per_page.values().map(BTreeMap::len).sum::<usize>()
            );
        }
    }

    #[test]
    fn the_segment_log_and_the_own_queue_answer_as_the_stores_they_replaced() {
        let mut steps = [0u64; 10];
        for seed in 0..24 {
            let mut stepper = Stepper::new(seed);
            for step in 0..STEPS {
                steps[(mix(&[seed, step, 0]) % 10) as usize] += 1;
                stepper.step(step);
                stepper.check(step);
            }
        }
        assert!(steps.iter().all(|&n| n > 0), "every kind of step ran: {steps:?}");
    }
}
