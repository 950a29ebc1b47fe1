//! Barriers: the global barrier, plain or carrying a merged fetch, over
//! the configured reduction tree — and the neighbour synchronization a
//! compiled plan puts where only named producers and consumers need to
//! meet (an *eliminated* barrier).

use std::collections::HashSet;
use std::sync::Arc;

use msgnet::Port;
use pagedmem::{PageId, PageTable};
use racecheck::SyncKind;

use super::access::warm_ranges_locked;
use super::interval::apply_notices_locked;
use super::sync::{pages_of, prep_writes_locked, PendingSync, PhasePlan};
use super::Process;
use crate::config::BarrierTopology;
use crate::message::{DiffRecord, SyncFetchRequest, TmkMessage};
use crate::state::ProtoState;
use crate::types::{ProcId, Vt};

/// The barrier root (the paper assigns the distinguished roles to
/// processor 0; with the flat topology this is the master every arrival
/// goes to, with a tree it is the root of the reduction).
const MASTER: ProcId = 0;

/// The children of `me` in an `arity`-ary barrier tree over `n` processors
/// (node `i`'s children are `i·arity+1 ..= i·arity+arity`, the k-ary heap
/// layout). The flat topology is the degenerate tree of arity `n - 1`:
/// every other processor is a direct child of the master.
fn tree_children(me: ProcId, n: usize, arity: usize) -> Vec<ProcId> {
    let first = me * arity + 1;
    (first..n.min(first.saturating_add(arity))).collect()
}

/// Answers the piggybacked fetch requests of other processors from the
/// local diff cache, under an already-held lock pair: for each request, the
/// diffs this node created for the requested pages newer than the
/// requester's advertised timestamp. Returns the per-requester record
/// batches plus the number of distinct pages *examined* (requested pages
/// this node holds diffs for — non-owned pages cost one index probe, not a
/// range scan) and full pages materialised. The whole synchronization
/// point is served in one pass, so each examined page is charged once no
/// matter how many requests name it.
fn serve_requests_locked(
    proto: &ProtoState,
    table: &PageTable,
    requests: &[SyncFetchRequest],
) -> (Vec<(ProcId, Vec<DiffRecord>)>, usize, usize) {
    let mut out = Vec::new();
    let mut examined = Vec::new();
    let mut materialised = 0usize;
    for req in requests {
        if req.proc == proto.me {
            continue;
        }
        let (records, full_pages) =
            proto.diffs_for_pages_after_counted(&req.pages, &req.vt, table, &mut examined);
        materialised += full_pages;
        if records.is_empty() {
            continue;
        }
        out.push((req.proc, records));
    }
    (out, distinct_pages(examined), materialised)
}

/// How many different pages `pages` names.
fn distinct_pages(mut pages: Vec<PageId>) -> usize {
    pages.sort_unstable();
    pages.dedup();
    pages.len()
}

/// The processors that will answer this node's own piggybacked request with
/// a `SyncDiffs` message: every other processor with a recorded
/// modification of a requested page above the advertised timestamp sends
/// exactly one.
fn responders_locked(proto: &ProtoState, pages: &[PageId], vt: &Vt) -> HashSet<ProcId> {
    debug_assert!(pages.is_sorted(), "every caller sorts its page list");
    let mut responders = HashSet::new();
    for (proc, _, modified) in proto.notice_log.records_after(vt) {
        if proc != proto.me
            && !responders.contains(&proc)
            && modified.iter().any(|page| pages.binary_search(page).is_ok())
        {
            responders.insert(proc);
        }
    }
    responders
}

/// Builds the barrier departure of each child of this node, under an
/// already-held proto lock and against the now complete notice log: a
/// child's subtree-merged arrival timestamp says exactly which notices its
/// subtree still misses. The request set is the same for everybody, so the
/// departures *share* it — the root allocates it once and every interior
/// node hands on the allocation it received.
pub(super) fn child_departures(
    proto: &ProtoState,
    children: &[(ProcId, Vt)],
    gc_horizon: &Vt,
    sync_requests: &Arc<[SyncFetchRequest]>,
) -> Vec<(ProcId, TmkMessage)> {
    children
        .iter()
        .map(|(proc, vt)| {
            let msg = TmkMessage::BarrierDeparture {
                global_vt: proto.last_global_vt.clone(),
                gc_horizon: gc_horizon.clone(),
                notices: proto.notice_log.notices_after(vt),
                sync_requests: Arc::clone(sync_requests),
            };
            (*proc, msg)
        })
        .collect()
}

impl Process {
    /// Global barrier: ends the current interval, exchanges write notices
    /// through the barrier master (processor 0) and leaves every processor
    /// with the merged global vector timestamp.
    pub fn barrier(&mut self) {
        let pending = self.barrier_issue(&PhasePlan::default());
        self.sync_phase_complete(pending);
    }

    /// Barrier side of [`sync_phase_issue`](Self::sync_phase_issue):
    /// flushes the interval, crosses the barrier with the plan's page list
    /// piggybacked on the arrival, and then performs the *entire*
    /// post-departure protocol step — write-notice application, serving
    /// every other processor's piggybacked request, write preparation, TLB
    /// warming and the garbage-collection trim — under a single
    /// page-table-lock hold before returning with the pending handle.
    ///
    /// The exchange runs over the configured [`BarrierTopology`]: notices,
    /// vector timestamps, applied timestamps and piggybacked fetch requests
    /// merge up the reduction tree, and the global timestamp, GC horizon
    /// and full request set fan back down. The flat topology is the
    /// degenerate tree (every processor a child of the master) costed like
    /// stock TreadMarks: interrupt-path messages and the O(n) master
    /// serialization. Tree hops instead travel on the polled path — every
    /// participant is blocked in the barrier with its receive pre-posted —
    /// and charge a per-child hop service, so the critical path is
    /// O(arity · depth).
    pub(super) fn barrier_issue(&mut self, plan: &PhasePlan) -> PendingSync {
        self.flush_interval();
        self.stats.barriers(1);
        self.barrier_seq += 1;
        let seq = self.barrier_seq;
        let mut pending = PendingSync::new(SyncKind::Barrier, seq, pages_of(&plan.fetch), plan);
        let n = self.nprocs();
        let me = self.proc_id();
        let (arity, flat) = match self.barrier {
            BarrierTopology::FlatMaster => ((n - 1).max(1), true),
            BarrierTopology::Tree { arity } => (arity.max(1), false),
            // Resolved to a concrete tree in `Process::new`.
            BarrierTopology::Adaptive => unreachable!("adaptive topology is resolved at startup"),
        };
        let children = tree_children(me, n, arity);
        let interrupt = flat;
        let my_request = if pending.pages.is_empty() {
            None
        } else {
            let vt = self.sync_vt(&pending.pages);
            Some(SyncFetchRequest { proc: me, vt, pages: pending.pages.clone() })
        };
        let my_sync_vt = my_request.as_ref().map(|r| r.vt.clone());

        // --- Reduction: gather the whole subtree's arrivals. Collect (and
        // observe) every arrival before charging any processing cost:
        // observation is a max and processing an addition, and only
        // observe-all-then-advance is independent of the real
        // thread-scheduling order the arrivals come in.
        let mut sync_requests: Vec<SyncFetchRequest> = my_request.into_iter().collect();
        let mut child_arrivals: Vec<(ProcId, Vt)> = Vec::with_capacity(children.len());
        let mut child_notices = Vec::new();
        let mut applied_min: Option<Vt> = None;
        for _ in 0..children.len() {
            let env = self.recv_reply("a child's barrier arrival", |m| {
                matches!(m, TmkMessage::BarrierArrival { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierArrival { proc, vt, applied_vt, notices, sync_requests: reqs } =
                env.payload
            else {
                unreachable!()
            };
            child_notices.extend(notices);
            sync_requests.extend(reqs);
            match &mut applied_min {
                Some(min) => min.merge_min(&applied_vt),
                None => applied_min = Some(applied_vt),
            }
            child_arrivals.push((proc, vt));
        }
        child_arrivals.sort_by_key(|&(proc, _)| proc);
        if flat {
            // The master of a one-processor run has nobody to serialize.
            if me == MASTER && !children.is_empty() {
                self.clock.advance(self.cost.barrier_master_cost(n));
            }
        } else if !children.is_empty() {
            self.clock.advance(self.cost.barrier_hop_cost(children.len()));
        }

        // --- Non-root: fold the subtree into local state under one hold,
        // send the merged arrival up, and wait for the departure.
        let (all_notices, sync_requests, distributed, departures_to) = if me == MASTER {
            // Serve and redistribute the piggybacked requests in processor
            // order, not arrival order: every processor then answers them
            // at deterministic virtual times, keeping runs reproducible.
            sync_requests.sort_by_key(|r| r.proc);
            (child_notices, Arc::from(sync_requests), None, child_arrivals)
        } else {
            let parent = (me - 1) / arity;
            let (arrival, tally, pages_in_use) = {
                let node = self.node.unleased();
                let mut proto = node.proto();
                let mut table = node.table();
                let tally = apply_notices_locked(&mut proto, &mut table, &child_notices);
                for (_, vt) in &child_arrivals {
                    proto.vt.merge(vt);
                }
                let mut applied = proto.applied_vt(&table);
                if let Some(min) = &applied_min {
                    applied.merge_min(min);
                }
                let msg = TmkMessage::BarrierArrival {
                    proc: me,
                    vt: proto.vt.clone(),
                    applied_vt: applied,
                    notices: proto.notice_log.notices_after(&proto.last_global_vt),
                    sync_requests: std::mem::take(&mut sync_requests),
                };
                (msg, tally, table.pages_in_use())
            };
            self.charge_notices(&tally, pages_in_use);
            self.send(parent, Port::Reply, arrival, interrupt);
            let env = self.recv_reply("the barrier departure", |m| {
                matches!(m, TmkMessage::BarrierDeparture { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierDeparture { global_vt, gc_horizon, notices, sync_requests } =
                env.payload
            else {
                unreachable!()
            };
            (notices, sync_requests, Some((global_vt, gc_horizon)), child_arrivals)
        };

        // --- One lock hold for the whole post-exchange protocol step. ---
        let (tally, prep, departures, serve, scanned, materialised, trimmed, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let tally = apply_notices_locked(&mut proto, &mut table, &all_notices);
            // The global timestamp and GC horizon: distributed by the
            // parent below the root; completed at the root itself, whose
            // own applied timestamp closes the component-wise minimum over
            // all processors.
            let gc_horizon = match distributed {
                Some((global_vt, gc_horizon)) => {
                    proto.vt.merge(&global_vt);
                    proto.last_global_vt = global_vt;
                    gc_horizon
                }
                None => {
                    for (_, vt) in &departures_to {
                        proto.vt.merge(vt);
                    }
                    proto.last_global_vt = proto.vt.clone();
                    let mut horizon = proto.applied_vt(&table);
                    if let Some(min) = &applied_min {
                        horizon.merge_min(min);
                    }
                    horizon
                }
            };
            let departures = child_departures(&proto, &departures_to, &gc_horizon, &sync_requests);
            let (serve, scanned, materialised) =
                serve_requests_locked(&proto, &table, &sync_requests);
            if let Some(vt) = &my_sync_vt {
                pending.responders = responders_locked(&proto, &pending.pages, vt);
            }
            let prep =
                prep_writes_locked(&mut proto, &mut table, plan, true, &mut pending.deferred);
            warm_ranges_locked(&mut node, &table, &plan.warm);
            // Trim last, after every request of this synchronization point
            // has been served from the pre-trim state. The horizon can
            // never exceed the global VT in any component (applied
            // timestamps are bounded by real ones), which the adversarial
            // GC tests pin.
            debug_assert!(
                proto.last_global_vt.covers(&gc_horizon),
                "the GC horizon must stay at or below the global VT"
            );
            let trimmed = proto.gc_trim(&gc_horizon);
            (tally, prep, departures, serve, scanned, materialised, trimmed, table.pages_in_use())
        };
        self.charge_notices(&tally, pages_in_use);
        self.stats.gc_trimmed_diffs(trimmed.0);
        self.stats.gc_trimmed_notices(trimmed.1);
        if !flat && !departures.is_empty() {
            // Re-fanning the departure down costs one hop service at root
            // and interior nodes alike, plus the send-occupancy gap for
            // every extra child copy.
            self.clock.advance(self.cost.barrier_hop_cost(1));
            self.clock.advance(self.cost.broadcast_extra_cost(departures.len() - 1));
        }
        for (proc, msg) in departures {
            self.send(proc, Port::Reply, msg, interrupt);
        }
        self.charge_prep(&prep, pages_in_use);
        // One pass over the diff cache answers every request of the
        // synchronization point: the scan is charged for the union of the
        // requested pages, materialised full pages for their encoding.
        self.clock.advance(self.cost.sync_merge_scan_cost(scanned));
        self.clock.advance(self.cost.diff_create_cost(materialised));
        for (proc, diffs) in serve {
            self.send(proc, Port::Reply, TmkMessage::SyncDiffs { from: me, seq, diffs }, true);
        }
        self.clock.advance(self.cost.barrier_local_cost());
        pending
    }

    /// The run-time primitive underneath a compiler-**eliminated** barrier:
    /// a departure-free phase boundary where only the named `producers` and
    /// `consumers` exchange. Write notices, vector timestamps and diffs ride
    /// one merged data+sync message per producer/consumer pair
    /// ([`TmkMessage::NeighborAck`]); there is no reduction tree, no
    /// departure
    /// and no global vector-timestamp advance — and therefore no
    /// garbage-collection horizon movement, which is why a compiled plan
    /// keeps a real barrier wherever intervals would otherwise accumulate
    /// unboundedly.
    ///
    /// The exchange is a ready/ack handshake. This processor first flushes
    /// its interval and sends one `NeighborReady` (its advertised timestamp
    /// plus the plan's page list) to every named producer, then blocks until
    /// each named *consumer*'s ready has arrived and answers them all — the
    /// wait is what stops a producer from racing into the next phase and
    /// answering a ready with data from the consumer's future, so the values
    /// every processor reads are exactly the barrier ones. Because every
    /// participant sends its readys *before* blocking, the handshake cannot
    /// deadlock. The producers' acks are awaited by
    /// [`sync_phase_complete`](Self::sync_phase_complete), so computation on
    /// already-local data overlaps the data movement exactly like a
    /// split-phase `Validate_w_sync`.
    ///
    /// **Contract (stronger than a barrier-merged fetch):** the legality of
    /// the elimination is established by the compiler — the only
    /// happens-before edges the replaced barrier enforced are the ones
    /// between the named producers and consumers (see `DESIGN.md` §6) — and
    /// the returned handle *must* be completed: the acks carry consistency
    /// information (notices and timestamps), not just data. All participants
    /// must name each other consistently, like any collective.
    ///
    /// # Panics
    ///
    /// Panics if this processor names itself as a producer or consumer.
    pub fn neighbor_sync_issue(
        &mut self,
        producers: &[ProcId],
        consumers: &[ProcId],
        plan: &PhasePlan,
    ) -> PendingSync {
        self.flush_interval();
        self.stats.barriers_eliminated(1);
        self.nsync_seq += 1;
        let seq = self.nsync_seq;
        let me = self.proc_id();
        let mut pending = PendingSync::new(SyncKind::NeighborAck, seq, pages_of(&plan.fetch), plan);
        // The request half: one ready per named producer, on the polled
        // path (the producer is blocked at — or headed for — the same
        // boundary with its receive pre-posted).
        let vt = self.sync_vt(&pending.pages);
        for &producer in producers {
            assert_ne!(producer, me, "a processor does not synchronize with itself");
            let pages = pending.pages.clone();
            let msg = TmkMessage::NeighborReady { from: me, seq, vt: vt.clone(), pages };
            self.send(producer, Port::Reply, msg, false);
        }
        // Collect (and observe) every consumer's ready before serving any:
        // observation is a max and serving an addition, so only
        // observe-all-then-advance keeps virtual time independent of the
        // real thread-scheduling order the readys arrive in.
        let mut waiting: HashSet<ProcId> = consumers.iter().copied().collect();
        assert!(!waiting.contains(&me), "a processor does not synchronize with itself");
        let mut readys: Vec<(ProcId, Vt, Vec<PageId>)> = Vec::new();
        while !waiting.is_empty() {
            let env = self.recv_reply("a consumer's neighbour-sync ready", |m| {
                matches!(m, TmkMessage::NeighborReady { from, seq: got, .. }
                    if *got == seq && waiting.contains(from))
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::NeighborReady { from, vt, pages, .. } = env.payload else {
                unreachable!()
            };
            waiting.remove(&from);
            readys.push((from, vt, pages));
        }
        // Serve in processor order, not arrival order, so every ack leaves
        // at a deterministic virtual time.
        readys.sort_by_key(|&(from, _, _)| from);
        let (acks, prep, examined, materialised, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let mut acks = Vec::new();
            let mut examined = Vec::new();
            let mut materialised = 0usize;
            for (from, ready_vt, ready_pages) in &readys {
                let (diffs, full_pages) = proto.diffs_for_pages_after_counted(
                    ready_pages,
                    ready_vt,
                    &table,
                    &mut examined,
                );
                materialised += full_pages;
                let msg = TmkMessage::NeighborAck {
                    from: me,
                    seq,
                    vt: proto.vt.clone(),
                    notices: proto.notice_log.notices_after(ready_vt),
                    diffs,
                };
                acks.push((*from, msg));
            }
            let prep =
                prep_writes_locked(&mut proto, &mut table, plan, true, &mut pending.deferred);
            warm_ranges_locked(&mut node, &table, &plan.warm);
            (acks, prep, distinct_pages(examined), materialised, table.pages_in_use())
        };
        self.charge_prep(&prep, pages_in_use);
        if !readys.is_empty() {
            // Consuming the pre-posted readys costs one hop service per
            // consumer, like merging child arrivals at a tree-barrier node.
            self.clock.advance(self.cost.barrier_hop_cost(readys.len()));
        }
        self.clock.advance(self.cost.sync_merge_scan_cost(examined));
        self.clock.advance(self.cost.diff_create_cost(materialised));
        for (dest, msg) in acks {
            self.stats.merged_sync_msgs(1);
            self.send(dest, Port::Reply, msg, false);
        }
        pending.neighbor_responders = producers.iter().copied().collect();
        pending
    }

    /// The blocking form of an eliminated barrier: issue and complete back
    /// to back. See [`neighbor_sync_issue`](Self::neighbor_sync_issue).
    pub fn neighbor_sync(&mut self, producers: &[ProcId], consumers: &[ProcId], plan: &PhasePlan) {
        let pending = self.neighbor_sync_issue(producers, consumers, plan);
        self.sync_phase_complete(pending);
    }
}
