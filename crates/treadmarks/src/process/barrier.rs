//! Barriers: the global barrier, plain or carrying a merged fetch, over
//! the configured reduction tree.

use std::cmp::Reverse;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use msgnet::Port;
use pagedmem::{PageId, PageTable};
use racecheck::SyncKind;
use sp2model::{VirtualClock, VirtualTime};

use super::access::warm_ranges_locked;
use super::interval::{apply_notices_locked, sync_vt_locked};
use super::sync::{prep_writes_locked, Outstanding, PendingSync, PhasePlan};
use super::Process;
use crate::message::{RoutedRequest, SyncFetchRequest, TmkMessage};
use crate::notice::{notices_determine, vt_through, WriteNotice};
use crate::state::ProtoState;
use crate::types::{Interval, ProcId, Vt, VtDelta};

/// The barrier root (the paper assigns the distinguished roles to
/// processor 0): the root of the reduction tree, and with the flat topology
/// the master every arrival goes to.
pub(super) const MASTER: ProcId = 0;

/// The children of `me` in an `arity`-ary barrier tree over `n` processors
/// (node `i`'s children are `i·arity+1 ..= i·arity+arity`, the k-ary heap
/// layout). The flat topology is the degenerate tree of arity `n - 1`:
/// every other processor is a direct child of the master.
pub(super) fn tree_children(me: ProcId, n: usize, arity: usize) -> Vec<ProcId> {
    let first = me * arity + 1;
    (first..n.min(first.saturating_add(arity))).collect()
}

/// Whether `proc` lies in the subtree rooted at `root` of the `arity`-ary
/// barrier tree: heap parents have smaller ids, so walking `proc` up until
/// it is no longer above `root` either lands on `root` or has passed it.
pub(super) fn in_subtree(mut proc: ProcId, root: ProcId, arity: usize) -> bool {
    while proc > root {
        proc = (proc - 1) / arity;
    }
    proc == root
}

/// The barrier root's resolution of the piggybacked requests (in requester
/// order), under an already-held proto lock and against the now complete
/// notice log: each request becomes the processors that will answer it —
/// every other processor with a recorded modification of a requested page
/// above the advertised timestamp, the rule each requester evaluates for
/// itself in [`responders_locked`]. The root is the first node to hold all
/// requests and all notices, and its log agrees with everybody's at this
/// point: the same notices applied, the same horizon trimmed at the last
/// barrier, and no advertised component below that horizon. A request
/// nobody answers is dropped here.
///
/// `base` is the *previous* barrier's global timestamp, against which every
/// request encoded its own (see [`SyncFetchRequest`]): the caller reads it
/// before this barrier's departure hold overwrites it.
///
/// One `(page, writer) -> latest interval` index, built once per barrier,
/// answers every request with a probe per requested page — the root
/// resolves while everybody else waits for it, so the index holds only what
/// can answer anything: records some requester has not incorporated yet
/// (above the component-wise minimum of the advertised timestamps), of
/// those the pages somebody asked for, and of those not the pages whose
/// only requester is the writer itself (a processor's own block, named by
/// its own read-and-write sections — most of the log).
fn route_requests_locked(
    proto: &ProtoState,
    base: &Vt,
    requests: Vec<SyncFetchRequest>,
) -> Vec<RoutedRequest> {
    let vts: Vec<Vt> = requests.iter().map(|req| req.vt(base)).collect();
    let Some(mut floor) = vts.first().cloned() else { return Vec::new() };
    // Per wanted page its requester, or `None` for more than one.
    let mut wanted: Vec<(PageId, Option<ProcId>)> =
        Vec::with_capacity(requests.iter().map(|req| req.pages.len()).sum());
    for (req, vt) in requests.iter().zip(&vts) {
        floor.merge_min(vt);
        wanted.extend(req.pages.iter().map(|&page| (page, Some(req.proc))));
    }
    wanted.sort_unstable();
    wanted.dedup_by(|later, first| {
        let same = later.0 == first.0;
        if same {
            first.1 = None;
        }
        same
    });
    let mut writers: Vec<(PageId, ProcId, Reverse<Interval>)> = Vec::new();
    for (proc, interval, pages) in proto.notice_log.records_after(&floor) {
        for page in pages {
            let Ok(at) = wanted.binary_search_by_key(page, |&(wanted, _)| wanted) else {
                continue;
            };
            if wanted[at].1 != Some(proc) {
                writers.push((*page, proc, Reverse(interval)));
            }
        }
    }
    writers.sort_unstable();
    writers.dedup_by_key(|&mut (page, proc, _)| (page, proc));
    let mut routed = Vec::with_capacity(requests.len());
    for (SyncFetchRequest { proc, pages, .. }, vt) in requests.into_iter().zip(vts) {
        let mut responders: Vec<(ProcId, Interval)> = Vec::new();
        for &page in pages.iter() {
            let start = writers.partition_point(|&(written, _, _)| written < page);
            for &(_, writer, Reverse(latest)) in
                writers[start..].iter().take_while(|&&(written, _, _)| written == page)
            {
                let seen = vt.get(writer);
                if writer != proc && latest > seen && !responders.contains(&(writer, seen)) {
                    responders.push((writer, seen));
                }
            }
        }
        responders.sort_unstable();
        if !responders.is_empty() {
            routed.push(RoutedRequest { proc, pages, responders });
        }
    }
    routed
}

/// The share of `routed` that goes down to `child`: the entries with a
/// responder inside the child's subtree, naming only those responders and
/// sharing the page lists. Pure heap arithmetic — only the root ever looks
/// anything up.
fn subtree_share(routed: &[RoutedRequest], child: ProcId, arity: usize) -> Vec<RoutedRequest> {
    routed
        .iter()
        .filter_map(|entry| {
            let responders: Vec<(ProcId, Interval)> = entry
                .responders
                .iter()
                .copied()
                .filter(|&(responder, _)| in_subtree(responder, child, arity))
                .collect();
            (!responders.is_empty()).then(|| RoutedRequest {
                proc: entry.proc,
                pages: Arc::clone(&entry.pages),
                responders,
            })
        })
        .collect()
}

/// The `SyncDiffs` replies a barrier owes its requesters, built under the
/// hold and sent after it by [`Process::send_served`].
struct Served {
    /// Per requester, in request order, its reply.
    replies: Vec<(ProcId, TmkMessage)>,
    /// Distinct pages examined: requested pages this node holds diffs for
    /// (non-owned pages cost one index probe, not a range scan).
    scanned: usize,
    /// Full pages materialised for their encoding.
    materialised: usize,
}

/// Answers the piggybacked fetch requests routed to this node — the entries
/// that name it — from the local diff cache, under an already-held lock
/// pair: for each, the diffs this node created for the requested pages newer
/// than the interval the entry names, on one `SyncDiffs` named by the
/// barrier's ordinal `seq`. The whole barrier is served in one pass, so each
/// examined page is charged once no matter how many requests name it.
fn serve_requests_locked(
    proto: &ProtoState,
    table: &PageTable,
    seq: u64,
    routed: &[RoutedRequest],
) -> Served {
    let mut examined = Vec::new();
    let mut materialised = 0usize;
    let replies = routed
        .iter()
        .filter_map(|entry| {
            let &(_, seen) = entry.responders.iter().find(|&&(proc, _)| proc == proto.me)?;
            let (requester, pages) = (entry.proc, &entry.pages[..]);
            let (diffs, full_pages) =
                proto.diffs_for_pages_after_counted(pages, seen, table, &mut examined);
            materialised += full_pages;
            // A barrier's requester waits for exactly one `SyncDiffs` from
            // every processor its own log resolves the request to; the root
            // resolved it here from the same log, so an empty answer means
            // the two disagree — and a requester blocked until the watchdog.
            debug_assert!(
                !diffs.is_empty(),
                "P{} was routed P{requester}'s request for {pages:?} above interval {seen} \
                 but holds no such diff",
                proto.me,
            );
            Some((requester, TmkMessage::SyncDiffs { from: proto.me, seq, diffs }))
        })
        .collect();
    examined.sort_unstable();
    examined.dedup();
    Served { replies, scanned: examined.len(), materialised }
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
/// subtree still misses, and its position in the tree which of the `routed`
/// requests this node holds — all of them at the root, its own subtree's
/// share below — its subtree answers. The global timestamp does not travel:
/// the child rebuilds it from its own timestamp and those notices, which
/// debug builds check here, at the sender.
fn child_departures(
    proto: &ProtoState,
    children: &[(ProcId, Vt)],
    gc_horizon: &VtDelta,
    routed: &[RoutedRequest],
    arity: usize,
) -> Vec<(ProcId, TmkMessage)> {
    children
        .iter()
        .map(|(proc, vt)| {
            let notices = proto.notice_log.notices_after(vt);
            debug_assert!(
                notices_determine(vt, &notices, &proto.last_global_vt),
                "P{}'s departure to P{proc}: the notices must determine the global timestamp",
                proto.me,
            );
            let msg = TmkMessage::BarrierDeparture {
                gc_horizon: gc_horizon.clone(),
                notices,
                sync_requests: subtree_share(routed, *proc, arity),
            };
            (*proc, msg)
        })
        .collect()
}

/// Serves `arrivals` — `(virtual arrival time, sender)` pairs — one after
/// another in virtual-arrival order, each as soon as it is there and the
/// previous one is done: `t = max(t, arrives_at) + per_child` from the
/// clock's own `now`, over the arrivals sorted by `(arrives_at, sender)`.
///
/// The order is a property of virtual time alone, never of the order the
/// host threads delivered the messages in, so the result is deterministic;
/// tied arrivals cost the same in either order. With every arrival at the
/// same instant this is the batched `max + k · per_child`, and it is never
/// later than that: the charge is the same `k · per_child`, only the waits
/// overlap with the service of earlier arrivals.
pub(super) fn serve_in_arrival_order(
    clock: &mut VirtualClock,
    arrivals: &mut [(VirtualTime, ProcId)],
    per_child: VirtualTime,
) {
    arrivals.sort_unstable();
    for &(arrives_at, _) in arrivals.iter() {
        clock.observe(arrives_at);
        clock.advance(per_child);
    }
}

/// What a node's children sent up, collected before any of it is served.
#[derive(Default)]
struct Arrivals {
    /// Each arrival's virtual arrival time and sender, in host receive order.
    at: Vec<(VirtualTime, ProcId)>,
    /// Every child's write notices, concatenated.
    notices: Vec<WriteNotice>,
    /// Per child, ascending: its id and where its notices lie in `notices`.
    spans: Vec<(ProcId, Range<usize>)>,
    /// Each child's applied timestamp against the previous global one.
    applied: Vec<VtDelta>,
}

/// Folds the children's subtrees into this node's timestamp, under an
/// already-held lock pair whose notice log already holds their notices, and
/// before this barrier replaces `last_global_vt`. Returns each child's
/// subtree timestamp — the previous global timestamp joined with the
/// child's own notices, which is exactly the child's — and the
/// component-wise minimum of this node's applied timestamp and theirs.
fn merge_children_locked(
    proto: &mut ProtoState,
    table: &PageTable,
    arrivals: &Arrivals,
) -> (Vec<(ProcId, Vt)>, Vt) {
    let base = &proto.last_global_vt;
    let children: Vec<(ProcId, Vt)> = arrivals
        .spans
        .iter()
        .map(|(proc, span)| (*proc, vt_through(base, &arrivals.notices[span.clone()])))
        .collect();
    for (_, vt) in &children {
        proto.vt.merge(vt);
    }
    let mut applied = proto.applied_vt(table);
    for delta in &arrivals.applied {
        applied.merge_min(&proto.last_global_vt.patched(delta));
    }
    (children, applied)
}

impl Process {
    /// Global barrier: ends the current interval, exchanges write notices
    /// over the reduction tree rooted at processor 0 (with the flat
    /// topology, through the master) and leaves every processor with the
    /// merged global vector timestamp.
    pub fn barrier(&mut self) {
        let pending = self.barrier_issue(&PhasePlan::default());
        self.sync_phase_complete(pending);
    }

    /// Barrier side of [`sync_phase_issue`](Self::sync_phase_issue):
    /// flushes the interval, crosses the barrier with the plan's page list
    /// piggybacked on the arrival, and then performs the *entire*
    /// post-departure protocol step — write-notice application, serving
    /// the piggybacked requests routed to this processor, write
    /// preparation, mapping caching and the garbage-collection trim — under a
    /// single page-table-lock hold before returning with the receipt.
    ///
    /// Everything that leaves — the merged arrival, the children's
    /// departures, the `SyncDiffs` — is built under those holds from the
    /// notice log and the diff cache, and is sent *before* this node charges
    /// its own invalidation `mprotect`s and write preparation: those model
    /// page-protection changes that no message reads, so a tree node never
    /// makes its subtree (or its parent) wait for work only it needs done.
    /// No charge is added, dropped or resized by that order.
    ///
    /// The exchange runs over the configured [`BarrierTopology`]: notices,
    /// applied timestamps and piggybacked fetch requests merge up the
    /// reduction tree; the root resolves every request to its responders,
    /// and the notices, GC horizon and each subtree's share of the routed
    /// requests fan back down. No whole vector timestamp crosses a hop: the
    /// subtree and global timestamps are rebuilt from the notices of the
    /// same message (see `notice::vt_through`), the applied timestamp and
    /// the horizon travel as deltas against the previous global timestamp.
    /// Every topology runs one schedule: a node serves each child's arrival
    /// as soon as it is there, `per_child` each, and sends each departure
    /// copy as soon as it is built — the first one `per_child` after the
    /// last arrival is served, each further one a broadcast gap later — so
    /// the critical path is O(arity · depth). The topology only supplies
    /// the constants ([`BarrierTopology::shape`]): a tree's polled hop
    /// service (every participant is blocked in the barrier with its
    /// receive pre-posted), or the flat master's arity `n − 1`, per-processor
    /// charge and interrupt path.
    ///
    /// [`BarrierTopology::shape`]: crate::BarrierTopology::shape
    pub(super) fn barrier_issue(&mut self, plan: &PhasePlan) -> PendingSync {
        self.flush_interval();
        self.stats.barriers(1);
        self.barrier_seq += 1;
        let seq = self.barrier_seq;
        let mut pending = Outstanding::new(plan);
        let n = self.nprocs();
        let me = self.proc_id();
        let (arity, per_child, interrupt) = self.barrier;
        let children = tree_children(me, n, arity);
        // This processor's own request: its advertised timestamp, kept
        // whole for resolving the responders below and sent as its
        // difference from the previous barrier's global timestamp.
        let (my_sync_vt, my_request) = if pending.pages.is_empty() {
            (None, None)
        } else {
            let proto = self.node.unleased().proto();
            let vt = sync_vt_locked(&proto, &pending.pages);
            let pages = pending.pages.as_slice().into();
            let request = SyncFetchRequest::new(me, &vt, &proto.last_global_vt, pages);
            (Some(vt), Some(request))
        };

        // --- Reduction: gather the whole subtree's arrivals. Collect every
        // arrival before serving any: the service order is then the
        // arrivals' virtual order, whatever order the host threads
        // delivered them in.
        let mut sync_requests: Vec<SyncFetchRequest> = my_request.into_iter().collect();
        let mut arrivals = Arrivals::default();
        for _ in 0..children.len() {
            let env = self.recv_reply("a child's barrier arrival", |m| {
                matches!(m, TmkMessage::BarrierArrival { .. })
            });
            let TmkMessage::BarrierArrival { proc, applied_vt, notices, sync_requests: reqs } =
                env.payload
            else {
                unreachable!()
            };
            arrivals.at.push((env.arrives_at, proc));
            let start = arrivals.notices.len();
            arrivals.notices.extend(notices);
            arrivals.spans.push((proc, start..arrivals.notices.len()));
            arrivals.applied.push(applied_vt);
            sync_requests.extend(reqs);
        }
        arrivals.spans.sort_by_key(|(proc, _)| *proc);
        serve_in_arrival_order(&mut self.clock, &mut arrivals.at, per_child);

        // --- Non-root: fold the subtree into local state under one hold,
        // send the merged arrival up — first, the whole cluster is waiting
        // for it; this node's own invalidations are charged behind it — and
        // wait for the departure.
        let (departed, subtrees) = if me == MASTER {
            // Route and serve the piggybacked requests in processor order,
            // not arrival order: every processor then answers them at
            // deterministic virtual times, keeping runs reproducible.
            sync_requests.sort_by_key(|r| r.proc);
            (None, Vec::new())
        } else {
            let parent = (me - 1) / arity;
            let (arrival, subtrees, tally, pages_in_use) = {
                let node = self.node.unleased();
                let mut proto = node.proto();
                let mut table = node.table();
                let tally = apply_notices_locked(&mut proto, &mut table, &arrivals.notices);
                let (subtrees, applied) = merge_children_locked(&mut proto, &table, &arrivals);
                let base = &proto.last_global_vt;
                let notices = proto.notice_log.notices_after(base);
                debug_assert!(
                    notices_determine(base, &notices, &proto.vt),
                    "P{me}'s arrival: the notices must determine the subtree's timestamp"
                );
                let msg = TmkMessage::BarrierArrival {
                    proc: me,
                    applied_vt: applied.delta_from(base),
                    notices,
                    sync_requests: std::mem::take(&mut sync_requests),
                };
                (msg, subtrees, tally, table.pages_in_use())
            };
            self.send(parent, Port::Reply, arrival, interrupt);
            self.charge_notices(&tally, pages_in_use);
            let env = self.recv_reply("the barrier departure", |m| {
                matches!(m, TmkMessage::BarrierDeparture { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierDeparture { gc_horizon, notices, sync_requests } = env.payload
            else {
                unreachable!()
            };
            (Some((gc_horizon, notices, sync_requests)), subtrees)
        };

        // --- One lock hold for the whole post-exchange protocol step. ---
        let (tally, prep, departures, served, warmed, trimmed, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            let incoming = departed.as_ref().map_or(&arrivals.notices, |(_, notices, _)| notices);
            let tally = apply_notices_locked(&mut proto, &mut table, incoming);
            // The global timestamp, GC horizon and routed requests:
            // distributed by the parent below the root — the timestamp as
            // this node's own joined with the departure's notices, the
            // horizon against the previous global timestamp, read before it
            // is replaced — and completed at the root itself, whose own
            // applied timestamp closes the component-wise minimum over all
            // processors and whose log is the first to hold every notice the
            // requests are resolved against. The root's own request is
            // resolved in that list; everybody else evaluates the same rule
            // for itself.
            let (subtrees, gc_horizon, horizon_delta, routed) = match departed {
                Some((horizon_delta, notices, routed)) => {
                    let global_vt = vt_through(&proto.vt, &notices);
                    let gc_horizon = proto.last_global_vt.patched(&horizon_delta);
                    proto.vt.clone_from(&global_vt);
                    proto.last_global_vt = global_vt;
                    if let Some(vt) = &my_sync_vt {
                        pending.responders = responders_locked(&proto, &pending.pages, vt);
                    }
                    (subtrees, gc_horizon, horizon_delta, routed)
                }
                None => {
                    let (subtrees, horizon) = merge_children_locked(&mut proto, &table, &arrivals);
                    // The requests and the horizon are encoded against the
                    // previous barrier's global timestamp: take it out as
                    // this barrier's goes in.
                    let global_vt = proto.vt.clone();
                    let base = std::mem::replace(&mut proto.last_global_vt, global_vt);
                    let horizon_delta = horizon.delta_from(&base);
                    let routed = route_requests_locked(&proto, &base, sync_requests);
                    if let Some(own) = routed.iter().find(|entry| entry.proc == me) {
                        pending.responders = own.responders.iter().map(|&(proc, _)| proc).collect();
                    }
                    (subtrees, horizon, horizon_delta, routed)
                }
            };
            let departures = child_departures(&proto, &subtrees, &horizon_delta, &routed, arity);
            let served = serve_requests_locked(&proto, &table, seq, &routed);
            let prep =
                prep_writes_locked(&mut proto, &mut table, plan, true, &mut pending.deferred);
            let warmed = warm_ranges_locked(&mut node, &table, &plan.warm);
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
            let pages_in_use = table.pages_in_use();
            (tally, prep, departures, served, warmed, trimmed, pages_in_use)
        };
        self.stats.gc_trimmed_diffs(trimmed.0);
        self.stats.gc_trimmed_notices(trimmed.1);
        // Critical path first: what other processors wait for leaves before
        // this node charges what only it waits for. The departures and the
        // `SyncDiffs` were built from the notice log and the diff cache
        // under the hold above; the invalidations and the write preparation
        // charged below model page-protection changes none of them reads.
        // Re-fanning the departure down costs one `per_child` service at
        // root and interior nodes alike, then the send-occupancy gap of
        // every further copy — and each copy leaves as soon as it is built:
        // the k-th after `per_child + k · broadcast_extra`, children in
        // ascending id (non-increasing subtree size in the heap layout).
        for (k, (proc, msg)) in departures.into_iter().enumerate() {
            self.clock.advance(if k == 0 { per_child } else { self.cost.broadcast_extra_cost(1) });
            self.send(proc, Port::Reply, msg, interrupt);
        }
        self.send_served(served);
        self.charge_notices(&tally, pages_in_use);
        self.charge_prep(&prep, pages_in_use);
        self.clock.advance(self.cost.barrier_local_cost());
        self.begin_in_flight(SyncKind::Barrier, seq, warmed, pending)
    }

    /// Sends a barrier's replies once the hold that built them is released:
    /// one pass over the diff cache answered every request, so the scan is
    /// charged for the union of their pages this node holds diffs for,
    /// materialised full pages for their encoding.
    fn send_served(&mut self, served: Served) {
        self.clock.advance(self.cost.sync_merge_scan_cost(served.scanned));
        self.clock.advance(self.cost.diff_create_cost(served.materialised));
        for (proc, msg) in served.replies {
            self.send(proc, Port::Reply, msg, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pagedmem::{Diff, PAGE_SIZE};

    use super::*;
    use crate::message::DiffRecord;
    use crate::state::{CachedDiff, DiffEntry};

    /// The subtree of `root` as the closure of [`tree_children`].
    fn descendants(root: ProcId, n: usize, arity: usize) -> Vec<bool> {
        let mut inside = vec![false; n];
        let mut stack = vec![root];
        while let Some(node) = stack.pop() {
            inside[node] = true;
            stack.extend(tree_children(node, n, arity));
        }
        inside
    }

    #[test]
    fn in_subtree_is_the_transitive_closure_of_tree_children() {
        for n in 1..=130usize {
            let flat = (n - 1).max(1);
            for arity in (1..=16).chain([flat]) {
                for root in 0..n {
                    for (proc, inside) in descendants(root, n, arity).into_iter().enumerate() {
                        assert_eq!(
                            in_subtree(proc, root, arity),
                            inside,
                            "P{proc} under P{root}, {n} processors at arity {arity}"
                        );
                    }
                }
            }
        }
    }

    /// The clock of a node at `now` (µs) after [`serve_in_arrival_order`]
    /// over `arrivals` (µs, sender) at 25 µs a child, and its waits.
    fn served(now: u64, arrivals: &[(u64, ProcId)]) -> (VirtualTime, VirtualTime) {
        let mut clock = VirtualClock::new();
        clock.advance(VirtualTime::from_micros(now));
        let mut at: Vec<_> =
            arrivals.iter().map(|&(t, proc)| (VirtualTime::from_micros(t), proc)).collect();
        serve_in_arrival_order(&mut clock, &mut at, VirtualTime::from_micros(25));
        (clock.now(), clock.waited())
    }

    #[test]
    fn a_node_serves_each_arrival_as_soon_as_it_is_there() {
        let us = VirtualTime::from_micros;
        // Staggered by more than a hop: each child is served while the next
        // is still on its way, so the node is done one hop after the last
        // arrival — not arity hops after it, as the batched service was.
        let staggered = [(300, 2), (100, 3), (400, 4), (200, 1)];
        assert_eq!(served(0, &staggered).0, us(400 + 25));
        // Every child at once: the batched value, `max + k · hop`.
        assert_eq!(served(0, &[(100, 1), (100, 2), (100, 3)]).0, us(100 + 3 * 25));
        // The node itself arrives last: its own `now` plus `k · hop`.
        assert_eq!(served(500, &staggered).0, us(500 + 4 * 25));
        // Closer than a hop: the second waits for the first's service.
        assert_eq!(served(0, &[(100, 1), (110, 2)]).0, us(150));
        // No child: nothing to serve.
        assert_eq!(served(70, &[]), (us(70), VirtualTime::ZERO));
    }

    #[test]
    fn tie_order_and_receive_order_do_not_change_the_served_clock() {
        let arrivals = [(100, 1), (100, 2), (90, 3), (100, 4), (240, 5), (240, 6)];
        let expected = served(50, &arrivals);
        for shift in 0..arrivals.len() {
            let mut order = arrivals;
            order.rotate_left(shift);
            assert_eq!(served(50, &order), expected, "rotated by {shift}");
            order.reverse();
            assert_eq!(served(50, &order), expected, "rotated by {shift}, reversed");
        }
        // Relabelling the tied senders changes nothing either.
        let relabelled = [(100, 4), (100, 1), (90, 3), (100, 2), (240, 6), (240, 5)];
        assert_eq!(served(50, &relabelled), expected);
    }

    #[test]
    fn serving_as_arrived_charges_the_batched_service_and_is_never_later() {
        // xorshift64: any fixed sequence will do.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for _ in 0..500 {
            let now = below(300);
            let arrivals: Vec<(u64, ProcId)> =
                (0..1 + below(9) as usize).map(|proc| (below(400), proc)).collect();
            let (done, waited) = served(now, &arrivals);
            let last = arrivals.iter().map(|&(t, _)| t).max().unwrap_or(0).max(now);
            let k = arrivals.len() as u64;
            let batched = VirtualTime::from_micros(last + 25 * k);
            assert!(done <= batched, "{arrivals:?} from {now}: {done:?} after {batched:?}");
            // No charge moved: what is not waiting is exactly `k` services.
            let charged = done - waited - VirtualTime::from_micros(now);
            assert_eq!(charged, VirtualTime::from_micros(25 * k), "{arrivals:?} from {now}");
        }
    }

    /// `(requester, responder, seen)` for every responder `routed` names.
    fn pairs(routed: &[RoutedRequest]) -> Vec<(ProcId, ProcId, Interval)> {
        routed
            .iter()
            .flat_map(|e| {
                e.responders.iter().map(move |&(responder, seen)| (e.proc, responder, seen))
            })
            .collect()
    }

    /// Hands `received` to `me` and on down its subtree, checking at every
    /// node that the entries naming it plus its children's shares are
    /// exactly what it received. Appends what each node would serve.
    fn deliver(
        me: ProcId,
        received: &[RoutedRequest],
        (n, arity): (usize, usize),
        served: &mut Vec<(ProcId, ProcId, Interval)>,
    ) {
        let mut handed_on = Vec::new();
        for entry in received {
            assert!(!entry.responders.is_empty(), "P{me} received an entry nobody answers");
            assert!(entry.responders.is_sorted());
            assert!(entry.responders.iter().all(|&(r, _)| in_subtree(r, me, arity)));
            handed_on.extend(pairs(std::slice::from_ref(entry)).into_iter().filter(|p| p.1 == me));
        }
        served.extend(handed_on.iter().copied());
        for child in tree_children(me, n, arity) {
            let share = subtree_share(received, child, arity);
            for entry in &share {
                let original =
                    received.iter().find(|e| e.proc == entry.proc).expect("not invented");
                assert!(Arc::ptr_eq(&entry.pages, &original.pages), "page lists are shared");
            }
            handed_on.extend(pairs(&share));
            deliver(child, &share, (n, arity), served);
        }
        let mut expected = pairs(received);
        expected.sort_unstable();
        handed_on.sort_unstable();
        assert_eq!(handed_on, expected, "P{me}: own entries plus the children's shares");
    }

    #[test]
    fn a_routed_list_is_partitioned_down_the_tree() {
        // xorshift64: any fixed sequence will do.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n as u64) as usize
        };
        for (n, arity) in [(37, 3), (64, 8), (50, 1), (23, 22), (130, 2), (2, 1)] {
            let mut routed = Vec::new();
            for proc in 0..n {
                let mut responders: Vec<(ProcId, Interval)> = Vec::new();
                for responder in (0..n).filter(|&r| r != proc) {
                    if below(4) == 0 {
                        responders.push((responder, below(9) as Interval));
                    }
                }
                if proc % 5 == 0 {
                    // A request with a single, far-away responder.
                    responders = vec![((proc + n / 2 + 1) % n, 0)];
                }
                if responders.is_empty() || responders[0].0 == proc {
                    continue;
                }
                let pages: Vec<PageId> = (0..1 + below(6)).map(|k| PageId(proc * 8 + k)).collect();
                routed.push(RoutedRequest { proc, pages: pages.into(), responders });
            }
            let mut served = Vec::new();
            deliver(MASTER, &routed, (n, arity), &mut served);
            served.sort_unstable();
            let mut all = pairs(&routed);
            all.sort_unstable();
            assert_eq!(served, all, "every pair is served once, at its responder ({n}/{arity})");
        }
    }

    /// A cluster's protocol states as they stand at a barrier, after the
    /// notices were applied: every log holds every record.
    struct World(Vec<(ProtoState, PageTable)>);

    impl World {
        fn new(n: usize) -> World {
            World((0..n).map(|me| (ProtoState::new(me, n), PageTable::new())).collect())
        }

        /// `node` alone learns that `writer` modified `pages` in `interval`
        /// (a lock grant's notices, ahead of the barrier).
        fn learn(&mut self, node: ProcId, writer: ProcId, interval: Interval, pages: &[usize]) {
            let pages = pages.iter().map(|&p| PageId(p)).collect();
            self.0[node].0.notice_log.record(writer, interval, pages);
        }

        /// `writer` closes `interval` having written `pages` — one cached
        /// diff each, whole pages under `write_all` — and the barrier has
        /// told everybody.
        fn write(&mut self, writer: ProcId, interval: Interval, pages: &[usize], write_all: bool) {
            for &page in pages {
                let mut current = vec![0u8; PAGE_SIZE];
                current[..4].copy_from_slice(&[writer as u8, interval as u8, page as u8, 1]);
                let entry = if write_all {
                    DiffEntry::FullPage
                } else {
                    DiffEntry::Delta(Diff::create(&vec![0u8; PAGE_SIZE], &current))
                };
                let cached = CachedDiff { entry, rank: u64::from(interval), vt: None };
                let proto = &mut self.0[writer].0;
                proto.diff_cache.entry(PageId(page)).or_default().insert(interval, cached);
                proto.vt.advance(writer, interval);
            }
            for node in 0..self.0.len() {
                self.learn(node, writer, interval, pages);
            }
        }
    }

    /// `proc`'s request for `pages`, advertising `seen` (zero elsewhere),
    /// encoded against `base` as it travels.
    fn request(
        base: &Vt,
        proc: ProcId,
        seen: &[(ProcId, Interval)],
        pages: &[usize],
    ) -> SyncFetchRequest {
        let mut vt = Vt::new(base.len());
        for &(p, interval) in seen {
            vt.advance(p, interval);
        }
        let pages = pages.iter().map(|&p| PageId(p)).collect();
        let request = SyncFetchRequest::new(proc, &vt, base, pages);
        assert_eq!(request.vt(base), vt, "the sparse timestamp round-trips");
        request
    }

    /// The broadcast that routing replaced, kept as the reference: every
    /// node examines every request against its own diff cache.
    fn serve_broadcast(
        proto: &ProtoState,
        table: &PageTable,
        base: &Vt,
        requests: &[SyncFetchRequest],
    ) -> Vec<(ProcId, Vec<DiffRecord>)> {
        let mut out = Vec::new();
        for req in requests.iter().filter(|req| req.proc != proto.me) {
            let seen = req.vt(base).get(proto.me);
            let (records, _) =
                proto.diffs_for_pages_after_counted(&req.pages, seen, table, &mut Vec::new());
            if !records.is_empty() {
                out.push((req.proc, records));
            }
        }
        out
    }

    /// Routes `requests` (encoded against `base`) from the root of an
    /// `arity`-ary tree and checks
    /// that every node serves exactly the `(requester, responder, records)`
    /// the broadcast made it serve, and that every requester expects
    /// exactly the processors its request was routed to. Returns the
    /// `(requester, responder)` pairs.
    fn assert_routing_serves_what_the_broadcast_did(
        world: &World,
        base: &Vt,
        requests: &[SyncFetchRequest],
        arity: usize,
    ) -> Vec<(ProcId, ProcId)> {
        let n = world.0.len();
        let mut expected = Vec::new();
        for (proto, table) in &world.0 {
            for (requester, records) in serve_broadcast(proto, table, base, requests) {
                expected.push((requester, proto.me, records));
            }
        }
        let routed = route_requests_locked(&world.0[MASTER].0, base, requests.to_vec());
        for req in requests {
            let own = responders_locked(&world.0[req.proc].0, &req.pages, &req.vt(base));
            let named: HashSet<ProcId> = routed
                .iter()
                .filter(|e| e.proc == req.proc)
                .flat_map(|e| e.responders.iter().map(|&(responder, _)| responder))
                .collect();
            assert_eq!(own, named, "P{} waits for exactly whom it was routed to", req.proc);
        }
        let mut served = Vec::new();
        let mut hops = vec![(MASTER, routed)];
        while let Some((me, received)) = hops.pop() {
            let (proto, table) = &world.0[me];
            for (requester, reply) in serve_requests_locked(proto, table, 1, &received).replies {
                let TmkMessage::SyncDiffs { from, seq: 1, diffs } = reply else {
                    panic!("not a barrier's reply: {reply:?}");
                };
                assert_eq!(from, me);
                served.push((requester, me, diffs));
            }
            for child in tree_children(me, n, arity) {
                hops.push((child, subtree_share(&received, child, arity)));
            }
        }
        let key = |t: &(ProcId, ProcId, Vec<DiffRecord>)| (t.0, t.1);
        expected.sort_by_key(key);
        served.sort_by_key(key);
        assert_eq!(served, expected, "arity {arity}");
        served.iter().map(key).collect()
    }

    #[test]
    fn routed_requests_are_served_exactly_as_the_broadcast_served_them() {
        const N: usize = 7;
        let mut world = World::new(N);
        // False sharing: two writers of one page.
        world.write(1, 1, &[5], false);
        world.write(2, 1, &[5], false);
        // A writer that is the root.
        world.write(0, 1, &[1], false);
        world.write(0, 2, &[1, 2], false);
        // Three intervals of one page, the last a `WRITE_ALL` full page.
        world.write(4, 1, &[9], false);
        world.write(4, 2, &[9], false);
        world.write(4, 3, &[9], true);
        // P6 learned P3's second interval along a lock chain before the
        // barrier brought the first: its log took them out of order.
        world.learn(6, 3, 2, &[12]);
        world.write(3, 1, &[12], false);
        world.write(3, 2, &[12], false);
        // The same advertised timestamps over two encodings: against the
        // zero base of a first barrier, where every component travels, and
        // against a previous global timestamp that P6's request is above in
        // one component (P3's second interval, learned along the lock
        // chain) and lowered below in another (P4's, to just under the diff
        // it still misses). What is routed must not depend on the base.
        let mut later = Vt::new(N);
        for (proc, interval) in [(0, 1), (3, 1), (4, 2)] {
            later.advance(proc, interval);
        }
        let expected: BTreeSet<(ProcId, ProcId)> =
            [(0, 1), (0, 2), (0, 4), (1, 0), (1, 2), (3, 1), (3, 2), (5, 2), (5, 3), (6, 4)].into();
        for base in [Vt::new(N), later] {
            let requests = [
                // The root asks too.
                request(&base, 0, &[], &[5, 9]),
                // Has the root's first interval; never answers itself on
                // page 5.
                request(&base, 1, &[(0, 1)], &[1, 5]),
                // All seen, or never written: nobody answers, nothing is
                // routed.
                request(&base, 2, &[(4, 3)], &[9, 20]),
                // Inside P1's subtree at arity 2 ...
                request(&base, 3, &[], &[5]),
                // ... asking only for its own page ...
                request(&base, 4, &[], &[9]),
                // ... and outside it; already holds P1's share of page 5.
                request(&base, 5, &[(1, 1)], &[5, 12]),
                // Saw all three notices of page 9 but still misses the diff
                // of interval 2, so advertises 1, below the global 3;
                // applied both of P3's on the lock chain.
                request(&base, 6, &[(4, 1), (3, 2)], &[9, 12]),
            ];
            if base.get(4) == 2 {
                assert_eq!(
                    requests[6].delta.entries(),
                    [(0, 0), (3, 2), (4, 1)],
                    "above and below"
                );
                assert_eq!(
                    requests[1].delta.entries(),
                    [(3, 0), (4, 0)],
                    "P0's component is the base's"
                );
            } else {
                assert_eq!(requests[6].delta.entries(), [(3, 2), (4, 1)]);
            }
            for arity in [1, 2, 3, N - 1, 8] {
                let pairs =
                    assert_routing_serves_what_the_broadcast_did(&world, &base, &requests, arity);
                assert_eq!(pairs.into_iter().collect::<BTreeSet<_>>(), expected, "arity {arity}");
            }
        }

        // One processor: nobody to ask. Two: each the other's only peer.
        let mut solo = World::new(1);
        solo.write(0, 1, &[1], false);
        let base = Vt::new(1);
        assert!(assert_routing_serves_what_the_broadcast_did(
            &solo,
            &base,
            &[request(&base, 0, &[], &[1])],
            1
        )
        .is_empty());
        let mut pair = World::new(2);
        pair.write(0, 1, &[1], false);
        pair.write(1, 1, &[2], true);
        let base = Vt::new(2);
        let requests = [request(&base, 0, &[], &[2]), request(&base, 1, &[], &[1, 2])];
        let pairs = assert_routing_serves_what_the_broadcast_did(&pair, &base, &requests, 1);
        assert_eq!(pairs, [(0, 1), (1, 0)]);
    }

    fn routed_of(msg: &TmkMessage) -> &[RoutedRequest] {
        match msg {
            TmkMessage::BarrierDeparture { sync_requests, .. } => sync_requests,
            other => panic!("not a departure: {other:?}"),
        }
    }

    #[test]
    fn an_interior_node_forwards_each_child_its_subtrees_share() {
        // P1 of seven at arity 2: children P3 and P4, both leaves.
        const N: usize = 7;
        let mut proto = ProtoState::new(1, N);
        proto.notice_log.record(0, 1, vec![PageId(3)]);
        proto.last_global_vt.advance(0, 1);
        let entry = |proc, pages: &[usize], responders: &[(ProcId, Interval)]| RoutedRequest {
            proc,
            pages: pages.iter().map(|&p| PageId(p)).collect(),
            responders: responders.to_vec(),
        };
        let received = [
            entry(0, &[8], &[(1, 1)]),
            entry(5, &[3, 7], &[(1, 0), (3, 0)]),
            entry(6, &[7], &[(4, 2)]),
        ];
        let children = [(3, Vt::new(N)), (4, proto.last_global_vt.clone())];
        let departures = child_departures(&proto, &children, &VtDelta::default(), &received, 2);
        assert_eq!(departures.iter().map(|(child, _)| *child).collect::<Vec<_>>(), [3, 4]);
        // Each leaf is told of the one request it answers, naming it alone;
        // the request only P1 itself answers goes no further.
        let (to_3, to_4) = (routed_of(&departures[0].1), routed_of(&departures[1].1));
        assert_eq!(to_3, [entry(5, &[3, 7], &[(3, 0)])]);
        assert_eq!(to_4, [entry(6, &[7], &[(4, 2)])]);
        assert!(Arc::ptr_eq(&to_3[0].pages, &received[1].pages), "shared, not copied");
        // What also differs per child is what its timestamp misses.
        let notices = |msg: &TmkMessage| match msg {
            TmkMessage::BarrierDeparture { notices, .. } => notices.len(),
            _ => unreachable!(),
        };
        assert_eq!((notices(&departures[0].1), notices(&departures[1].1)), (1, 0));
    }

    #[test]
    fn a_leaf_departure_at_64_processors_carries_a_handful_of_entries() {
        // The jacobi pattern on the adaptive arity-8 tree of 64 processors:
        // everybody wrote the two pages of its block and asks either
        // neighbour for the adjoining one. Only the root's log matters.
        const N: usize = 64;
        const ARITY: usize = 8;
        let mut proto = ProtoState::new(MASTER, N);
        for writer in 0..N {
            proto.notice_log.record(writer, 1, vec![PageId(2 * writer), PageId(2 * writer + 1)]);
            proto.last_global_vt.advance(writer, 1);
        }
        // The first barrier: nothing to encode against yet.
        let first = Vt::new(N);
        let requests: Vec<SyncFetchRequest> = (0..N)
            .map(|proc| {
                let left = (2 * proc).checked_sub(1);
                let right = (proc + 1 < N).then_some(2 * proc + 2);
                let pages: Vec<usize> = left.into_iter().chain(right).collect();
                request(&first, proc, &[(proc, 1)], &pages)
            })
            .collect();
        // On the way up a request names the one component in which it
        // differs from the base — its own — not all 64.
        let up: usize = requests.iter().map(|request| request.wire_bytes(N)).sum();
        assert_eq!(up, N * (8 + 8) + 4 * (2 * N - 2));
        let whole_timestamps = N * (4 + first.wire_bytes()) + 4 * (2 * N - 2);
        let routed = route_requests_locked(&proto, &first, requests);
        assert_eq!(routed.len(), N);
        // A child that has seen nothing: its departure carries every notice.
        let nothing = Vt::new(N);
        let mut leaves = 0;
        for child in tree_children(MASTER, N, ARITY) {
            let share = subtree_share(&routed, child, ARITY);
            for leaf in tree_children(child, N, ARITY) {
                assert!(tree_children(leaf, N, ARITY).is_empty());
                let children = [(leaf, nothing.clone())];
                let departures =
                    child_departures(&proto, &children, &VtDelta::default(), &share, ARITY);
                let departure = &departures[0].1;
                assert!(routed_of(departure).len() <= 2, "its two neighbours' requests");
                let bytes = departure.wire_bytes(N);
                assert!(bytes <= 4096, "{bytes} bytes to leaf P{leaf}");
                leaves += 1;
            }
        }
        assert_eq!(leaves, N - 1 - ARITY);
        assert!(
            whole_timestamps > 4 * 4096 && up < whole_timestamps / 10,
            "the requests as broadcast down and sent up whole: {whole_timestamps} bytes"
        );
    }
}
