//! Barriers: the global barrier — plain, carrying a merged fetch, or
//! carrying a reduction — over the configured reduction tree.

use std::cmp::{Ordering, Reverse};
use std::ops::Range;
use std::sync::Arc;

use msgnet::Port;
use pagedmem::{AddrRange, PageId, PageTable};
use racecheck::SyncKind;
use sp2model::{VirtualClock, VirtualTime};

use super::interval::{apply_notices_locked, sync_vt_locked, NoticeTally};
use super::sync::{prep_writes_locked, Outstanding, PhasePlan};
use super::{Process, SyncOp};
use crate::message::{RoutedRequest, SyncFetchRequest, TmkMessage};
use crate::notice::{notices_determine, raise_through, NoticeRecord, Segment};
use crate::state::ProtoState;
use crate::types::{Interval, ProcId, Vt, VtDelta};

/// The barrier root (the paper assigns the distinguished roles to
/// processor 0): the root of the reduction tree, and with the flat topology
/// the master every arrival goes to.
const MASTER: ProcId = 0;

/// The children of `me` in an `arity`-ary barrier tree over `n` processors
/// (node `i`'s children are `i·arity+1 ..= i·arity+arity`, the k-ary heap
/// layout). The flat topology is the degenerate tree of arity `n - 1`:
/// every other processor is a direct child of the master.
fn tree_children(me: ProcId, n: usize, arity: usize) -> Range<ProcId> {
    let first = me * arity + 1;
    first.min(n)..n.min(first.saturating_add(arity))
}

/// Whether `proc` lies in the subtree rooted at `root` of the `arity`-ary
/// barrier tree: heap parents have smaller ids, so walking `proc` up until
/// it is no longer above `root` either lands on `root` or has passed it.
fn in_subtree(mut proc: ProcId, root: ProcId, arity: usize) -> bool {
    while proc > root {
        proc = (proc - 1) / arity;
    }
    proc == root
}

/// A sparse partial or total: `(word, value)` pairs ascending by word, no
/// value zero.
type Words = Vec<(u32, u64)>;

/// The wrapping sum of two sparse word lists, zero sums left out. The
/// result depends only on the two sums, so a node that adds its children's
/// arrivals in whatever order the host delivered them builds the same list.
fn add(a: &[(u32, u64)], b: &[(u32, u64)]) -> Words {
    let mut out = Vec::with_capacity(a.len().max(b.len()));
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&&(wa, va)), Some(&&(wb, vb))) => match wa.cmp(&wb) {
                Ordering::Less => a.next().copied(),
                Ordering::Greater => b.next().copied(),
                Ordering::Equal => {
                    a.next();
                    b.next();
                    Some((wa, va.wrapping_add(vb)))
                }
            },
            (Some(_), None) => a.next().copied(),
            (None, _) => b.next().copied(),
        };
        match next {
            Some(pair) if pair.1 != 0 => out.push(pair),
            Some(_) => {}
            None => return out,
        }
    }
}

/// The word indices of `section` that `ranges` cover, coalesced (a word
/// covered in part counts).
fn word_ranges<'a>(
    section: AddrRange,
    ranges: impl IntoIterator<Item = &'a AddrRange>,
) -> Vec<Range<usize>> {
    let base = section.start().as_usize();
    let inside = ranges.into_iter().filter_map(|r| r.intersect(&section)).collect();
    AddrRange::coalesce(inside)
        .into_iter()
        .map(|r| (r.start().as_usize() - base) / 8..(r.end().as_usize() - base).div_ceil(8))
        .collect()
}

/// The pairs of `words` inside `ranges` (ascending and disjoint).
fn within(words: &[(u32, u64)], ranges: &[Range<usize>]) -> Words {
    let mut ranges = ranges.iter().peekable();
    words
        .iter()
        .copied()
        .filter(|&(word, _)| {
            let word = word as usize;
            while ranges.next_if(|r| r.end <= word).is_some() {}
            ranges.peek().is_some_and(|r| r.start <= word)
        })
        .collect()
}

/// The reduction a barrier carries (see [`Process::reduce_add`]): the
/// section whose `u64` words are summed, what every processor reads of it,
/// and the words this node holds — its own partial, then its subtree's sum,
/// then the totals its subtree reads.
pub(super) struct Reduction<'a> {
    section: AddrRange,
    wants: &'a [Vec<AddrRange>],
    words: Words,
}

impl Reduction<'_> {
    /// The pairs of the held totals that the processors `reads` picks read.
    fn read_by(&self, reads: impl Fn(ProcId) -> bool) -> Words {
        let wanted = (0..self.wants.len()).filter(|&q| reads(q)).flat_map(|q| &self.wants[q]);
        within(&self.words, &word_ranges(self.section, wanted))
    }

    /// Adds the totals this node reads into its copy of the section as raw
    /// bytes, the way a push installs, under an already-held lock pair: no
    /// twin, diff or notice is made.
    fn install_locked(&self, proto: &mut ProtoState, table: &mut PageTable) {
        for (word, total) in self.read_by(|q| q == proto.me) {
            let addr = self.section.start().offset(8 * word as usize);
            let mut bytes = [0u8; 8];
            table.read_bytes(addr, &mut bytes);
            let value = u64::from_le_bytes(bytes).wrapping_add(total);
            proto.install_raw(table, addr, &value.to_le_bytes());
        }
    }
}

/// The barrier root's resolution of the piggybacked requests (in requester
/// order), under an already-held proto lock and against the now complete
/// notice log: each request becomes the processors that will answer it —
/// every other processor with a recorded modification of a requested page
/// above the advertised timestamp. Every requester waits for the
/// responders its own entry names. The root is the first node to hold all
/// requests and all notices, and its log agrees with everybody's at this
/// point: the same notices applied, the same horizon trimmed at the last
/// barrier, and no advertised component below that horizon — so it answers
/// as each requester's own log would (tests hold it to that). A request
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
    let Some(first) = requests.first() else { return Vec::new() };
    let mut floor = first.vt(base);
    // Per wanted page its requester, or `None` for more than one.
    let mut wanted: Vec<(PageId, Option<ProcId>)> =
        Vec::with_capacity(requests.iter().map(|req| req.pages.len()).sum());
    for req in &requests {
        floor.merge_min_patched(base, &req.delta);
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
    for record in proto.notice_log.records_after(&floor) {
        for &page in record.pages.iter() {
            let Ok(at) = wanted.binary_search_by_key(&page, |&(wanted, _)| wanted) else {
                continue;
            };
            if wanted[at].1 != Some(record.proc) {
                writers.push((page, record.proc, Reverse(record.interval)));
            }
        }
    }
    writers.sort_unstable();
    writers.dedup_by_key(|&mut (page, proc, _)| (page, proc));
    let (mut routed, mut vt) = (Vec::with_capacity(requests.len()), floor);
    for SyncFetchRequest { proc, pages, delta } in requests {
        vt.clone_from(base);
        vt.patch(&delta);
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

/// Wire bytes of the share of `routed` that goes down to `child`: the
/// entries with a responder inside the child's subtree, each naming only
/// those responders. Pure heap arithmetic — only the root ever looks
/// anything up.
fn share_bytes(routed: &[RoutedRequest], child: ProcId, arity: usize) -> usize {
    let share = routed.iter().filter_map(|entry| {
        let inside = entry.responders.iter().filter(|r| in_subtree(r.0, child, arity)).count();
        (inside > 0).then(|| entry.wire_bytes(inside))
    });
    share.sum()
}

/// The `SyncDiffs` replies a barrier owes its requesters, built under the
/// hold and sent after it by [`Process::send_served`].
struct Served {
    /// Per requester, in request order, its reply.
    replies: Vec<(ProcId, TmkMessage)>,
    /// Distinct pages examined: requested pages this node holds diffs for
    /// (non-owned pages cost one index probe, not a range scan).
    scanned: usize,
    /// Distinct `(page, interval)` encodings the replies ship: the pass
    /// pays for each once, however many requesters it goes to.
    encodings: usize,
}

/// Answers the piggybacked fetch requests routed to this node — the entries
/// that name it — from the local diff cache, under an already-held lock
/// pair: for each, the diffs this node created for the requested pages newer
/// than the interval the entry names, on one `SyncDiffs`. The whole barrier
/// is served in one pass, so each examined page and each encoding is
/// charged once no matter how many requests name it.
fn serve_requests_locked(
    proto: &ProtoState,
    table: &PageTable,
    routed: &[RoutedRequest],
) -> Served {
    let seen_by_me = |entry: &RoutedRequest| {
        entry.responders.iter().find(|&&(proc, _)| proc == proto.me).map(|&(_, seen)| seen)
    };
    let mine = || routed.iter().filter_map(|entry| Some((entry, seen_by_me(entry)?)));
    // Sized for a diff a requested page, the common case.
    let pages = mine().map(|(entry, _)| entry.pages.len()).sum();
    let (mut examined, mut shipped) = (Vec::with_capacity(pages), Vec::with_capacity(pages));
    let mut replies = Vec::with_capacity(mine().count());
    replies.extend(mine().map(|(entry, seen)| {
        let (requester, pages) = (entry.proc, &entry.pages[..]);
        let diffs = proto.diffs_for_pages_after(pages, seen, table, &mut examined);
        shipped.extend(diffs.iter().map(|r| (r.page, r.interval)));
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
        (requester, TmkMessage::SyncDiffs { from: proto.me, diffs })
    }));
    examined.sort_unstable();
    examined.dedup();
    shipped.sort_unstable();
    shipped.dedup();
    Served { replies, scanned: examined.len(), encodings: shipped.len() }
}

/// Builds the barrier departure of each child of this node, under an
/// already-held proto lock: each shares the barrier's notice `batch`, GC
/// horizon and `routed` requests, and is charged for the records the
/// child's subtree timestamp misses and the requests its subtree answers;
/// it carries the reduction totals the subtree reads. The global timestamp
/// does not travel: the child rebuilds it from its own timestamp and the
/// batch, which debug builds check here, at the sender.
fn child_departures(
    proto: &ProtoState,
    children: &[(ProcId, Vt)],
    gc_horizon: &Arc<VtDelta>,
    batch: &Arc<[NoticeRecord]>,
    routed: &Arc<[RoutedRequest]>,
    reduction: Option<&Reduction>,
    arity: usize,
) -> Vec<(ProcId, TmkMessage)> {
    children
        .iter()
        .map(|(proc, vt)| {
            debug_assert!(
                notices_determine(vt, batch, &proto.last_global_vt),
                "P{}'s departure to P{proc}: the notices must determine the global timestamp",
                proto.me,
            );
            let unseen = batch.iter().filter(|r| r.interval > vt.get(r.proc));
            let msg = TmkMessage::BarrierDeparture {
                gc_horizon: Arc::clone(gc_horizon),
                notices: Arc::clone(batch),
                notice_bytes: unseen.map(NoticeRecord::wire_bytes).sum(),
                sync_requests: Arc::clone(routed),
                request_bytes: share_bytes(routed, *proc, arity),
                words: reduction
                    .map_or_else(Vec::new, |r| r.read_by(|q| in_subtree(q, *proc, arity))),
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
fn serve_in_arrival_order(
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
    /// Per child, ascending by id: its id and its notice records, its log's
    /// records above the previous global timestamp (so in that log's order).
    notices: Vec<(ProcId, Vec<NoticeRecord>)>,
    /// Each child's applied timestamp against the previous global one.
    applied: Vec<VtDelta>,
}

/// Buffers every barrier rebuilds: each child's subtree timestamp, and this
/// node's applied timestamp — the GC horizon once the departure brings it.
#[derive(Debug, Default)]
pub(super) struct Buffers {
    subtrees: Vec<(ProcId, Vt)>,
    horizon: Vt,
}

/// Applies the children's notice records, each child's list a segment in
/// child order, which folds their subtrees into this node's timestamp, under
/// an already-held lock pair and before this barrier replaces
/// `last_global_vt`. Leaves in `buffers` each child's subtree timestamp (the
/// previous global one joined with the child's own records) and the
/// component-wise minimum of this node's applied timestamp and theirs;
/// returns the tally.
fn fold_arrivals_locked(
    proto: &mut ProtoState,
    table: &mut PageTable,
    arrivals: &mut Arrivals,
    buffers: &mut Buffers,
) -> NoticeTally {
    let Buffers { subtrees, horizon } = buffers;
    subtrees.resize_with(arrivals.notices.len(), Default::default);
    for ((proc, notices), (child, vt)) in arrivals.notices.iter().zip(subtrees.iter_mut()) {
        *child = *proc;
        vt.clone_from(&proto.last_global_vt);
        raise_through(vt, notices);
    }
    let segments = arrivals.notices.drain(..).map(|(_, notices)| Segment::Owned(notices));
    let tally = apply_notices_locked(proto, table, segments);
    proto.applied_vt(table, horizon);
    for delta in &arrivals.applied {
        horizon.merge_min_patched(&proto.last_global_vt, delta);
    }
    tally
}

impl Process {
    /// Global barrier: ends the current interval, exchanges write notices
    /// over the reduction tree rooted at processor 0 (with the flat
    /// topology, through the master) and leaves every processor with the
    /// merged global vector timestamp.
    pub fn barrier(&mut self) {
        self.sync_phase(SyncOp::Barrier, &PhasePlan::default(), |_| {});
    }

    /// The run-time primitive underneath a compiled reduction: sums every
    /// processor's `partial` — one `u64` per word of `section`, added with
    /// wrapping addition — and adds to this processor's copy of `section`
    /// the totals of the words `wants[me]` covers.
    ///
    /// It is one barrier that ends no interval, with the reduction as one
    /// more field of its messages — one walk of the tree. The partials ride
    /// the arrivals up as `(word, delta)` pairs of their nonzero words,
    /// summed at every hop, so the root holds the totals. They come back
    /// down on the departures cut by subtree, the way the routed requests
    /// are: a departure carries only the totals of the words its subtree's
    /// processors want — a reduce-scatter, not an allreduce. Each node adds
    /// its own words into its copy as raw bytes inside the barrier's
    /// departure hold, the way a push installs: no twin, diff or notice is
    /// made. The hops, the local cost and the wire charges are the
    /// barrier's own.
    ///
    /// **Contract:** every processor calls it with the same `section` and
    /// `wants`, like any collective, and the addition is the only update
    /// the words see between reductions — nothing else writes them, and
    /// nothing flushes an interval that could ship them as a diff. Every
    /// processor's copy of a wanted word then holds its initial value plus
    /// every total so far, which is the value.
    ///
    /// # Panics
    ///
    /// Panics if `partial` does not hold one word per word of `section` or
    /// `wants` does not name every processor.
    pub fn reduce_add(&mut self, section: AddrRange, partial: &[u64], wants: &[Vec<AddrRange>]) {
        assert_eq!(section.len(), 8 * partial.len(), "one partial word per word of the section");
        assert_eq!(wants.len(), self.nprocs(), "what every processor reads");
        let words = (0u32..).zip(partial.iter().copied()).filter(|&(_, delta)| delta != 0);
        let reduction = Reduction { section, wants, words: words.collect() };
        let issue = |p: &mut Process| p.barrier_issue(&PhasePlan::default(), Some(reduction));
        self.synchronize(SyncKind::Barrier, issue, |_| {});
    }

    /// Barrier side of [`sync_phase`](Self::sync_phase)'s issue:
    /// flushes the interval, crosses the barrier with the plan's page list
    /// piggybacked on the arrival, and then performs the *entire*
    /// post-departure protocol step — write-notice application, serving
    /// the piggybacked requests routed to this processor, write
    /// preparation, the garbage-collection trim and a reduction's install
    /// — under a single page-table-lock hold before returning what is
    /// still outstanding.
    ///
    /// With a `reduction` ([`reduce_add`](Self::reduce_add)) no interval
    /// ends: the barrier carries the reduction's words, and everything else
    /// it exchanges is what an interval-free barrier exchanges.
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
    /// applied timestamps, piggybacked fetch requests and a reduction's
    /// words merge up the reduction tree; the root resolves every request
    /// to its responders, and the notices, GC horizon and each subtree's
    /// share of the routed requests and of the totals fan back down. No
    /// whole vector timestamp crosses a hop: the subtree and global
    /// timestamps are rebuilt from the notices of the same message (see
    /// `notice::raise_through`), the applied timestamp and the horizon travel
    /// as deltas against the previous global timestamp.
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
    pub(super) fn barrier_issue(
        &mut self,
        plan: &PhasePlan,
        mut reduction: Option<Reduction>,
    ) -> Outstanding {
        if reduction.is_none() {
            self.flush_interval();
        }
        self.stats.barriers(1);
        let mut pending = Outstanding::new(plan);
        let n = self.nprocs();
        let me = self.proc_id();
        let (arity, per_child, interrupt) = self.barrier;
        let children = tree_children(me, n, arity);
        // This processor's own request: its advertised timestamp, sent as
        // its difference from the previous barrier's global timestamp.
        let my_request = (!pending.pages.is_empty()).then(|| {
            let mut proto = self.node.proto.lock();
            let vt = sync_vt_locked(&mut proto, &pending.pages);
            let pages = pending.pages.as_slice().into();
            SyncFetchRequest::new(me, &vt, &proto.last_global_vt, pages)
        });

        // --- Up the tree: gather the whole subtree's arrivals. Collect every
        // arrival before serving any: the service order is then the
        // arrivals' virtual order, whatever order the host threads
        // delivered them in.
        let mut sync_requests: Vec<SyncFetchRequest> = my_request.into_iter().collect();
        let mut arrivals = Arrivals::default();
        for _ in 0..children.len() {
            let env = self.recv_reply("a child's barrier arrival", |m| {
                matches!(m, TmkMessage::BarrierArrival { .. })
            });
            let TmkMessage::BarrierArrival {
                proc,
                applied_vt,
                notices,
                sync_requests: reqs,
                words,
            } = env.payload
            else {
                unreachable!()
            };
            arrivals.at.push((env.arrives_at, proc));
            arrivals.notices.push((proc, notices));
            arrivals.applied.push(applied_vt);
            sync_requests.extend(reqs);
            if let Some(reduction) = reduction.as_mut() {
                reduction.words = add(&reduction.words, &words);
            }
        }
        arrivals.notices.sort_by_key(|(proc, _)| *proc);
        serve_in_arrival_order(&mut self.clock, &mut arrivals.at, per_child);

        // --- Non-root: fold the subtree into local state under one hold,
        // send the merged arrival up — first, the whole cluster is waiting
        // for it; this node's own invalidations are charged behind it — and
        // wait for the departure.
        let departed = if me == MASTER {
            // Route and serve the piggybacked requests in processor order,
            // not arrival order: every processor then answers them at
            // deterministic virtual times, keeping runs reproducible.
            sync_requests.sort_by_key(|r| r.proc);
            None
        } else {
            let parent = (me - 1) / arity;
            let (arrival, tally, pages_in_use) = {
                let mut proto = self.node.proto.lock();
                let mut table = self.node.lock_table();
                let buffers = &mut self.buffers;
                let tally = fold_arrivals_locked(&mut proto, &mut table, &mut arrivals, buffers);
                let base = &proto.last_global_vt;
                let notices = proto.notice_log.clone_after(base);
                debug_assert!(
                    notices_determine(base, &notices, &proto.vt),
                    "P{me}'s arrival: the notices must determine the subtree's timestamp"
                );
                let msg = TmkMessage::BarrierArrival {
                    proc: me,
                    applied_vt: buffers.horizon.delta_from(base),
                    notices,
                    sync_requests: std::mem::take(&mut sync_requests),
                    words: reduction
                        .as_mut()
                        .map(|r| std::mem::take(&mut r.words))
                        .unwrap_or_default(),
                };
                (msg, tally, table.pages_in_use())
            };
            self.send(parent, Port::Reply, arrival, interrupt);
            self.charge_notices(&tally, pages_in_use);
            let env = self.recv_reply("the barrier departure", |m| {
                matches!(m, TmkMessage::BarrierDeparture { .. })
            });
            self.clock.observe(env.arrives_at);
            let TmkMessage::BarrierDeparture { gc_horizon, notices, sync_requests, words, .. } =
                env.payload
            else {
                unreachable!()
            };
            if let Some(reduction) = reduction.as_mut() {
                reduction.words = words;
            }
            Some((gc_horizon, notices, sync_requests))
        };

        // --- One lock hold for the whole post-exchange protocol step. ---
        let (tally, prep, departures, served, trimmed, pages_in_use) = {
            let mut proto = self.node.proto.lock();
            let mut table = self.node.lock_table();
            let buffers = &mut self.buffers;
            // The notices: the departure's batch below the root, the
            // arrivals' at the root, which builds the batch every departure
            // shares. The global timestamp, GC horizon and routed requests:
            // distributed by the parent below the root — the timestamp as
            // this node's own joined with the departure's notices, the
            // horizon against the previous global timestamp, read before it
            // is replaced — and completed at the root itself, whose own
            // applied timestamp closes the component-wise minimum over all
            // processors and whose log is the first to hold every notice the
            // requests are resolved against. Every requester, the root
            // included, waits for the responders its own entry names.
            let (tally, horizon_delta, batch, routed) = match departed {
                Some((horizon_delta, batch, routed)) => {
                    let shared = Segment::Shared(Arc::clone(&batch));
                    let tally = apply_notices_locked(&mut proto, &mut table, [shared]);
                    buffers.horizon.clone_from(&proto.last_global_vt);
                    buffers.horizon.patch(&horizon_delta);
                    let proto = &mut *proto;
                    proto.last_global_vt.clone_from(&proto.vt);
                    (tally, horizon_delta, batch, routed)
                }
                None => {
                    let tally =
                        fold_arrivals_locked(&mut proto, &mut table, &mut arrivals, buffers);
                    // The requests and the horizon are encoded against the
                    // previous barrier's global timestamp: take it out as
                    // this barrier's goes in.
                    let global_vt = proto.vt.clone();
                    let base = std::mem::replace(&mut proto.last_global_vt, global_vt);
                    let horizon_delta = Arc::new(buffers.horizon.delta_from(&base));
                    let batch = proto.notice_log.records_after(&base).cloned().collect();
                    let routed: Arc<[RoutedRequest]> =
                        route_requests_locked(&proto, &base, sync_requests).into();
                    (tally, horizon_delta, batch, routed)
                }
            };
            if let Some(own) = routed.iter().find(|entry| entry.proc == me) {
                pending.responders = own.responders.iter().map(|&(proc, _)| proc).collect();
            }
            let departures = child_departures(
                &proto,
                &buffers.subtrees,
                &horizon_delta,
                &batch,
                &routed,
                reduction.as_ref(),
                arity,
            );
            let served = serve_requests_locked(&proto, &table, &routed);
            let prep = prep_writes_locked(&mut proto, &mut table, plan, &mut pending.deferred);
            // Trim last, after every request of this synchronization point
            // has been served from the pre-trim state. The horizon can
            // never exceed the global VT in any component (applied
            // timestamps are bounded by real ones), which the adversarial
            // GC tests pin.
            debug_assert!(
                proto.last_global_vt.covers(&buffers.horizon),
                "the GC horizon must stay at or below the global VT"
            );
            let trimmed = proto.gc_trim(&buffers.horizon, &pending.pages);
            if let Some(reduction) = &reduction {
                reduction.install_locked(&mut proto, &mut table);
            }
            let pages_in_use = table.pages_in_use();
            (tally, prep, departures, served, trimmed, pages_in_use)
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
        pending
    }

    /// Sends a barrier's replies once the hold that built them is released:
    /// one pass over the diff cache answered every request, so the scan is
    /// charged for the union of their pages this node holds diffs for, and
    /// the encodings for the union of the diffs they ship.
    fn send_served(&mut self, served: Served) {
        self.stats.diffs_created(served.encodings as u64);
        self.clock.advance(self.cost.sync_merge_scan_cost(served.scanned));
        self.clock.advance(self.cost.diff_create_cost(served.encodings));
        for (proc, msg) in served.replies {
            self.send(proc, Port::Reply, msg, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use pagedmem::{Addr, Page};

    use super::*;
    use crate::message::DiffRecord;
    use crate::state::{CachedDiff, Delta, DiffEntry};

    /// The processors that will answer a node's own piggybacked request with
    /// a `SyncDiffs` message, as its own log says, ascending: every other
    /// processor with a recorded modification of a requested page above the
    /// advertised timestamp sends exactly one. The log yields its records in
    /// processor order, so a processor already named is the last one named.
    fn responders_locked(proto: &ProtoState, pages: &[PageId], vt: &Vt) -> Vec<ProcId> {
        debug_assert!(pages.is_sorted(), "every caller sorts its page list");
        let mut responders = Vec::new();
        for record in proto.notice_log.records_after(vt) {
            if record.proc != proto.me
                && responders.last() != Some(&record.proc)
                && record.pages.iter().any(|page| pages.binary_search(page).is_ok())
            {
                responders.push(record.proc);
            }
        }
        responders
    }

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

    /// The share of `routed` a departure to `child` is charged for: the
    /// entries with a responder inside the child's subtree, naming only
    /// those responders (what departures carried before they shared the
    /// root's list).
    fn subtree_share(routed: &[RoutedRequest], child: ProcId, arity: usize) -> Vec<RoutedRequest> {
        let share = routed.iter().map(|entry| RoutedRequest {
            responders: entry
                .responders
                .iter()
                .copied()
                .filter(|&(responder, _)| in_subtree(responder, child, arity))
                .collect(),
            ..entry.clone()
        });
        share.filter(|entry| !entry.responders.is_empty()).collect()
    }

    /// Wire bytes of `share`'s entries.
    fn bytes_of(share: &[RoutedRequest]) -> usize {
        share.iter().map(|entry| entry.wire_bytes(entry.responders.len())).sum()
    }

    /// Hands the root's `routed` list to `me` and on down its subtree,
    /// checking at every node that the entries naming it plus its
    /// children's shares are exactly its own share, `received`, and that
    /// each child is charged its share's bytes. Appends what each node
    /// serves: the entries of the whole list that name it.
    fn deliver(
        me: ProcId,
        routed: &[RoutedRequest],
        received: &[RoutedRequest],
        (n, arity): (usize, usize),
        served: &mut Vec<(ProcId, ProcId, Interval)>,
    ) {
        let mut handed_on = Vec::new();
        for entry in received {
            assert!(!entry.responders.is_empty(), "P{me} is charged an entry nobody answers");
            assert!(entry.responders.is_sorted());
            assert!(entry.responders.iter().all(|&(r, _)| in_subtree(r, me, arity)));
            handed_on.extend(pairs(std::slice::from_ref(entry)).into_iter().filter(|p| p.1 == me));
        }
        let own: Vec<_> = pairs(routed).into_iter().filter(|p| p.1 == me).collect();
        assert_eq!(own, handed_on, "P{me} serves its own entries of the whole list");
        served.extend(own);
        for child in tree_children(me, n, arity) {
            let share = subtree_share(received, child, arity);
            assert_eq!(share_bytes(routed, child, arity), bytes_of(&share), "P{child}'s charge");
            handed_on.extend(pairs(&share));
            deliver(child, routed, &share, (n, arity), served);
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
            deliver(MASTER, &routed, &routed, (n, arity), &mut served);
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
            self.0[node].0.notice_log.record(NoticeRecord { proc: writer, interval, pages });
        }

        /// `writer` closes `interval` having written `pages` — one cached
        /// diff each, whole pages under `write_all` — and the barrier has
        /// told everybody who did not know.
        fn write(&mut self, writer: ProcId, interval: Interval, pages: &[usize], write_all: bool) {
            let mut diffs = Vec::new();
            for &page in pages {
                let mut current = Page::zeroed();
                let stamp = [writer as u8, interval as u8, page as u8, 1];
                current.as_mut_slice()[..4].copy_from_slice(&stamp);
                let entry = if write_all {
                    DiffEntry::FullPage
                } else {
                    DiffEntry::Delta(Delta::new(Page::zeroed(), current))
                };
                diffs.push(CachedDiff { entry, rank: u64::from(interval), vt: None });
            }
            let proto = &mut self.0[writer].0;
            proto.cache_diffs(interval, pages.iter().map(|&p| PageId(p)).collect(), diffs);
            proto.vt.advance(writer, interval);
            for node in 0..self.0.len() {
                if !self.0[node].0.notice_log.contains(writer, interval) {
                    self.learn(node, writer, interval, pages);
                }
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
        let mut vt = Vt::new(base.width());
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
            let records = proto.diffs_for_pages_after(&req.pages, seen, table, &mut Vec::new());
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
            let named: Vec<ProcId> = routed
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
            for (requester, reply) in serve_requests_locked(proto, table, &received).replies {
                let TmkMessage::SyncDiffs { from, diffs } = reply else {
                    panic!("not a barrier's reply: {reply:?}");
                };
                assert_eq!(from, me);
                served.push((requester, me, diffs));
            }
            for child in tree_children(me, n, arity) {
                hops.push((child, received.clone()));
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
        // P6 learned P3's two intervals along a lock chain before the
        // barrier brought them.
        world.learn(6, 3, 1, &[12]);
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

    /// A departure's shared list and the bytes it is charged for it.
    fn routed_of(msg: &TmkMessage) -> (&Arc<[RoutedRequest]>, usize) {
        match msg {
            TmkMessage::BarrierDeparture { sync_requests, request_bytes, .. } => {
                (sync_requests, *request_bytes)
            }
            other => panic!("not a departure: {other:?}"),
        }
    }

    #[test]
    fn an_interior_node_forwards_each_child_its_subtrees_share() {
        // P1 of seven at arity 2: children P3 and P4, both leaves.
        const N: usize = 7;
        let mut proto = ProtoState::new(1, N);
        proto.notice_log.record(NoticeRecord { proc: 0, interval: 1, pages: [PageId(3)].into() });
        proto.last_global_vt.advance(0, 1);
        let entry = |proc, pages: &[usize], responders: &[(ProcId, Interval)]| RoutedRequest {
            proc,
            pages: pages.iter().map(|&p| PageId(p)).collect(),
            responders: responders.to_vec(),
        };
        let received: Arc<[RoutedRequest]> = [
            entry(0, &[8], &[(1, 1)]),
            entry(5, &[3, 7], &[(1, 0), (3, 0)]),
            entry(6, &[7], &[(4, 2)]),
        ]
        .into();
        let children = [(3, Vt::new(N)), (4, proto.last_global_vt.clone())];
        let batch: Arc<[NoticeRecord]> =
            proto.notice_log.records_after(&Vt::new(N)).cloned().collect();
        let horizon = Arc::new(VtDelta::default());
        let departures = child_departures(&proto, &children, &horizon, &batch, &received, None, 2);
        assert_eq!(departures.iter().map(|(child, _)| *child).collect::<Vec<_>>(), [3, 4]);
        // Both departures share the list as it came; each leaf is charged
        // for the one request it answers, naming it alone, and the request
        // only P1 itself answers costs neither anything.
        let (to_3, to_4) = (routed_of(&departures[0].1), routed_of(&departures[1].1));
        assert!(Arc::ptr_eq(to_3.0, &received) && Arc::ptr_eq(to_4.0, &received), "shared");
        assert_eq!(subtree_share(&received, 3, 2), [entry(5, &[3, 7], &[(3, 0)])]);
        assert_eq!(subtree_share(&received, 4, 2), [entry(6, &[7], &[(4, 2)])]);
        assert_eq!((to_3.1, to_4.1), (4 + 2 * 4 + 8, 4 + 4 + 8));
        // Both share the one batch; what differs per child is what its
        // timestamp misses, and that is what travels.
        let notices = |msg: &TmkMessage| match msg {
            TmkMessage::BarrierDeparture { notices, notice_bytes, .. } => {
                assert!(Arc::ptr_eq(notices, &batch), "the batch is shared, not copied");
                *notice_bytes
            }
            _ => unreachable!(),
        };
        assert_eq!((notices(&departures[0].1), notices(&departures[1].1)), (12, 0));
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
            let pages = [PageId(2 * writer), PageId(2 * writer + 1)].into();
            proto.notice_log.record(NoticeRecord { proc: writer, interval: 1, pages });
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
        let routed: Arc<[RoutedRequest]> = route_requests_locked(&proto, &first, requests).into();
        assert_eq!(routed.len(), N);
        // A child that has seen nothing: its departure carries every notice.
        let nothing = Vt::new(N);
        let batch: Arc<[NoticeRecord]> =
            proto.notice_log.records_after(&nothing).cloned().collect();
        let mut leaves = 0;
        let horizon = Arc::new(VtDelta::default());
        for child in tree_children(MASTER, N, ARITY) {
            for leaf in tree_children(child, N, ARITY) {
                assert!(tree_children(leaf, N, ARITY).is_empty());
                let children = [(leaf, nothing.clone())];
                let departures =
                    child_departures(&proto, &children, &horizon, &batch, &routed, None, ARITY);
                let departure = &departures[0].1;
                let share = subtree_share(&routed, leaf, ARITY);
                assert!(share.len() <= 2, "its two neighbours' requests");
                assert_eq!(routed_of(departure).1, bytes_of(&share));
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

    #[test]
    fn sparse_sums_wrap_and_drop_zeros_in_any_order() {
        let a = [(1, 5), (3, u64::MAX), (7, 2)];
        let b = [(0, 1), (3, 1), (7, 3), (9, 4)];
        let expected = vec![(0, 1), (1, 5), (7, 5), (9, 4)];
        assert_eq!(add(&a, &b), expected);
        assert_eq!(add(&b, &a), expected);
        assert_eq!(add(&a, &[]), a);
        assert!(add(&[], &[]).is_empty());
    }

    #[test]
    fn a_departure_carries_only_the_wanted_words() {
        let section = AddrRange::new(Addr::new(4096), 8 * 16);
        let at = |word: usize, words: usize| AddrRange::new(Addr::new(4096 + 8 * word), 8 * words);
        // Overlapping, unsorted and partly outside the section; a word
        // covered in part counts.
        let wants = [at(6, 3), AddrRange::new(Addr::new(4096 - 64), 72), at(2, 5), at(14, 4)];
        assert_eq!(word_ranges(section, &wants), [0..1, 2..9, 14..16]);
        let partial = AddrRange::new(Addr::new(4096 + 8 * 10 + 4), 2);
        assert_eq!(word_ranges(section, &[partial]), [Range { start: 10, end: 11 }]);
        let totals = [(0, 1), (1, 2), (2, 3), (8, 4), (9, 5), (15, 6)];
        assert_eq!(
            within(&totals, &word_ranges(section, &wants)),
            [(0, 1), (2, 3), (8, 4), (15, 6)]
        );
        assert!(within(&totals, &[]).is_empty());
    }

    /// Every copy of an interval's notice record is the one its flush built:
    /// over a chain of four processors (arity 1, so every record crosses up
    /// to three hops each way) each log's record of P0's — and of every
    /// writer's — interval shares the writer's own page list.
    #[test]
    fn a_barrier_shares_each_interval_record_with_every_log() {
        let config = crate::DsmConfig::new(4)
            .with_cost_model(sp2model::CostModel::free())
            .with_barrier(crate::BarrierTopology::Tree { arity: 1 });
        crate::Dsm::run(config, |p| {
            let words = pagedmem::PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(4 * words);
            // Every page mapped everywhere, so nobody's applied timestamp
            // covers an interval it has not fetched and no record is trimmed.
            let _: u32 = (0..4).map(|k| p.get(&a, k * words)).sum();
            p.set(&a, p.proc_id() * words, 1);
            p.barrier();
            if p.proc_id() != 3 {
                return;
            }
            let nothing = Vt::new(4);
            let pages_of = |node: ProcId, writer: ProcId| {
                let proto = p.lanes[node].shared.proto.lock();
                let mut records = proto.notice_log.records_after(&nothing);
                let record = records.find(|r| (r.proc, r.interval) == (writer, 1));
                Arc::clone(&record.expect("the barrier delivered every interval").pages)
            };
            for writer in 0..4 {
                let own = pages_of(writer, writer);
                for node in 0..4 {
                    let held = pages_of(node, writer);
                    assert!(Arc::ptr_eq(&held, &own), "P{node}'s record of P{writer}'s interval");
                }
            }
        });
    }

    /// A departure's batch is held whole by every log it reaches: a barrier
    /// costs each node one reference to the batch, not one per record.
    /// Over the flat master every writer arrives at the root directly, so
    /// after a barrier an interval's page list has the same holders at any
    /// width — the writer's log and diff cache, the root's log (the root's
    /// own interval: none), and the batch — where a copy in every log made
    /// them one per node.
    #[test]
    fn a_record_has_as_many_holders_on_64_processors_as_on_8() {
        let holders = |n: usize| {
            let config = crate::DsmConfig::new(n)
                .with_cost_model(sp2model::CostModel::free())
                .with_barrier(crate::BarrierTopology::FlatMaster);
            let run = crate::Dsm::run(config, |p| {
                let words = pagedmem::PAGE_SIZE / 4;
                let a = p.alloc_array::<u32>(n * words);
                // Every page mapped everywhere: no record is trimmed.
                let _: u32 = (0..n).map(|k| p.get(&a, k * words)).sum();
                p.set(&a, p.proc_id() * words, 1);
                p.barrier();
                // Everybody has applied the first barrier's batch once the
                // second, which carries no record, is through.
                p.barrier();
                if p.proc_id() != MASTER {
                    return Vec::new();
                }
                let nothing = Vt::new(n);
                let count = |writer: ProcId| {
                    let proto = p.lanes[writer].shared.proto.lock();
                    let own = proto.notice_log.records_after(&nothing).find(|r| r.proc == writer);
                    Arc::strong_count(&own.expect("the writer's own record").pages)
                };
                (0..n).map(count).collect()
            });
            run.results.into_iter().next().expect("the root's counts")
        };
        let (narrow, wide) = (holders(8), holders(64));
        assert_eq!(narrow, [3, 4, 4, 4, 4, 4, 4, 4], "the root's interval, then the others'");
        assert_eq!(wide[0], narrow[0]);
        assert!(wide[1..].iter().all(|&holders| holders == narrow[1]), "{wide:?}");
    }
}
