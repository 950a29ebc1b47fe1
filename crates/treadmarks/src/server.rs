//! The per-node protocol-request handlers, and the drain that runs them.
//!
//! TreadMarks services remote lock, page and diff requests in an interrupt
//! handler on the remote node. In this reproduction the handler is
//! [`serve_one`]: a per-node state machine step that answers one
//! request-port envelope from the node's shared protocol state. It is run
//! by whoever sends the request: the sender [`drain`]s the destination's
//! port right after the send, unless another thread is draining it
//! already. Handlers only touch the served node's local state and never
//! block on remote operations, so which host thread runs one, and when, is
//! invisible to the result: every reply is timed from the request's virtual
//! arrival time plus a modelled service cost. See `DESIGN.md` §10.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use msgnet::{Endpoint, Envelope, NodeId, Port};
use sp2model::{ReactorSnapshot, ReactorStats, VirtualTime};

use crate::message::{DiffRecord, PageWant, TmkMessage};
use crate::notice::notices_determine;
use crate::state::{full_page_diff, NodeShared, PendingLockRequest, ProtoState};
use crate::types::{LockId, ProcId};
use crate::watch::Label;

/// One node as every thread that serves it sees it: its endpoint, the
/// protocol state its handlers run against, the flag that admits one
/// drainer at a time and the serving counters.
pub(crate) struct Lane {
    pub(crate) endpoint: Endpoint<TmkMessage>,
    pub(crate) shared: Arc<NodeShared>,
    /// Set while some thread drains this node's request port.
    draining: AtomicBool,
    stats: ReactorStats,
}

impl Lane {
    pub(crate) fn new(endpoint: Endpoint<TmkMessage>, shared: Arc<NodeShared>) -> Lane {
        Lane { endpoint, shared, draining: AtomicBool::new(false), stats: ReactorStats::new() }
    }

    /// What the drains of this node's request port found.
    pub(crate) fn stats(&self) -> ReactorSnapshot {
        self.stats.snapshot()
    }
}

impl fmt::Debug for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lane").field("node", &self.endpoint.id()).finish_non_exhaustive()
    }
}

/// A lane's drain flag, held; dropping it lets go, on unwind too.
struct Draining<'a>(&'a AtomicBool);

impl<'a> Draining<'a> {
    /// Takes `flag` if no other thread holds it. Never waits. The `Acquire`
    /// pairs with the `Release` in `drop`, so a drainer starts from
    /// everything the previous one did.
    fn try_take(flag: &'a AtomicBool) -> Option<Draining<'a>> {
        let taken = flag.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed);
        taken.ok().map(|_| Draining(flag))
    }
}

impl Drop for Draining<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// Serves every request queued on `node`'s port on the calling thread —
/// processor `me`'s, whose wait-board slot says so meanwhile — unless
/// another thread is draining that port already.
///
/// The flag is only ever *tried*: a thread that finds it held returns at
/// once, so two drains can never wait for each other, however they nest.
/// That is safe because the holder re-checks the port's backlog after it
/// lets go and drains again if anything arrived: a request enqueued before
/// the holder's re-check is seen by it, one enqueued after finds the flag
/// free (the store that frees it happens before the re-check, which is a
/// locked read of the queue), so no request is stranded. The caller holds no
/// lease (`DESIGN.md` §3): a handler may wait for the served node's frames.
///
/// # Panics
///
/// Panics (with a [`msgnet::DeliveryExpired`] payload) when a reply cannot
/// be delivered under the configured fault plan, and on a protocol bug (a
/// message kind that never travels on the request port). Either unwinds the
/// calling compute thread, whose harness reports it.
pub(crate) fn drain(lanes: &[Lane], node: ProcId, me: ProcId) {
    let lane = &lanes[node];
    let board = &lane.shared.run.board;
    loop {
        let backlog = lane.endpoint.backlog(Port::Request);
        if backlog == 0 {
            return;
        }
        let Some(_held) = Draining::try_take(&lane.draining) else { return };
        lane.stats.polls(1);
        lane.stats.note_queue_depth(backlog as u64);
        let outer = board.wait(me, Label::Serving(node));
        while let Some(envelope) = lane.endpoint.try_recv(Port::Request) {
            lane.stats.served(1);
            // A manager's forward is drained at the holder at once, nested
            // in this drain: the lock chain completes on this thread.
            if let Some(holder) = serve_one(lane, envelope) {
                drain(lanes, holder, me);
            }
        }
        board.restore(me, outer);
    }
}

/// Serves one envelope from `lane`'s request port: the protocol handler's
/// state machine step. Returns the node whose request port the step just
/// forwarded a lock request to, if it did.
fn serve_one(lane: &Lane, envelope: Envelope<TmkMessage>) -> Option<ProcId> {
    let (endpoint, shared) = (&lane.endpoint, &*lane.shared);
    let arrived_at = envelope.arrives_at;
    match envelope.payload {
        TmkMessage::DiffRequest { req_id, requester, wants } => {
            handle_diff_request(endpoint, shared, req_id, requester, &wants, arrived_at);
            None
        }
        TmkMessage::LockAcquireRequest { lock, requester, vt, sync_pages, lowered } => {
            let request = PendingLockRequest { requester, vt, sync_pages, lowered, arrived_at };
            handle_lock_acquire(endpoint, shared, lock, request)
        }
        TmkMessage::LockForward {
            lock,
            requester,
            vt,
            sync_pages,
            lowered,
            holder_acquires_processed,
        } => {
            let request = PendingLockRequest { requester, vt, sync_pages, lowered, arrived_at };
            handle_lock_forward(endpoint, shared, lock, request, holder_acquires_processed);
            None
        }
        // All other message kinds travel on the reply port.
        other => unreachable!("unexpected message on request port: {other:?}"),
    }
}

/// Sends a handler's message on the interrupt path, leaving at `at` — the
/// request's virtual arrival plus the modelled service cost, never the
/// moment a thread got around to serving it — and charged at its own wire
/// size. Every message a protocol handler sends leaves through here.
fn send_at(
    endpoint: &Endpoint<TmkMessage>,
    dest: ProcId,
    port: Port,
    msg: TmkMessage,
    at: VirtualTime,
) {
    let bytes = msg.wire_bytes(endpoint.nodes());
    endpoint.send(NodeId(dest), port, msg, bytes, at, true);
}

/// Answers a diff request: for every interval (or base) the requester
/// needs, look up (or materialise) the diff and aggregate everything into a
/// single response message, which pays one encoding per record it ships.
///
/// A base is always one full page and one whole timestamp — the requester
/// asks this way exactly for intervals at or below its GC horizon, so the
/// response's byte count is the same whether or not this node's own trim
/// has already folded them away, keeping virtual time independent of the
/// real-time race between serving and trimming.
fn handle_diff_request(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    req_id: u64,
    requester: ProcId,
    wants: &[PageWant],
    arrived_at: VirtualTime,
) {
    let mut proto = shared.proto.lock();
    let table = shared.lock_table();
    let mut diffs = Vec::new();
    for want in wants {
        let page = want.page;
        if want.base {
            let vt = proto.page_vt(page);
            diffs.push(DiffRecord {
                page,
                proc: proto.me,
                interval: vt.get(proto.me),
                rank: vt.sum(),
                base: Some(vt),
                diff: full_page_diff(&table, page),
                vt: None,
            });
        }
        for &interval in &want.intervals {
            // A wanted interval is above the requester's horizon, and this
            // node learns a horizon covering it only at a barrier the
            // requester has entered, which it cannot do before consuming
            // this response: the interval is still cached.
            let cached = proto.cached(page, interval).unwrap_or_else(|| {
                panic!("P{} holds no diff of {page:?} for its interval {interval}", proto.me)
            });
            diffs.push(proto.record_of(page, interval, cached, &table));
        }
    }
    drop(table);
    drop(proto);

    shared.stats.diffs_created(diffs.len() as u64);
    let service = shared.cost.request_service_cost() + shared.cost.diff_create_cost(diffs.len());
    let reply = TmkMessage::DiffResponse { req_id, diffs };
    send_at(endpoint, requester, Port::Reply, reply, arrived_at + service);
}

/// Handles a lock-acquire request in the manager role: grant directly when
/// the lock has no other holder, otherwise forward the request to the last
/// holder, which will reply to the requester directly (the TreadMarks
/// three-hop protocol). Returns the holder a forward went to.
fn handle_lock_acquire(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    lock: LockId,
    request: PendingLockRequest,
) -> Option<ProcId> {
    let mut proto = shared.proto.lock();
    debug_assert_eq!(
        ProtoState::lock_manager(lock, proto.nprocs),
        proto.me,
        "lock request routed to the wrong manager"
    );
    let me = proto.me;
    let requester = request.requester;
    let state = proto.locks.entry(lock).or_default();
    *state.processed.entry(requester).or_insert(0) += 1;
    let last_holder = state.last_holder.replace(requester);
    let holder_processed = |holder: ProcId| state.processed.get(&holder).copied().unwrap_or(0);
    match last_holder.filter(|&holder| holder != requester) {
        // First acquisition, or re-acquisition by the last holder: no new
        // happens-before edge to transfer, the manager grants directly.
        None => {
            drop(proto);
            send_grant(endpoint, shared, lock, &request, request.arrived_at, false);
            None
        }
        // The manager itself was the last holder; behave like any holder.
        Some(holder) if holder == me => {
            let processed = holder_processed(me);
            drop(proto);
            handle_lock_forward(endpoint, shared, lock, request, processed);
            None
        }
        // Forward to the last holder, which replies to the requester
        // directly (the TreadMarks three-hop protocol).
        Some(holder) => {
            let holder_acquires_processed = holder_processed(holder);
            drop(proto);
            let PendingLockRequest { vt, sync_pages, lowered, arrived_at, .. } = request;
            let forward = TmkMessage::LockForward {
                lock,
                requester,
                vt,
                sync_pages,
                lowered,
                holder_acquires_processed,
            };
            send_at(
                endpoint,
                holder,
                Port::Request,
                forward,
                arrived_at + shared.cost.lock_manager_cost(),
            );
            Some(holder)
        }
    }
}

/// Handles a forwarded acquire request at the last holder: grant immediately
/// if the lock is free here, otherwise queue the request until the
/// application releases the lock ([`LockState::must_queue`](crate::state::LockState::must_queue)
/// decides).
fn handle_lock_forward(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    lock: LockId,
    request: PendingLockRequest,
    holder_acquires_processed: u64,
) {
    let mut proto = shared.proto.lock();
    let state = proto.locks.entry(lock).or_default();
    if state.must_queue(holder_acquires_processed) {
        state.queued.push(request);
        return;
    }
    drop(proto);
    send_grant(endpoint, shared, lock, &request, request.arrived_at, true);
}

/// Builds and sends a lock grant answering `request`, leaving at `at` plus
/// the manager's service cost and carrying the write notices the requester
/// is missing and any piggy-backed diffs for a `Validate_w_sync`. The
/// piggyback pays one encoding per record, as a diff response does.
///
/// `with_notices` distinguishes grants that transfer a happens-before edge
/// (from a previous holder) from first-acquisition grants by the manager.
pub(crate) fn send_grant(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    lock: LockId,
    request: &PendingLockRequest,
    at: VirtualTime,
    with_notices: bool,
) {
    let PendingLockRequest { requester, vt, sync_pages, lowered, .. } = request;
    let proto = shared.proto.lock();
    let table = shared.lock_table();
    let (notices, piggyback) = if with_notices {
        // The piggyback is charged no scan, so nobody counts the pages. It
        // starts above the lowered timestamp, below every diff the
        // requester misses; the notices start above its own.
        let seen = lowered.as_ref().map_or(vt.get(proto.me), |delta| delta.get(vt, proto.me));
        let piggyback = proto.diffs_for_pages_after(sync_pages, seen, &table, &mut Vec::new());
        let notices = proto.notice_log.clone_after(vt);
        debug_assert!(
            notices_determine(vt, &notices, &proto.vt),
            "P{}'s grant to P{requester}: the notices must determine the granter's timestamp",
            proto.me,
        );
        (notices, piggyback)
    } else {
        (Vec::new(), Vec::new())
    };
    drop(table);
    drop(proto);

    shared.stats.diffs_created(piggyback.len() as u64);
    let service = shared.cost.lock_manager_cost() + shared.cost.diff_create_cost(piggyback.len());
    let grant = TmkMessage::LockGrant { lock, notices, piggyback };
    send_at(endpoint, *requester, Port::Reply, grant, at + service);
}
