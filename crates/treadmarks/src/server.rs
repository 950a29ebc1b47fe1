//! The per-node protocol-request handlers.
//!
//! TreadMarks services remote lock, page and diff requests in an interrupt
//! handler. In this reproduction the handler is [`serve_one`]: a per-node
//! state machine step that answers one request-port envelope from the
//! node's shared protocol state. A protocol *reactor*
//! ([`crate::reactor`]) drives many nodes' handlers from one poll loop — a
//! node no longer owns a dedicated blocking server thread. Handlers only
//! touch the served node's local state and never block on remote
//! operations, which keeps the system free of distributed deadlock and
//! makes the serving order across nodes irrelevant to the result: every
//! reply is timed from the request's virtual arrival time plus a modelled
//! service cost, never from when the reactor got around to it.

use msgnet::{Endpoint, Envelope, NodeId, Port};
use sp2model::VirtualTime;

use crate::message::{DiffRecord, PageWant, TmkMessage};
use crate::notice::notices_determine;
use crate::state::{full_page_diff, NodeShared, PendingLockRequest, ProtoState};
use crate::types::{Interval, LockId, ProcId};

/// What [`serve_one`] tells the driving reactor about the served node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Served {
    /// The request was handled; keep polling this node.
    Continue,
    /// The node's shutdown poison arrived; stop serving it.
    Shutdown,
}

/// Serves one envelope from a node's request port: the reactor-driven
/// protocol-server state machine step.
///
/// # Panics
///
/// Panics (with a [`msgnet::DeliveryExpired`] payload) when a reply cannot
/// be delivered under the configured fault plan, and on a protocol bug
/// (a message kind that never travels on the request port). The driving
/// reactor catches both per message.
pub(crate) fn serve_one(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    envelope: Envelope<TmkMessage>,
) -> Served {
    let arrived_at = envelope.arrives_at;
    match envelope.payload {
        TmkMessage::Shutdown => return Served::Shutdown,
        TmkMessage::DiffRequest { req_id, requester, wants } => {
            handle_diff_request(endpoint, shared, req_id, requester, &wants, arrived_at);
        }
        TmkMessage::LockAcquireRequest { lock, requester, vt, sync_pages } => {
            let request =
                PendingLockRequest { requester, requester_vt: vt, sync_pages, arrived_at };
            handle_lock_acquire(endpoint, shared, lock, request);
        }
        TmkMessage::LockForward { lock, requester, vt, sync_pages, holder_acquires_processed } => {
            let request =
                PendingLockRequest { requester, requester_vt: vt, sync_pages, arrived_at };
            handle_lock_forward(endpoint, shared, lock, request, holder_acquires_processed);
        }
        // All other message kinds travel on the reply port.
        other => unreachable!("unexpected message on request port: {other:?}"),
    }
    Served::Continue
}

/// Sends a handler's message on the interrupt path, leaving at `at` — the
/// request's virtual arrival plus the modelled service cost, never the
/// moment the reactor got around to it — and charged at its own wire size.
/// Every message a protocol handler sends leaves through here.
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

/// Answers a diff request: for every interval (or consolidated base) the
/// requester needs, look up (or materialise) the diff and aggregate
/// everything into a single response message.
///
/// A base request (`base_through`) is always answered with one full page —
/// the requester asks this way exactly for intervals at or below its GC
/// horizon, so the response's byte count is the same whether or not this
/// node's own trim has already folded them away, keeping virtual time
/// independent of the real-time race between serving and trimming.
fn handle_diff_request(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    req_id: u64,
    requester: ProcId,
    wants: &[PageWant],
    arrived_at: VirtualTime,
) {
    let proto = shared.proto.lock();
    let table = shared.lock_table();
    let mut diffs = Vec::new();
    let mut materialised_pages = 0;
    for want in wants {
        let page = want.page;
        let cached = |interval: Interval| {
            proto.diff_cache.get(&page).and_then(|by_interval| by_interval.get(&interval))
        };
        if let Some(through) = want.base_through {
            // The base record claims every missing interval of this node
            // at or below `through` at the requester, so one answers them
            // all, and it applies before every interval diff of the page
            // there (see `DiffRecord::base`). The rank: the trimmed base's
            // if the trim already folded the interval, the cached entry's
            // otherwise.
            let rank = match proto.trimmed.get(&page) {
                Some(base) if base.through >= through => base.rank,
                _ => cached(through).map_or_else(|| proto.vt.sum(), |c| c.rank),
            };
            materialised_pages += 1;
            diffs.push(DiffRecord {
                page,
                proc: proto.me,
                interval: through,
                rank,
                base: true,
                diff: full_page_diff(&table, page),
                // A base consolidates several intervals; it has no single
                // creating timestamp. The detector counts its application
                // against the trimmed-window stat instead.
                vt: None,
            });
        }
        for &interval in &want.intervals {
            let (record, full_page) = match cached(interval) {
                Some(cached) => proto.record_of(page, interval, cached, &table),
                // The diff was never recorded (e.g. a notice relayed for an
                // interval that never produced one); fall back to the
                // current page contents, which is always at least as new as
                // the requested interval — serve it base-style so owed
                // interval diffs still apply on top of it.
                None => {
                    let (diff, rank) = (full_page_diff(&table, page), proto.vt.sum());
                    let proc = proto.me;
                    (DiffRecord { page, proc, interval, rank, base: true, diff, vt: None }, true)
                }
            };
            materialised_pages += usize::from(full_page);
            diffs.push(record);
        }
    }
    drop(table);
    drop(proto);

    let service =
        shared.cost.request_service_cost() + shared.cost.diff_create_cost(materialised_pages);
    let reply = TmkMessage::DiffResponse { req_id, diffs };
    send_at(endpoint, requester, Port::Reply, reply, arrived_at + service);
}

/// Handles a lock-acquire request in the manager role: grant directly when
/// the lock has no other holder, otherwise forward the request to the last
/// holder, which will reply to the requester directly (the TreadMarks
/// three-hop protocol).
fn handle_lock_acquire(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    lock: LockId,
    request: PendingLockRequest,
) {
    let mut proto = shared.proto.lock();
    debug_assert_eq!(
        ProtoState::lock_manager(lock, proto.nprocs),
        proto.me,
        "lock request routed to the wrong manager"
    );
    let me = proto.me;
    let requester = request.requester;
    *proto.lock_requests_processed.entry((lock, requester)).or_insert(0) += 1;
    let last_holder = proto.lock_last_holder.insert(lock, requester);
    let holder_processed = |proto: &ProtoState, holder: ProcId| {
        proto.lock_requests_processed.get(&(lock, holder)).copied().unwrap_or(0)
    };
    match last_holder.filter(|&holder| holder != requester) {
        // First acquisition, or re-acquisition by the last holder: no new
        // happens-before edge to transfer, the manager grants directly.
        None => {
            drop(proto);
            send_grant(endpoint, shared, lock, &request, request.arrived_at, false);
        }
        // The manager itself was the last holder; behave like any holder.
        Some(holder) if holder == me => {
            let processed = holder_processed(&proto, me);
            drop(proto);
            handle_lock_forward(endpoint, shared, lock, request, processed);
        }
        // Forward to the last holder, which replies to the requester
        // directly (the TreadMarks three-hop protocol).
        Some(holder) => {
            let holder_acquires_processed = holder_processed(&proto, holder);
            drop(proto);
            let PendingLockRequest { requester_vt: vt, sync_pages, arrived_at, .. } = request;
            let forward = TmkMessage::LockForward {
                lock,
                requester,
                vt,
                sync_pages,
                holder_acquires_processed,
            };
            send_at(
                endpoint,
                holder,
                Port::Request,
                forward,
                arrived_at + shared.cost.lock_manager_cost(),
            );
        }
    }
}

/// Handles a forwarded acquire request at the last holder: grant immediately
/// if the lock is free here, otherwise queue the request until the
/// application releases the lock.
///
/// "Free here" needs care: this node may itself have an acquire in flight.
/// If the manager had already processed that acquire when it sent this
/// forward (`holder_acquires_processed` covers it), our grant is on its way
/// and granting now would give the lock to two processors — queue instead.
/// If the manager had *not* yet seen our request, our acquire is ordered
/// after this one and the lock really is free here; queueing would
/// deadlock the two of us against each other, so grant.
fn handle_lock_forward(
    endpoint: &Endpoint<TmkMessage>,
    shared: &NodeShared,
    lock: LockId,
    request: PendingLockRequest,
    holder_acquires_processed: u64,
) {
    let mut proto = shared.proto.lock();
    let grant_in_flight = proto.pending_acquires.contains(&lock)
        && holder_acquires_processed >= proto.lock_requests_sent.get(&lock).copied().unwrap_or(0);
    if proto.held_locks.contains(&lock) || grant_in_flight {
        proto.pending_lock_requests.entry(lock).or_default().push(request);
        return;
    }
    drop(proto);
    send_grant(endpoint, shared, lock, &request, request.arrived_at, true);
}

/// Builds and sends a lock grant answering `request`, leaving at `at` plus
/// the manager's service cost and carrying the write notices the requester
/// is missing and any piggy-backed diffs for a `Validate_w_sync`.
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
    let PendingLockRequest { requester, requester_vt, sync_pages, .. } = request;
    let proto = shared.proto.lock();
    let table = shared.lock_table();
    let (notices, piggyback) = if with_notices {
        // The piggyback is charged no scan, so nobody counts the pages.
        let seen = requester_vt.get(proto.me);
        let (piggyback, _) =
            proto.diffs_for_pages_after_counted(sync_pages, seen, &table, &mut Vec::new());
        let notices = proto.notice_log.notices_after(requester_vt);
        debug_assert!(
            notices_determine(requester_vt, &notices, &proto.vt),
            "P{}'s grant to P{requester}: the notices must determine the granter's timestamp",
            proto.me,
        );
        (notices, piggyback)
    } else {
        (Vec::new(), Vec::new())
    };
    drop(table);
    drop(proto);

    let grant = TmkMessage::LockGrant { lock, notices, piggyback };
    send_at(endpoint, *requester, Port::Reply, grant, at + shared.cost.lock_manager_cost());
}
