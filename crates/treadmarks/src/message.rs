//! Protocol messages exchanged between nodes.

use std::sync::Arc;

use pagedmem::{AddrRange, Diff, PageId};

use crate::notice::NoticeRecord;
use crate::types::{Interval, LockId, ProcId, Vt, VtDelta};

/// A diff together with the write notice it satisfies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRecord {
    /// The page the diff applies to.
    pub page: PageId,
    /// The processor that created the modifications.
    pub proc: ProcId,
    /// The interval the modifications belong to.
    pub interval: Interval,
    /// Happens-before rank of the creating interval (the sum of its vector
    /// timestamp, see [`Vt::sum`]). Receivers apply same-page diffs in rank
    /// order so causally later writes overwrite causally earlier ones;
    /// concurrent diffs compare arbitrarily and commute. A base is placed
    /// by its timestamp instead (see [`base`](Self::base)).
    pub rank: u64,
    /// `Some` for a *base*: a full copy of its server's page, sent in place
    /// of garbage-collected history, with the timestamp of that snapshot —
    /// the server's own, lowered below every notice of the page it has not
    /// applied, which is exactly what the copy contains. The requester lets
    /// it claim every missing interval the timestamp covers and applies it
    /// above the owed deltas the timestamp covers and beneath the rest,
    /// each side in rank order: a delta the copy lacks is concurrent with,
    /// or later than, everything in it. A base's `interval` and `rank` are
    /// its timestamp's own component and sum. `None` for an interval's
    /// diff.
    pub base: Option<Vt>,
    /// The encoded modifications.
    pub diff: Diff,
    /// The creating interval's full vector timestamp, shipped only when the
    /// race detector is on (it needs the exact happened-before relation,
    /// not just the scalar `rank`). `None` in normal operation and for
    /// bases, so the detector-off wire traffic — and with it the
    /// virtual-time accounting — is byte-identical to a build without the
    /// detector.
    pub vt: Option<Vt>,
}

impl DiffRecord {
    /// Approximate wire size of the record.
    fn wire_bytes(&self) -> usize {
        NoticeRecord::WIRE_BYTES_PER_PAGE
            + 8
            + self.diff.encoded_bytes()
            + self.base.as_ref().map_or(0, Vt::wire_bytes)
            + self.vt.as_ref().map_or(0, Vt::wire_bytes)
    }
}

/// One page's portion of a [`TmkMessage::DiffRequest`].
///
/// The requester names the intervals it wants individually and, from at
/// most one producer per page, a *base* ([`DiffRecord::base`]): one full
/// copy of the page, standing in for every missing interval at or below
/// the requester's garbage-collection horizon. Any producer with such an
/// interval holds a mapped frame that has applied everything at or below
/// the horizon, so one base covers them all, whoever wrote them. Those
/// intervals are never named individually: their owner may be trimming
/// them concurrently in real time, and whether a delta or a full page came
/// back must not depend on that race — virtual time is derived from
/// message bytes, so the *requester* decides the shape of the response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageWant {
    /// The page the request concerns.
    pub page: PageId,
    /// Request the producer's base of the page.
    pub base: bool,
    /// Individually wanted intervals (all above the requester's horizon).
    pub intervals: Vec<Interval>,
}

impl PageWant {
    /// Approximate wire size of the entry.
    fn wire_bytes(&self) -> usize {
        8 + 4 * self.intervals.len()
    }
}

/// A `Validate_w_sync` request piggy-backed on a barrier **arrival**: the
/// pages the requester wants plus the vector timestamp that says which
/// modifications it is still missing. Requests only travel *up* the
/// reduction tree in this form; the root resolves each one to the
/// processors that will answer it and the departures carry the result as
/// [`RoutedRequest`]s.
///
/// The timestamp travels as a [`VtDelta`] against the previous barrier's
/// global timestamp, which every processor holds an identical copy of when
/// it builds its arrival (the requester's own component, whatever it
/// learned along lock chains since, and whatever it lowered below a
/// still-missing diff — a handful, not one per processor). The root
/// reconstructs the timestamp against its own copy of that base, which it
/// must therefore read *before* this barrier overwrites it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncFetchRequest {
    /// The requesting processor.
    pub proc: ProcId,
    /// The requester's advertised vector timestamp at the time of the
    /// request, as its difference from the base.
    pub delta: VtDelta,
    /// The pages of the requested sections, ascending. Built once by the
    /// requester: the root hands this very list on to the responders.
    pub pages: Arc<[PageId]>,
}

impl SyncFetchRequest {
    /// The request of `proc` for `pages`, advertising `vt` against `base`.
    pub fn new(proc: ProcId, vt: &Vt, base: &Vt, pages: Arc<[PageId]>) -> SyncFetchRequest {
        SyncFetchRequest { proc, delta: vt.delta_from(base), pages }
    }

    /// The advertised timestamp, reconstructed against the `base` it was
    /// encoded from.
    pub fn vt(&self, base: &Vt) -> Vt {
        base.patched(&self.delta)
    }

    /// Approximate wire size of the request on a cluster of `nprocs`: the
    /// requester, four bytes a page, and the timestamp's delta.
    pub(crate) fn wire_bytes(&self, nprocs: usize) -> usize {
        4 + self.pages.len() * 4 + self.delta.wire_bytes(nprocs)
    }
}

/// A piggy-backed `Validate_w_sync` request on its way *down* the barrier
/// tree, resolved by the root to the processors that hold diffs for it.
///
/// A departure carries an entry only if one of its responders lies in the
/// receiving child's subtree, and names only those responders — so a
/// request's timestamp shrinks to the one component each responder ever
/// read, and a request nobody answers is not forwarded at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutedRequest {
    /// The requesting processor.
    pub proc: ProcId,
    /// The pages of the requested sections, ascending. Shared by every
    /// departure that forwards the entry.
    pub pages: Arc<[PageId]>,
    /// The responders inside the receiving subtree, ascending, each with the
    /// latest of *its own* intervals the requester has already incorporated
    /// (the requester's advertised timestamp, read at that responder).
    pub responders: Vec<(ProcId, Interval)>,
}

impl RoutedRequest {
    /// Approximate wire size of the entry.
    fn wire_bytes(&self) -> usize {
        4 + self.pages.len() * 4 + self.responders.len() * 8
    }
}

/// The messages of the DSM protocol.
///
/// Unsolicited messages (lock and diff requests, forwarded requests) travel
/// on the [`Port::Request`](msgnet::Port::Request) port and are handled by
/// the destination node's handlers, run by the thread that sent them;
/// everything a compute thread waits for travels on the reply port.
#[derive(Debug, PartialEq, Eq)]
pub enum TmkMessage {
    /// Acquirer -> lock manager: request the lock.
    LockAcquireRequest {
        /// The lock being acquired.
        lock: LockId,
        /// The acquiring processor.
        requester: ProcId,
        /// The acquirer's vector timestamp.
        vt: Vt,
        /// Pages piggy-backed by `Validate_w_sync`, if any.
        sync_pages: Vec<PageId>,
    },
    /// Lock manager -> last holder: forwarded acquire request.
    LockForward {
        /// The lock being acquired.
        lock: LockId,
        /// The acquiring processor.
        requester: ProcId,
        /// The acquirer's vector timestamp.
        vt: Vt,
        /// Pages piggy-backed by `Validate_w_sync`, if any.
        sync_pages: Vec<PageId>,
        /// How many acquire requests from the *forward target* (the last
        /// holder) the manager had processed when it sent this forward.
        /// Lets the holder decide whether its own pending acquire is
        /// ordered before this request (queue it) or after (the lock is
        /// free locally; grant it) — without this the two orders are
        /// indistinguishable and either mutual exclusion or progress
        /// breaks.
        holder_acquires_processed: u64,
    },
    /// Last holder (or manager) -> acquirer: the lock grant, carrying the
    /// write notices the acquirer is missing and any piggy-backed diffs.
    /// The granter's vector timestamp does not travel: the acquirer's own
    /// timestamp, which covers the one it advertised, joined with these
    /// notices is exactly the merge (see `notice::vt_through`).
    LockGrant {
        /// The granted lock.
        lock: LockId,
        /// The notice records the acquirer has not seen.
        notices: Vec<NoticeRecord>,
        /// Diffs for piggy-backed `Validate_w_sync` pages.
        piggyback: Vec<DiffRecord>,
    },
    /// Barrier-tree child -> parent: barrier arrival, merged over the
    /// child's whole subtree (with the flat topology, client -> master).
    /// The subtree's merged vector timestamp does not travel: it is the
    /// previous barrier's global timestamp, which both ends hold, joined
    /// with `notices`.
    BarrierArrival {
        /// The arriving processor (the subtree root).
        proc: ProcId,
        /// Component-wise minimum of the subtree's *applied* timestamps —
        /// the intervals whose modifications every processor of the subtree
        /// has incorporated into its mapped pages — against the previous
        /// barrier's global timestamp. Aggregated to the root and
        /// redistributed as the garbage-collection horizon.
        applied_vt: VtDelta,
        /// Every notice record the subtree holds above the previous
        /// barrier's global timestamp.
        notices: Vec<NoticeRecord>,
        /// The subtree's piggy-backed `Validate_w_sync` requests.
        sync_requests: Vec<SyncFetchRequest>,
        /// At a reduction, the subtree's partials summed, as `(word, delta)`
        /// pairs ascending by word, zero sums left out (a word indexes the
        /// reduced section's `u64` words); empty at any other barrier.
        words: Vec<(u32, u64)>,
    },
    /// Barrier-tree parent -> child: barrier departure, re-fanned down the
    /// tree (with the flat topology, master -> client). The global vector
    /// timestamp does not travel: it is the child's own (subtree-merged)
    /// timestamp, which the parent rebuilt identically from the arrival,
    /// joined with `notices`.
    BarrierDeparture {
        /// Component-wise minimum of all processors' applied timestamps —
        /// the garbage-collection horizon: diffs and notices at or below
        /// its minimum component can never be requested again — against
        /// the *previous* barrier's global timestamp.
        gc_horizon: VtDelta,
        /// The notice records this subtree has not seen.
        notices: Vec<NoticeRecord>,
        /// The receiving subtree's share of the piggy-backed fetch requests:
        /// the entries one of its processors answers, in requester order.
        /// The receiver serves the entries that name it and hands each
        /// child its own subtree's share.
        sync_requests: Vec<RoutedRequest>,
        /// At a reduction, the totals of the words the receiving subtree's
        /// processors read, ascending by word; empty at any other barrier.
        words: Vec<(u32, u64)>,
    },
    /// Faulting processor -> writer: request for diffs.
    DiffRequest {
        /// Request id used to match the response.
        req_id: u64,
        /// The requesting processor.
        requester: ProcId,
        /// Pages and the intervals (or bases) needed.
        wants: Vec<PageWant>,
    },
    /// Writer -> faulting processor: the requested diffs, aggregated into a
    /// single message.
    DiffResponse {
        /// Matches the request's id.
        req_id: u64,
        /// The requested diffs.
        diffs: Vec<DiffRecord>,
    },
    /// Producer -> requester after a barrier: the paper's merged data+sync
    /// message, answering a piggy-backed `Validate_w_sync` request. It
    /// carries no notices and no timestamp: the departure delivered them.
    SyncDiffs {
        /// The producing processor.
        from: ProcId,
        /// The producer's diffs for the requested pages.
        diffs: Vec<DiffRecord>,
    },
    /// Point-to-point data exchange replacing a barrier (`Push`).
    PushData {
        /// The sending processor.
        from: ProcId,
        /// Address ranges and their contents, received in place.
        chunks: Vec<(AddrRange, Vec<u8>)>,
    },
    /// Sent by the harness to every reply port when a processor panics, so
    /// peers blocked on a reply unwind instead of waiting for it.
    Shutdown,
}

impl TmkMessage {
    /// Approximate payload size on a cluster of `nprocs`, used for byte
    /// accounting and latency.
    pub fn wire_bytes(&self, nprocs: usize) -> usize {
        match self {
            TmkMessage::LockAcquireRequest { vt, sync_pages, .. }
            | TmkMessage::LockForward { vt, sync_pages, .. } => {
                8 + vt.wire_bytes() + sync_pages.len() * 4
            }
            TmkMessage::LockGrant { notices, piggyback, .. } => {
                4 + notices.iter().map(NoticeRecord::wire_bytes).sum::<usize>()
                    + piggyback.iter().map(DiffRecord::wire_bytes).sum::<usize>()
            }
            // A reduction's word costs four bytes of index and eight of
            // value.
            TmkMessage::BarrierArrival { applied_vt, notices, sync_requests, words, .. } => {
                4 + applied_vt.wire_bytes(nprocs)
                    + notices.iter().map(NoticeRecord::wire_bytes).sum::<usize>()
                    + sync_requests.iter().map(|r| r.wire_bytes(nprocs)).sum::<usize>()
                    + 12 * words.len()
            }
            TmkMessage::BarrierDeparture { gc_horizon, notices, sync_requests, words } => {
                gc_horizon.wire_bytes(nprocs)
                    + notices.iter().map(NoticeRecord::wire_bytes).sum::<usize>()
                    + sync_requests.iter().map(RoutedRequest::wire_bytes).sum::<usize>()
                    + 12 * words.len()
            }
            TmkMessage::DiffRequest { wants, .. } => {
                12 + wants.iter().map(PageWant::wire_bytes).sum::<usize>()
            }
            TmkMessage::DiffResponse { diffs, .. } => {
                8 + diffs.iter().map(DiffRecord::wire_bytes).sum::<usize>()
            }
            // A 12-byte header, the producer and a barrier ordinal, as every
            // gated record was measured. No ordinal needs sending: a
            // processor requests at one barrier at a time and consumes every
            // reply before its next arrival.
            TmkMessage::SyncDiffs { diffs, .. } => {
                12 + diffs.iter().map(DiffRecord::wire_bytes).sum::<usize>()
            }
            TmkMessage::PushData { chunks, .. } => {
                4 + chunks.iter().map(|(_, data)| 16 + data.len()).sum::<usize>()
            }
            TmkMessage::Shutdown => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagedmem::PAGE_SIZE;

    #[test]
    fn wire_bytes_scale_with_content() {
        let want = |page, intervals: Vec<Interval>| PageWant { page, base: false, intervals };
        let small = TmkMessage::DiffRequest {
            req_id: 1,
            requester: 0,
            wants: vec![want(PageId(1), vec![1])],
        };
        let large = TmkMessage::DiffRequest {
            req_id: 1,
            requester: 0,
            wants: (0..100).map(|i| want(PageId(i), vec![1, 2, 3])).collect(),
        };
        assert!(large.wire_bytes(4) > small.wire_bytes(4));
        assert_eq!(TmkMessage::Shutdown.wire_bytes(4), 0);
    }

    #[test]
    fn diff_record_wire_bytes_include_diff_payload() {
        let twin = vec![0u8; PAGE_SIZE];
        let mut cur = twin.clone();
        cur[0..64].fill(3);
        let record = DiffRecord {
            page: PageId(0),
            proc: 1,
            interval: 2,
            rank: 2,
            base: None,
            diff: Diff::create(&twin, &cur),
            vt: None,
        };
        assert!(record.wire_bytes() >= 64);
        let msg = TmkMessage::DiffResponse { req_id: 7, diffs: vec![record.clone()] };
        assert!(msg.wire_bytes(4) >= 64);
        // Shipping the creating timestamp (race-detect mode) costs exactly
        // its wire size; leaving it off costs nothing.
        let mut with_vt = record.clone();
        with_vt.vt = Some(Vt::new(4));
        assert_eq!(with_vt.wire_bytes(), record.wire_bytes() + Vt::new(4).wire_bytes());
        // A base's timestamp travels whole: four bytes a processor.
        let mut base = record.clone();
        base.base = Some(Vt::new(4));
        assert_eq!(base.wire_bytes(), record.wire_bytes() + 16);
    }

    /// The timestamp `base` raised or lowered at the given components.
    fn moved(base: &Vt, changes: &[(ProcId, Interval)]) -> Vt {
        let mut vt = base.clone();
        for &(proc, interval) in changes {
            vt.limit(proc, interval);
            vt.advance(proc, interval);
        }
        vt
    }

    #[test]
    fn barrier_messages_account_for_notices_and_requests() {
        const N: usize = 64;
        let base = Vt::new(N);
        let notice = NoticeRecord { proc: 1, interval: 1, pages: [PageId(3)].into() };
        let arrival =
            |applied: &Vt, notices: Vec<NoticeRecord>, sync_requests| TmkMessage::BarrierArrival {
                proc: 1,
                applied_vt: applied.delta_from(&base),
                notices,
                sync_requests,
                words: vec![],
            };
        // An arrival that changed nothing: its proc and an empty delta.
        assert_eq!(arrival(&base, vec![], vec![]).wire_bytes(N), 4 + 4);
        // One notice, an applied timestamp one component off the base, and a
        // request that differs from the base nowhere: requester, entry count
        // and its one page.
        let request = SyncFetchRequest::new(1, &base, &base, [PageId(3)].into());
        let applied = moved(&base, &[(1, 1)]);
        assert_eq!(
            arrival(&applied, vec![notice.clone()], vec![request]).wire_bytes(N),
            4 + (4 + 8) + 12 + (4 + 4 + 4)
        );
        // On the way down a request names its responders instead of
        // carrying a timestamp: four bytes a page, eight a responder.
        let routed = RoutedRequest {
            proc: 1,
            pages: [PageId(3), PageId(4)].into(),
            responders: vec![(0, 2), (2, 0), (3, 1)],
        };
        assert_eq!(routed.wire_bytes(), 4 + 2 * 4 + 3 * 8);
        let departure = |horizon: &Vt, sync_requests| TmkMessage::BarrierDeparture {
            gc_horizon: horizon.delta_from(&base),
            notices: vec![notice.clone()],
            sync_requests,
            words: vec![],
        };
        assert_eq!(departure(&base, vec![]).wire_bytes(N), 4 + 12);
        assert_eq!(
            departure(&base, vec![routed.clone()]).wire_bytes(N),
            departure(&base, vec![]).wire_bytes(N) + routed.wire_bytes()
        );
        // A horizon that moved in two components: eight bytes each.
        let horizon = moved(&base, &[(0, 2), (9, 1)]);
        assert_eq!(
            departure(&horizon, vec![]).wire_bytes(N),
            departure(&base, vec![]).wire_bytes(N) + 2 * 8
        );
        // A reduction's words ride either way at twelve bytes a pair, with
        // no header of their own.
        let words = vec![(0, 5), (7, u64::MAX)];
        let reducing = TmkMessage::BarrierArrival {
            proc: 1,
            applied_vt: base.delta_from(&base),
            notices: vec![],
            sync_requests: vec![],
            words: words.clone(),
        };
        assert_eq!(reducing.wire_bytes(N), 4 + 4 + 2 * 12);
        let reduced = TmkMessage::BarrierDeparture {
            gc_horizon: base.delta_from(&base),
            notices: vec![],
            sync_requests: vec![],
            words,
        };
        assert_eq!(reduced.wire_bytes(N), 4 + 2 * 12);
    }

    #[test]
    fn sync_replies_and_grants_carry_no_timestamp() {
        // A record of two pages travels as two 12-byte notices.
        let notices =
            vec![NoticeRecord { proc: 1, interval: 1, pages: [PageId(3), PageId(4)].into() }];
        // A barrier's reply carries no notices: the departure did.
        let barrier = TmkMessage::SyncDiffs { from: 1, diffs: vec![] };
        let grant = TmkMessage::LockGrant { lock: 0, notices, piggyback: vec![] };
        for n in [2, 64] {
            assert_eq!(barrier.wire_bytes(n), 12, "{n} processors");
            assert_eq!(grant.wire_bytes(n), 4 + 2 * 12, "{n} processors");
        }
        // The two requests still carry their timestamp whole.
        let acquire = TmkMessage::LockAcquireRequest {
            lock: 0,
            requester: 1,
            vt: Vt::new(64),
            sync_pages: vec![],
        };
        assert_eq!(acquire.wire_bytes(64), 8 + 64 * 4);
    }

    #[test]
    fn a_delta_round_trips_against_either_base_and_never_costs_more_than_whole() {
        // The first barrier's base is zero; a later one's is the previous
        // global timestamp, here <4,7,2,9,0,5>.
        let zero = Vt::new(6);
        let previous = moved(&zero, &[(0, 4), (1, 7), (2, 2), (3, 9), (5, 5)]);
        // An applied timestamp (or a horizon): P2's own interval ahead, P3's
        // ninth not yet applied.
        let applied = moved(&previous, &[(2, 3), (3, 8)]);
        for (base, entries) in [(&zero, 5), (&previous, 2)] {
            let delta = applied.delta_from(base);
            assert_eq!(delta.entries().len(), entries);
            assert_eq!(base.patched(&delta), applied, "round trip against {base}");
            assert_eq!(delta.wire_bytes(64), 4 + 8 * entries);
            assert_eq!(delta.wire_bytes(6), (4 + 8 * entries).min(6 * 4));
        }
        assert_eq!(applied.delta_from(&previous).entries(), [(2, 3), (3, 8)], "above and below");
        // Nothing differs: an empty delta, four bytes, and the base back.
        let same = previous.delta_from(&previous);
        assert!(same.entries().is_empty());
        assert_eq!(same.wire_bytes(64), 4);
        assert_eq!(previous.patched(&same), previous);
        // Two processors: whole is never more than eight bytes.
        let pair = moved(&Vt::new(2), &[(0, 3), (1, 1)]);
        assert_eq!(pair.delta_from(&Vt::new(2)).wire_bytes(2), 2 * 4);
    }

    #[test]
    fn a_sparse_request_timestamp_round_trips_against_its_base() {
        // The previous barrier left everybody at <4,7,2,9,0,5>.
        let zero = Vt::new(6);
        let base = moved(&zero, &[(0, 4), (1, 7), (2, 2), (3, 9), (5, 5)]);
        // P2 since closed an interval of its own, learned P1's eighth along
        // a lock chain, and still misses P3's ninth on a requested page.
        let vt = moved(&base, &[(2, 3), (1, 8), (3, 8)]);
        let request = SyncFetchRequest::new(2, &vt, &base, [PageId(1), PageId(2)].into());
        assert_eq!(request.delta.entries(), [(1, 8), (2, 3), (3, 8)], "above, own, below");
        assert_eq!(request.vt(&base), vt);
        assert_eq!(request.wire_bytes(64), 8 + 3 * 8 + 2 * 4);
        assert_eq!(request.wire_bytes(6), 4 + 6 * 4 + 2 * 4, "whole is smaller at six");
        // Nothing differs: nothing travels, and the base comes back.
        let same = SyncFetchRequest::new(2, &base, &base, [].into());
        assert!(same.delta.entries().is_empty());
        assert_eq!(same.vt(&base), base);
        // Against the zero base of the first barrier every non-zero
        // component travels.
        let first = SyncFetchRequest::new(2, &vt, &zero, [].into());
        assert_eq!(first.delta.entries().len(), 5);
        assert_eq!(first.vt(&zero), vt);
    }
}
