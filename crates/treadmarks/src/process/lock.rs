//! Locks: the acquire (plain, or carrying a merged fetch) and the release.

use std::collections::HashSet;

use pagedmem::PageId;

use super::interval::{apply_notices_locked, sync_vt_locked};
use super::sync::{prep_writes_locked, wants_for_pages_locked, Outstanding, PhasePlan};
use super::{Process, SyncOp};
use crate::message::TmkMessage;
use crate::notice::Segment;
use crate::server;
use crate::state::ProtoState;
use crate::types::{Interval, LockId, ProcId};

impl Process {
    /// Acquires `lock`, receiving the write notices (and invalidations)
    /// required by lazy release consistency.
    ///
    /// # Panics
    ///
    /// Panics if this processor already holds the lock.
    pub fn lock_acquire(&mut self, lock: LockId) {
        self.sync_phase(SyncOp::Lock(lock), &PhasePlan::default(), |_| {});
    }

    /// Lock side of [`sync_phase`](Self::sync_phase)'s issue: the plan's
    /// page list rides on the acquire request, the grant's piggybacked diffs
    /// are kept in hand (not yet applied), and one aggregated request per
    /// third-party producer goes out for whatever the releaser did not hold.
    /// Everything is applied together, rank-sorted, at the completion.
    pub(super) fn lock_issue(&mut self, lock: LockId, plan: &PhasePlan) -> Outstanding {
        let mut pending = Outstanding::new(plan);
        self.stats.lock_acquires(1);
        let me = self.proc_id();
        let (manager, vt, lowered) = {
            let mut proto = self.node.proto.lock();
            let state = proto.locks.entry(lock).or_default();
            assert!(!state.held, "lock {lock} acquired re-entrantly");
            // Mark the acquire as in flight *before* the request leaves:
            // our handlers must queue (not grant) forwarded requests
            // for this lock that the manager ordered after ours, until the
            // grant has been consumed.
            state.requested = true;
            state.sent += 1;
            // The open interval's knowledge before the acquire merges the
            // granter's timestamp: writes made so far in this interval are
            // concurrent with everything this timestamp does not cover. The
            // snapshot rides the in-flight sync for the grant's own piggyback
            // *and* is retained in the protocol state for the rest of the
            // open interval, so a pre-acquire write still compares as
            // concurrent when the racing diff only arrives on a later
            // demand fetch.
            if self.run.race.is_some() {
                pending.race_vt = Some(proto.vt.clone());
                if proto.acquire_race_vt.is_none() {
                    proto.acquire_race_vt = pending.race_vt.clone();
                }
            }
            // The own timestamp picks the grant's notices; only a fetch
            // adds the one lowered below what it misses, for the piggyback.
            let vt = proto.vt.clone();
            let pages = &pending.pages;
            let lowered =
                (!pages.is_empty()).then(|| sync_vt_locked(&mut proto, pages).delta_from(&vt));
            (ProtoState::lock_manager(lock, proto.nprocs), vt, lowered)
        };
        let sync_pages = pending.pages.clone();
        let msg = TmkMessage::LockAcquireRequest { lock, requester: me, vt, sync_pages, lowered };
        self.send_request(manager, msg);
        let env = self.recv_reply(
            "a lock grant",
            |m| matches!(m, TmkMessage::LockGrant { lock: l, .. } if *l == lock),
        );
        self.clock.observe(env.arrives_at);
        let TmkMessage::LockGrant { notices, piggyback, .. } = env.payload else { unreachable!() };
        // One lock hold for the entire acquire-side protocol step.
        let (tally, prep, wants, pages_in_use) = {
            let mut proto = self.node.proto.lock();
            let mut table = self.node.lock_table();
            // The granter's timestamp, merged by the apply: the grant's
            // notices, those above ours, determine it.
            let tally = apply_notices_locked(&mut proto, &mut table, [Segment::Owned(notices)]);
            let state = proto.locks.entry(lock).or_default();
            (state.requested, state.held) = (false, true);
            // Third-party fetch: everything still missing for the requested
            // pages that the grant's piggyback does not already carry.
            let in_hand: HashSet<(PageId, ProcId, Interval)> =
                piggyback.iter().map(|r| (r.page, r.proc, r.interval)).collect();
            let wants = wants_for_pages_locked(&mut proto, &pending.pages, &in_hand);
            let prep = prep_writes_locked(&mut proto, &mut table, plan, &mut pending.deferred);
            (tally, prep, wants, table.pages_in_use())
        };
        self.charge_notices(&tally, pages_in_use);
        self.charge_prep(&prep, pages_in_use);
        pending.fetch_expected = self.send_diff_requests(wants);
        pending.piggyback = piggyback;
        pending
    }

    /// Releases `lock`, ending the current interval and granting the lock
    /// to any queued requester (carrying the write notices they miss).
    ///
    /// # Panics
    ///
    /// Panics if this processor does not hold the lock.
    pub fn lock_release(&mut self, lock: LockId) {
        self.flush_interval();
        let pending = {
            let mut proto = self.node.proto.lock();
            let state = proto.locks.entry(lock).or_default();
            assert!(std::mem::take(&mut state.held), "releasing a lock that is not held");
            std::mem::take(&mut state.queued)
        };
        // Each queued requester is granted exactly as the node's
        // lock-forward handler would have.
        for req in pending {
            let at = req.arrived_at.max(self.clock.now());
            server::send_grant(self.endpoint(), &self.node, lock, &req, at, true);
        }
    }
}

#[cfg(test)]
mod tests {
    use pagedmem::{PageId, PageTable, Protection};

    use super::super::interval::{apply_notices_locked, sync_vt_locked, NoticeTally};
    use crate::notice::{NoticeRecord, Segment};
    use crate::state::ProtoState;
    use crate::types::{Interval, ProcId, Vt};

    fn record(proc: ProcId, interval: Interval, pages: &[usize]) -> NoticeRecord {
        NoticeRecord { proc, interval, pages: pages.iter().copied().map(PageId).collect() }
    }

    /// P1 of three, pages 4–6 mapped, that learned P0's first interval (of
    /// page 4) at a barrier and has not fetched its diff.
    fn acquirer(p0i1: &NoticeRecord) -> (ProtoState, PageTable) {
        let (mut proto, mut table) = (ProtoState::new(1, 3), PageTable::new());
        for page in (4..7).map(PageId) {
            table.map_zeroed(page, Protection::ReadOnly);
            proto.materialise([page]);
        }
        apply_notices_locked(&mut proto, &mut table, [Segment::Owned(vec![p0i1.clone()])]);
        (proto, table)
    }

    /// An acquire that fetches page 4 advertises a timestamp lowered below
    /// the diff it misses, so the grant, every record above that timestamp,
    /// carries P0's first interval again. The acquirer applies it to nothing:
    /// the grant does what the same grant without it does.
    #[test]
    fn a_grant_above_a_lowered_timestamp_applies_only_what_the_acquirer_lacks() {
        let [p0i1, p0i2, p2i1] = [record(0, 1, &[4]), record(0, 2, &[5]), record(2, 1, &[4, 6])];
        let (mut proto, mut table) = acquirer(&p0i1);
        let advertised = sync_vt_locked(&mut proto, &[PageId(4)]);
        assert_eq!((advertised.get(0), proto.vt.get(0)), (0, 1), "lowered below the diff");
        // The granter, P2, holds P0's two intervals and its own.
        let mut granter = ProtoState::new(2, 3);
        for held in [&p0i1, &p0i2, &p2i1] {
            granter.notice_log.record(held.clone());
            granter.vt.advance(held.proc, held.interval);
        }
        let grant = granter.notice_log.clone_after(&advertised);
        assert_eq!(grant, [p0i1, p0i2.clone(), p2i1.clone()], "a record the acquirer holds");
        let tally = apply_notices_locked(&mut proto, &mut table, [Segment::Owned(grant)]);

        let (mut lacking, mut lacking_table) = acquirer(&record(0, 1, &[4]));
        let new = Segment::Owned(vec![p0i2, p2i1]);
        let expected = apply_notices_locked(&mut lacking, &mut lacking_table, [new]);
        let counts = |t: &NoticeTally| (t.recorded, t.invalidation_runs);
        assert_eq!(counts(&tally), counts(&expected), "write notices and protection runs");
        assert_eq!(tally.recorded, 3, "P0's second interval and P2's first: three pages");
        for page in (0..8).map(PageId) {
            assert_eq!(proto.missing_of(page), lacking.missing_of(page), "{page:?}");
            assert_eq!(table.protection(page), lacking_table.protection(page), "{page:?}");
        }
        assert_eq!(proto.missing_of(PageId(4)), [(0, 1), (2, 1)], "no entry twice");
        let nothing = Vt::new(3);
        assert!(proto
            .notice_log
            .records_after(&nothing)
            .eq(lacking.notice_log.records_after(&nothing)));
        assert_eq!(proto.notice_log.interval_count(), 3);
        assert_eq!(proto.vt, lacking.vt);
    }

    /// A node learns each writer's intervals as a prefix: a record at or
    /// below its timestamp that its log lacks — here, one a message skipped
    /// and a later one carries — breaks the rule every apply relies on.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(
        expected = "P1's interval 1 is at or below the timestamp <0,2> but unknown: a hole"
    )]
    fn a_record_below_the_timestamp_the_log_lacks_panics_in_debug_builds() {
        let (mut proto, mut table) = (ProtoState::new(0, 2), PageTable::new());
        let skipped = Segment::Owned(vec![record(1, 2, &[3])]);
        apply_notices_locked(&mut proto, &mut table, [skipped]);
        apply_notices_locked(&mut proto, &mut table, [Segment::Owned(vec![record(1, 1, &[3])])]);
    }
}
