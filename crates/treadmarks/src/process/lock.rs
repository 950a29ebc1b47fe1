//! Locks: the acquire (plain, or carrying a merged fetch) and the release.

use std::collections::HashSet;

use pagedmem::PageId;

use super::access::warm_ranges_locked;
use super::interval::{apply_notices_locked, sync_vt_locked};
use super::sync::{prep_writes_locked, wants_for_pages_locked, Outstanding, PhasePlan};
use super::{Process, SyncOp};
use crate::message::TmkMessage;
use crate::notice::raise_through;
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
        let (manager, request_vt) = {
            let mut proto = self.node.unleased().proto();
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
            // With no pages requested this is the timestamp itself.
            let request_vt = sync_vt_locked(&mut proto, &pending.pages);
            (ProtoState::lock_manager(lock, proto.nprocs), request_vt)
        };
        let msg = TmkMessage::LockAcquireRequest {
            lock,
            requester: me,
            vt: request_vt,
            sync_pages: pending.pages.clone(),
        };
        self.send_request(manager, msg);
        let env = self.recv_reply(
            "a lock grant",
            |m| matches!(m, TmkMessage::LockGrant { lock: l, .. } if *l == lock),
        );
        self.clock.observe(env.arrives_at);
        let TmkMessage::LockGrant { notices, piggyback, .. } = env.payload else { unreachable!() };
        // One lock hold for the entire acquire-side protocol step.
        let (tally, prep, wants, pages_in_use) = {
            let mut node = self.node.unleased();
            let mut proto = node.proto();
            let mut table = node.table();
            // The granter's timestamp, merged: ours covers the one we
            // advertised, so the grant's notices determine it.
            raise_through(&mut proto.vt, &notices);
            let tally = apply_notices_locked(&mut proto, &mut table, notices);
            let state = proto.locks.entry(lock).or_default();
            (state.requested, state.held) = (false, true);
            // Third-party fetch: everything still missing for the requested
            // pages that the grant's piggyback does not already carry.
            let in_hand: HashSet<(PageId, ProcId, Interval)> =
                piggyback.iter().map(|r| (r.page, r.proc, r.interval)).collect();
            let wants = wants_for_pages_locked(&mut proto, &pending.pages, &in_hand);
            let prep = prep_writes_locked(&mut proto, &mut table, plan, &mut pending.deferred);
            // Cache what is mapped so the overlap body runs lock-free.
            warm_ranges_locked(&mut node, &table, &plan.warm);
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
        let node = self.node.unleased();
        let pending = {
            let mut proto = node.proto();
            let state = proto.locks.entry(lock).or_default();
            assert!(std::mem::take(&mut state.held), "releasing a lock that is not held");
            std::mem::take(&mut state.queued)
        };
        for req in pending {
            let endpoint = &self.lanes[self.me].endpoint;
            node.grant(endpoint, lock, &req, req.arrived_at.max(self.clock.now()));
        }
    }
}
