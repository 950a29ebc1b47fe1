//! The split-phase `Validate_w_sync` contract: issue at the phase
//! boundary, overlap, complete at the point of first use — without ever
//! exposing stale data, and ending with the fast-path mappings cached.

use ctrt::{
    validate_w_sync, validate_w_sync_complete, validate_w_sync_issue, Access, RegularSection,
    SyncOp,
};
use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

fn config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

#[test]
fn issue_then_complete_matches_the_blocking_form() {
    let blocking = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(4 * ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            for page in 0..4 {
                p.set(&a, page * ELEMS_PER_PAGE, 11);
            }
        }
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        validate_w_sync(p, SyncOp::Barrier, &[read]);
        (0..4).map(|page| p.get(&a, page * ELEMS_PER_PAGE)).sum::<u64>()
    });
    let split = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(4 * ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            for page in 0..4 {
                p.set(&a, page * ELEMS_PER_PAGE, 11);
            }
        }
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, &[read]);
        // "Computation" that touches nothing pending.
        let local = (0..100).sum::<u64>();
        let grant = validate_w_sync_complete(p, pending);
        assert!(
            grant.pages_warmed() >= 4,
            "completion must warm the fetched section: {} pages",
            grant.pages_warmed()
        );
        local - local + (0..4).map(|page| p.get(&a, page * ELEMS_PER_PAGE)).sum::<u64>()
    });
    assert_eq!(blocking.results, split.results);
    let t = split.stats.total();
    assert_eq!(t.split_phase_issues, 2, "both processors issued");
    assert_eq!(t.split_phase_completes, 2, "both processors completed");
}

#[test]
fn a_pending_handle_never_exposes_stale_data() {
    let run = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        // Round 1: the consumer caches the old value on a warm mapping.
        if p.proc_id() == 0 {
            p.set(&a, 0, 1);
        }
        p.barrier();
        assert_eq!(p.get(&a, 0), 1, "warm the stale-candidate mapping");
        p.barrier();
        // Round 2: the producer overwrites; the consumer issues the merged
        // fetch and then touches the page *before* completing.
        if p.proc_id() == 0 {
            p.set(&a, 0, 2);
        }
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, &[read]);
        let early = if p.proc_id() == 1 {
            let faults = p.stats().snapshot().page_faults;
            // The issue's write notices invalidated the page, so the early
            // access faults (and the fault handler completes the pending
            // fetch) instead of serving stale bytes from the warm mapping.
            let v = p.get(&a, 0);
            assert!(
                p.stats().snapshot().page_faults > faults,
                "an early access to a pending page must fault, not read stale"
            );
            v
        } else {
            2
        };
        assert_eq!(early, 2, "a pending handle must never expose stale data");
        // Nothing is left for the completion to do.
        validate_w_sync_complete(p, pending);
        p.get(&a, 0)
    });
    assert_eq!(run.results, vec![2, 2]);
}

#[test]
fn completed_grants_run_lock_free_and_go_stale_on_protection_changes() {
    Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.set(&a, 0, 3);
            p.set(&a, ELEMS_PER_PAGE, 4);
        }
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, &[read]);
        validate_w_sync_complete(p, pending);
        // Quiesce, then prove the phase body is lock-free on the grant.
        p.barrier();
        let locks = p.stats().snapshot().table_lock_acquires;
        let sum = p.get(&a, 0) + p.get(&a, ELEMS_PER_PAGE);
        assert_eq!(
            p.stats().snapshot().table_lock_acquires,
            locks,
            "a completed phase must take zero table-lock acquisitions"
        );
        assert_eq!(sum, 7);
        // A protection change ends the grant's promise: the next barrier's
        // notice invalidates the consumer's page, and its cached mapping
        // faults and fetches instead of serving the old value.
        if p.proc_id() == 0 {
            p.set(&a, 0, 30);
        }
        p.barrier();
        let faults = p.stats().snapshot().page_faults;
        assert_eq!(p.get(&a, 0), 30);
        let faulted = p.stats().snapshot().page_faults - faults;
        assert_eq!(faulted, u64::from(p.proc_id() == 1));
        sum
    });
}

#[test]
fn dropped_pending_handles_do_not_corrupt_later_barriers() {
    // Abandoning a handle forfeits its fetch but must not pollute later
    // completions: the stale `SyncDiffs` of the dropped barrier carry an
    // older ordinal and are consumed-and-discarded, never mistaken for
    // the new barrier's response.
    let run = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        if p.proc_id() == 0 {
            p.set(&a, 0, 1);
        }
        let _ = validate_w_sync_issue(p, SyncOp::Barrier, std::slice::from_ref(&read));
        if p.proc_id() == 0 {
            p.set(&a, 0, 2);
        }
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, std::slice::from_ref(&read));
        validate_w_sync_complete(p, pending);
        // The completion must have made the page fully consistent: the
        // read neither faults nor sees the dropped barrier's value.
        let faults = p.stats().snapshot().page_faults;
        let v = p.get(&a, 0);
        assert_eq!(
            p.stats().snapshot().page_faults,
            faults,
            "the completion must fully satisfy the page, not leave it to the fault path"
        );
        v
    });
    assert_eq!(run.results, vec![2, 2]);
}

#[test]
fn split_lock_sync_overlaps_the_releasers_diffs() {
    const LOCK: treadmarks::LockId = 5;
    let run = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.lock_acquire(LOCK);
            p.set(&a, 7, 70);
            p.lock_release(LOCK);
            p.barrier();
            70
        } else {
            p.barrier();
            let read = RegularSection::array(&a, 0..a.len(), Access::Read);
            let pending = validate_w_sync_issue(p, SyncOp::Lock(LOCK), &[read]);
            let grant = validate_w_sync_complete(p, pending);
            assert!(grant.pages_warmed() >= 1);
            let v = p.get(&a, 7);
            p.lock_release(LOCK);
            v
        }
    });
    assert_eq!(run.results, vec![70, 70]);
}

// ---------------------------------------------------------------------
// First touch completes: an access to a page the in-flight fetch covers
// runs the pending synchronization's completion instead of fetching data
// that is already on the wire.
// ---------------------------------------------------------------------

fn sp2(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::sp2())
}

/// What a processor of a first-touch scenario reports: the value it read,
/// the faults the read took, and the virtual time its
/// `validate_w_sync_complete` added.
type Touch = (u64, u64, sp2model::VirtualTime);

/// Reads `a[index]` between issue and complete (`early`) or after the
/// complete, and reports the [`Touch`].
fn touch_and_complete(
    p: &mut treadmarks::Process,
    pending: treadmarks::PendingSync,
    a: &treadmarks::SharedArray<u64>,
    index: usize,
    early: bool,
) -> Touch {
    let faults = p.stats().snapshot().page_faults;
    let touched = early.then(|| p.get(a, index));
    let before = p.clock().now();
    validate_w_sync_complete(p, pending);
    let added = p.clock().now().saturating_sub(before);
    let value = touched.unwrap_or_else(|| p.get(a, index));
    (value, p.stats().snapshot().page_faults - faults, added)
}

/// Runs `scenario` with the touch before and after the complete and checks
/// what first-touch completion promises of processor `consumer`: the same
/// value either way, exactly one fault for the early touch and none for the
/// late one, **no** demand fetch (the cluster sends the same number of
/// messages both ways — at the parent commit the early touch cost a
/// `DiffRequest` and its response), and a complete that, after the early
/// touch, adds no virtual time.
fn assert_first_touch_completes(
    nprocs: usize,
    consumer: usize,
    expect: u64,
    scenario: impl Fn(&mut treadmarks::Process, bool) -> Touch + Copy + Send + Sync + 'static,
) {
    let early = Dsm::run(sp2(nprocs), move |p| scenario(p, true));
    let late = Dsm::run(sp2(nprocs), move |p| scenario(p, false));
    let (value, faults, added) = early.results[consumer];
    assert_eq!(value, expect, "the early touch reads the new value");
    assert_eq!(late.results[consumer].0, expect);
    assert_eq!(faults, 1, "the early touch traps once");
    assert_eq!(late.results[consumer].1, 0, "after the complete the page is valid");
    assert_eq!(
        early.stats.total().messages_sent,
        late.stats.total().messages_sent,
        "the early touch must not fetch what is already in flight"
    );
    assert_eq!(added, sp2model::VirtualTime::ZERO, "an already completed receipt is free");
    assert!(late.results[consumer].2 > sp2model::VirtualTime::ZERO, "the late run waits there");
    assert_eq!(
        early.stats.total().diffs_applied,
        late.stats.total().diffs_applied,
        "the same diffs land either way"
    );
}

#[test]
fn a_first_touch_completes_a_barrier_merged_fetch() {
    assert_first_touch_completes(2, 1, 2, |p, early| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            p.set(&a, 0, 1);
        }
        p.barrier();
        assert_eq!(p.get(&a, 0), 1);
        p.barrier();
        if p.proc_id() == 0 {
            p.set(&a, 0, 2);
        }
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, &[read]);
        let touch = touch_and_complete(p, pending, &a, 0, early);
        p.barrier();
        touch
    });
}

#[test]
fn a_first_touch_completes_a_lock_grant_with_a_third_party_fetch_outstanding() {
    const LOCK: treadmarks::LockId = 3;
    // P0 and then P1 write the word under the lock; P2 learns of P0's
    // interval at a barrier and of P1's with the grant, whose piggyback
    // carries P1's diff only — P0's is a third-party fetch, in flight when
    // P2 touches the page.
    assert_first_touch_completes(3, 2, 9, |p, early| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let idle = (0, 0, sp2model::VirtualTime::ZERO);
        match p.proc_id() {
            0 => {
                p.lock_acquire(LOCK);
                p.set(&a, 0, 7);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                p.barrier();
                idle
            }
            1 => {
                p.barrier();
                p.lock_acquire(LOCK);
                p.set(&a, 0, 9);
                p.lock_release(LOCK);
                p.barrier();
                p.barrier();
                idle
            }
            _ => {
                p.barrier();
                p.barrier();
                let read = RegularSection::array(&a, 0..a.len(), Access::Read);
                let pending = validate_w_sync_issue(p, SyncOp::Lock(LOCK), &[read]);
                assert!(pending.outstanding() >= 1, "the third-party fetch is in flight");
                let touch = touch_and_complete(p, pending, &a, 0, early);
                ctrt::release(p, LOCK);
                p.barrier();
                touch
            }
        }
    });
}

#[test]
fn a_dropped_receipt_still_leaves_no_stale_response_behind() {
    // Two ways to abandon a receipt, both followed by another merged
    // barrier whose completion must see its own data only (debug builds end
    // the run by checking that no reply was left unconsumed): touch the
    // covered page anyway — the fault handler completes the abandoned
    // synchronization — or touch nothing, and the next completion discards
    // the older ordinal's `SyncDiffs`.
    for touch in [true, false] {
        let run = Dsm::run(sp2(2), move |p| {
            let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
            let read = RegularSection::array(&a, 0..a.len(), Access::Read);
            if p.proc_id() == 0 {
                p.set(&a, 0, 1);
            }
            let _ = validate_w_sync_issue(p, SyncOp::Barrier, std::slice::from_ref(&read));
            let first = if touch { p.get(&a, 0) } else { 1 };
            if p.proc_id() == 0 {
                p.set(&a, 0, 2);
            }
            let pending = validate_w_sync_issue(p, SyncOp::Barrier, std::slice::from_ref(&read));
            validate_w_sync_complete(p, pending);
            let faults = p.stats().snapshot().page_faults;
            let second = p.get(&a, 0);
            assert_eq!(p.stats().snapshot().page_faults, faults, "touch = {touch}");
            (first, second)
        });
        assert_eq!(run.results, vec![(1, 2), (1, 2)], "touch = {touch}");
        // Arrival, departure and P0's `SyncDiffs`, twice: no demand fetch
        // either way — with the touch, the abandoned synchronization's own
        // data serves the read.
        assert_eq!(run.stats.total().messages_sent, 2 * 3, "touch = {touch}");
    }
}

#[test]
fn a_dropped_receipt_at_the_same_ordinal_never_completes_a_lock_grant() {
    const LOCK: treadmarks::LockId = 4;
    // A receipt names its synchronization by `(kind, ordinal)`. P0 leaves
    // the first barrier's receipt, `(Barrier, 1)`, uncompleted and then
    // issues its first acquire, `(LockGrant, 1)`: completing the stale
    // receipt must do nothing, the grant's own completion must still
    // install the page, and P1's unread answer to the barrier is discarded
    // by the next barrier that waits for P1 (debug builds end the run by
    // checking that no reply was left unconsumed).
    let run = Dsm::run(config(2), |p| {
        let me = p.proc_id();
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        let reads = std::slice::from_ref(&read);
        // A valid copy of the page, through a word nobody writes before
        // the end.
        assert_eq!(p.get(&a, 1), 0);
        if me == 1 {
            p.set(&a, 0, 1);
        }
        let barrier = validate_w_sync_issue(p, SyncOp::Barrier, reads);
        if me == 0 {
            let grant = validate_w_sync_issue(p, SyncOp::Lock(LOCK), reads);
            assert_eq!(validate_w_sync_complete(p, barrier).pages_warmed(), 0, "stale receipt");
            assert!(validate_w_sync_complete(p, grant).pages_warmed() > 0, "the grant's own");
            ctrt::release(p, LOCK);
        } else {
            validate_w_sync_complete(p, barrier);
        }
        let faults = p.stats().snapshot().page_faults;
        let first = p.get(&a, 0);
        assert_eq!(p.stats().snapshot().page_faults, faults, "P{me}: the data landed");
        if me == 1 {
            p.set(&a, 1, 3);
        }
        let pending = validate_w_sync_issue(p, SyncOp::Barrier, reads);
        validate_w_sync_complete(p, pending);
        (first, p.get(&a, 1))
    });
    assert_eq!(run.results, vec![(1, 3), (1, 3)]);
}

#[test]
fn split_phase_barrier_overlaps_and_defers_missing_write_prep() {
    // Each processor rewrites its own half (READ&WRITE_ALL: fetched, but
    // twin-free) and reads the other half's previous-round values: issue
    // the barrier, write + compute on the local half while the other half
    // is in flight, complete, then touch the fetched half — the in-place
    // sweep shape, through the public API.
    let run = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let per = a.len() / 2;
        let me = p.proc_id();
        let other = 1 - me;
        let own = RegularSection::array(&a, me * per..(me + 1) * per, Access::WriteAll);
        ctrt::validate(p, &[own]);
        for i in 0..per {
            p.set(&a, me * per + i, me as u64);
        }
        for round in 1..3u64 {
            let sections = [
                RegularSection::array(&a, other * per..(other + 1) * per, Access::Read),
                RegularSection::array(&a, me * per..(me + 1) * per, Access::ReadWriteAll),
            ];
            // The issue flushes the previous round's writes and prepares
            // the local half for this round's.
            let pending = validate_w_sync_issue(p, SyncOp::Barrier, &sections);
            for i in 0..per {
                p.set(&a, me * per + i, round * 100 + me as u64);
            }
            assert_eq!(p.get(&a, me * per), round * 100 + me as u64);
            validate_w_sync_complete(p, pending);
            // The barrier delivered the other half as of the barrier: the
            // previous round's values.
            let expect = if round == 1 { other as u64 } else { (round - 1) * 100 + other as u64 };
            assert_eq!(p.get(&a, other * per), expect, "round {round}");
        }
        p.stats().snapshot().twins_created
    });
    // WRITE_ALL / READ&WRITE_ALL on page-covering sections: no twin, ever.
    assert_eq!(run.results, vec![0, 0]);
}
