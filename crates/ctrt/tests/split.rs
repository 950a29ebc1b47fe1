//! The split-phase `Validate_w_sync` contract: synchronize at the phase
//! boundary, run the overlap body, complete before the point of first use —
//! without ever exposing stale data, and ending with the fast-path mappings
//! cached.

use ctrt::{validate_w_sync, validate_w_sync_overlapped, Access, RegularSection, SyncOp};
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
        let mut local = 0;
        // "Computation" that touches nothing pending.
        validate_w_sync_overlapped(p, SyncOp::Barrier, &[read], |_| local = (0..100).sum::<u64>());
        let misses = p.stats().snapshot().tlb_misses;
        let sum = (0..4).map(|page| p.get(&a, page * ELEMS_PER_PAGE)).sum::<u64>();
        assert_eq!(
            p.stats().snapshot().tlb_misses,
            misses,
            "completion must warm the fetched section"
        );
        local - local + sum
    });
    assert_eq!(blocking.results, split.results);
    let t = split.stats.total();
    assert_eq!(t.split_phase_issues, 2, "both processors issued and completed");
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
        let mut early = 2;
        validate_w_sync_overlapped(p, SyncOp::Barrier, &[read], |p| {
            if p.proc_id() == 1 {
                let faults = p.stats().snapshot().page_faults;
                // The synchronization's write notices invalidated the page,
                // so the early access faults (and the fault handler
                // completes the pending fetch) instead of serving stale
                // bytes from the warm mapping.
                early = p.get(&a, 0);
                assert!(
                    p.stats().snapshot().page_faults > faults,
                    "an early access to a pending page must fault, not read stale"
                );
            }
        });
        assert_eq!(early, 2, "a pending fetch must never expose stale data");
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
        validate_w_sync_overlapped(p, SyncOp::Barrier, &[read], |_| {});
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
            validate_w_sync_overlapped(p, SyncOp::Lock(LOCK), &[read], |_| {});
            let misses = p.stats().snapshot().tlb_misses;
            let v = p.get(&a, 7);
            assert_eq!(p.stats().snapshot().tlb_misses, misses, "the fetched page is warm");
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
/// the faults the read took, and the virtual time the completion after the
/// overlap body added.
type Touch = (u64, u64, sp2model::VirtualTime);

/// Runs `validate_w_sync_overlapped` on `read`, reading `a[index]` in the
/// overlap body (`early`) or after the call, and reports the [`Touch`].
fn touch_and_complete(
    p: &mut treadmarks::Process,
    sync: SyncOp,
    read: RegularSection,
    a: &treadmarks::SharedArray<u64>,
    index: usize,
    early: bool,
) -> Touch {
    let faults = p.stats().snapshot().page_faults;
    let (mut touched, mut body_end) = (None, sp2model::VirtualTime::ZERO);
    validate_w_sync_overlapped(p, sync, &[read], |p| {
        touched = early.then(|| p.get(a, index));
        body_end = p.clock().now();
    });
    let added = p.clock().now().saturating_sub(body_end);
    let value = touched.unwrap_or_else(|| p.get(a, index));
    (value, p.stats().snapshot().page_faults - faults, added)
}

/// Runs `scenario` with the touch before and after the complete and checks
/// what first-touch completion promises of processor `consumer`: the same
/// value either way, exactly one fault for the early touch and none for the
/// late one, **no** demand fetch (the cluster sends the same number of
/// messages both ways: the early touch costs no `DiffRequest` and no
/// response), and a completion that, after the early touch, adds no
/// virtual time.
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
    assert_eq!(added, sp2model::VirtualTime::ZERO, "an already completed fetch is free");
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
        let touch = touch_and_complete(p, SyncOp::Barrier, read, &a, 0, early);
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
                let waited = p.stats().snapshot().sync_wait_ns;
                let touch = touch_and_complete(p, SyncOp::Lock(LOCK), read, &a, 0, early);
                let waited = p.stats().snapshot().sync_wait_ns - waited;
                assert!(waited > 0, "the third-party fetch is in flight");
                ctrt::release(p, LOCK);
                p.barrier();
                touch
            }
        }
    });
}

#[test]
fn split_phase_barrier_overlaps_and_defers_missing_write_prep() {
    // Each processor rewrites its own half (READ&WRITE_ALL: fetched, but
    // twin-free) and reads the other half's previous-round values: cross
    // the barrier, write + compute on the local half in the overlap body
    // while the other half is in flight, then touch the fetched half — the
    // in-place sweep shape, through the public API.
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
            // The synchronization flushes the previous round's writes and
            // prepares the local half for this round's.
            validate_w_sync_overlapped(p, SyncOp::Barrier, &sections, |p| {
                for i in 0..per {
                    p.set(&a, me * per + i, round * 100 + me as u64);
                }
                assert_eq!(p.get(&a, me * per), round * 100 + me as u64);
            });
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

#[test]
#[should_panic(expected = "issued inside another's overlap body")]
fn a_synchronization_issued_inside_an_overlap_body_panics() {
    // One synchronization is in flight at a time: the overlap body runs
    // between an issue and its completion, so it may not issue another.
    Dsm::run(config(1), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let read = RegularSection::array(&a, 0..a.len(), Access::Read);
        validate_w_sync_overlapped(p, SyncOp::Barrier, &[read], |p| p.barrier());
    });
}
