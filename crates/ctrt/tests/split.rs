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
            // access takes the ordinary fault path (a redundant but correct
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
        // The completion drops the now-redundant sync responses harmlessly.
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
