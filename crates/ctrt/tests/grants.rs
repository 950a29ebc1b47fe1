//! Section grants: the aggregate calls must leave the phase's pages valid,
//! so the phase body takes no fault and one page-table-lock hold per
//! access, and a grant must lapse the moment protection changes.

use ctrt::{push_phase, validate, Access, Push, RegularSection};
use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;
const PAGES: usize = 4;

fn config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

#[test]
fn a_validated_phase_takes_one_table_lock_per_access_and_no_fault() {
    Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(PAGES * ELEMS_PER_PAGE);
        if p.proc_id() == 0 {
            for page in 0..PAGES {
                p.set(&a, page * ELEMS_PER_PAGE, 7);
            }
        }
        p.barrier();
        validate(p, &[RegularSection::array(&a, 0..a.len(), Access::Read)]);
        // Quiesce: after this barrier no requests are in flight, so the
        // node's lock counter moves only if *this* phase touches the table.
        p.barrier();
        let before = p.stats().snapshot();
        let mut buf = vec![0u64; a.len()];
        p.get_slice(&a, 0..a.len(), &mut buf);
        let sum: u64 = (0..a.len()).map(|i| p.get(&a, i)).sum();
        let after = p.stats().snapshot();
        assert_eq!(
            after.table_lock_acquires - before.table_lock_acquires,
            (PAGES + a.len()) as u64,
            "one global-lock hold per page-run and per element access"
        );
        assert_eq!(after.page_faults, before.page_faults, "all fetched pages must be valid");
        assert_eq!(sum, 7 * PAGES as u64);
        assert_eq!(buf[0], 7);
        sum
    });
}

#[test]
fn push_grant_covers_the_received_data() {
    let run = Dsm::run(config(2), |p| {
        let a = p.alloc_array::<u64>(2 * ELEMS_PER_PAGE);
        let me = p.proc_id();
        let other = 1 - me;
        let half = a.len() / 2;
        let mine = RegularSection::array(&a, me * half..(me + 1) * half, Access::WriteAll);
        validate(p, std::slice::from_ref(&mine));
        for i in 0..half {
            p.set(&a, me * half + i, (10 + me) as u64);
        }
        push_phase(p, &[Push::new(other, std::slice::from_ref(&mine))], &[other]);
        let before = p.stats().snapshot();
        let sum: u64 = (other * half..(other + 1) * half).map(|i| p.get(&a, i)).sum();
        let after = p.stats().snapshot();
        assert_eq!(
            after.table_lock_acquires - before.table_lock_acquires,
            half as u64,
            "reading pushed data takes one global-lock hold per access"
        );
        assert_eq!(after.page_faults, before.page_faults, "the received range must be valid");
        sum
    });
    let half = ELEMS_PER_PAGE as u64;
    assert_eq!(run.results, vec![11 * half, 10 * half]);
}

#[test]
fn grants_go_stale_when_protection_changes() {
    Dsm::run(config(1), |p| {
        let a = p.alloc_array::<u64>(ELEMS_PER_PAGE);
        let write = [RegularSection::array(&a, 0..a.len(), Access::Write)];
        let faults = |p: &mut treadmarks::Process| p.stats().snapshot().page_faults;
        validate(p, &write);
        p.set(&a, 0, 1);
        assert_eq!(faults(p), 0, "a granted write takes no fault");
        // The release write-protects what the phase wrote, and the next
        // write faults: only the frame's own protection refuses.
        p.barrier();
        p.set(&a, 0, 2);
        assert_eq!(faults(p), 1);
        validate(p, &write);
        p.set(&a, 0, 3);
        assert_eq!(faults(p), 1, "the page is still writable");
    });
}
