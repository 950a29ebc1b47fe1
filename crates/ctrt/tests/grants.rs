//! Section grants: the aggregate calls must leave the phase's fast-path
//! mappings cached, so the phase body runs with zero page-table-lock
//! acquisitions, and a grant must lapse the moment protection changes.

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
fn validate_grant_prewarms_the_phase_to_zero_table_locks() {
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
            after.table_lock_acquires, before.table_lock_acquires,
            "a granted phase must take zero global-lock acquisitions"
        );
        assert_eq!(after.tlb_misses, before.tlb_misses, "all fetched pages must be warmed");
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
            after.table_lock_acquires, before.table_lock_acquires,
            "reading pushed data through the grant must be lock-free"
        );
        assert_eq!(after.tlb_misses, before.tlb_misses, "the received range must be warmed");
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
        let misses_and_faults = |p: &mut treadmarks::Process| {
            let s = p.stats().snapshot();
            (s.tlb_misses, s.page_faults)
        };
        validate(p, &write);
        p.set(&a, 0, 1);
        assert_eq!(misses_and_faults(p), (0, 0), "a granted write finds its mapping, no fault");
        // The release write-protects what the phase wrote: the mapping
        // stays cached, and the next write through it faults (a TLB miss is
        // a page fault: only the frame's own protection refuses).
        p.barrier();
        p.set(&a, 0, 2);
        assert_eq!(misses_and_faults(p), (1, 1));
        validate(p, &write);
        p.set(&a, 0, 3);
        assert_eq!(misses_and_faults(p), (1, 1), "the same mapping, still cached");
    });
}
