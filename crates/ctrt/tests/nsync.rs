//! The `neighbor_sync` entry point: section-level behaviour of the
//! eliminated-barrier exchange (grant warming, split-phase overlap, and
//! the write-preparation deferral for still-missing pages).

use ctrt::{neighbor_sync, neighbor_sync_issue, validate_w_sync_complete, Access, RegularSection};
use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

fn free_config(nprocs: usize) -> DsmConfig {
    DsmConfig::new(nprocs).with_cost_model(CostModel::free())
}

#[test]
fn neighbour_sync_grants_cover_the_sections_and_faults_stay_zero() {
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * PAGE_SIZE / 8);
        let per = a.len() / 2;
        let me = p.proc_id();
        let other = 1 - me;
        for i in 0..per {
            p.set(&a, me * per + i, (10 * me + 1) as u64 + i as u64);
        }
        let read = RegularSection::array(&a, other * per..(other + 1) * per, Access::Read);
        let grant = neighbor_sync(p, &[other], &[other], &[read]);
        assert!(grant.pages_warmed() > 0, "the ack's data must be warmed into the TLB");
        let faults = p.stats().snapshot().page_faults;
        let got = p.get(&a, other * per + 3);
        assert_eq!(p.stats().snapshot().page_faults, faults, "warmed reads take no fault");
        got
    });
    assert_eq!(run.results, vec![14, 4]);
}

#[test]
fn split_phase_neighbour_sync_overlaps_and_defers_missing_write_prep() {
    // Each processor rewrites its own half (READ&WRITE_ALL: fetched, but
    // twin-free) and reads the other half's previous-round values: issue
    // the sync, write + compute on the local half while the ack is in
    // flight, complete, then touch the fetched half — the hand-written
    // SOR shape, through the public API.
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(2 * PAGE_SIZE / 8);
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
            let pending = neighbor_sync_issue(p, &[other], &[other], &sections);
            for i in 0..per {
                p.set(&a, me * per + i, round * 100 + me as u64);
            }
            let local = p.get(&a, me * per);
            assert_eq!(local, round * 100 + me as u64);
            validate_w_sync_complete(p, pending);
            // The ack delivered the producer's *previous-round* half.
            let expect = if round == 1 { other as u64 } else { (round - 1) * 100 + other as u64 };
            assert_eq!(p.get(&a, other * per), expect, "round {round}");
        }
        p.stats().snapshot().twins_created
    });
    // WRITE_ALL / READ&WRITE_ALL on page-covering sections: no twin, ever.
    assert_eq!(run.results, vec![0, 0]);
}
