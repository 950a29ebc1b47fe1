//! The `neighbor_sync` entry point, which is a full barrier with the
//! sections validated on it (`validate_w_sync` at `SyncOp::Barrier`): the
//! named producers' modifications arrive before first use, with the
//! sections' mappings cached, whatever the producer and consumer sets say.

use ctrt::{neighbor_sync, Access, RegularSection};
use pagedmem::PAGE_SIZE;
use sp2model::{CostModel, VirtualTime};
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
        neighbor_sync(p, &[other], &[other], &[read]);
        let before = p.stats().snapshot();
        let got = p.get(&a, other * per + 3);
        let after = p.stats().snapshot();
        assert_eq!(after.page_faults, before.page_faults, "warmed reads take no fault");
        assert_eq!(after.tlb_misses, before.tlb_misses, "the fetched data's mapping is cached");
        got
    });
    assert_eq!(run.results, vec![14, 4]);
}

#[test]
fn neighbour_sync_delivers_the_producers_modifications() {
    // Each processor owns one page and reads its chain neighbours' pages
    // after the call: the barrier-merged fetch made them consistent, so the
    // reads take no fault.
    let run = Dsm::run(free_config(4), |p| {
        let a = p.alloc_array::<u64>(4 * PAGE_SIZE / 8);
        let per = a.len() / 4;
        let me = p.proc_id();
        for i in 0..per {
            p.set(&a, me * per + i, (100 * me + i) as u64);
        }
        let neighbours: Vec<usize> =
            [me.checked_sub(1), Some(me + 1)].into_iter().flatten().filter(|&n| n < 4).collect();
        let reads: Vec<RegularSection> = neighbours
            .iter()
            .map(|&n| RegularSection::array(&a, n * per..(n + 1) * per, Access::Read))
            .collect();
        neighbor_sync(p, &neighbours, &neighbours, &reads);
        let faults_before = p.stats().snapshot().page_faults;
        let sum: u64 = neighbours
            .iter()
            .flat_map(|&n| (0..per).map(move |i| n * per + i))
            .map(|i| p.get(&a, i))
            .sum();
        assert_eq!(p.stats().snapshot().page_faults, faults_before);
        sum
    });
    let chunk = |n: u64| (0..512u64).map(|i| 100 * n + i).sum::<u64>();
    assert_eq!(run.results, vec![chunk(1), chunk(0) + chunk(2), chunk(1) + chunk(3), chunk(2)]);
    // One barrier per processor, and none of the retired counters moves.
    let total = run.stats.total();
    assert_eq!(total.barriers, 4);
    assert_eq!(
        (total.neighbor_syncs, total.barriers_eliminated, total.merged_sync_msgs),
        (0, 0, 0)
    );
}

#[test]
fn a_lagging_producer_still_delivers_its_diffs_before_first_use() {
    // The consumer's call must not return before the lagging producer's
    // diffs have arrived: its first use reads the producer's values, never
    // zeros, and its clock shows the wait.
    let lag = VirtualTime::from_millis(80);
    let run = Dsm::run(free_config(2), |p| {
        let a = p.alloc_array::<u64>(PAGE_SIZE / 8);
        if p.proc_id() == 0 {
            for i in 0..a.len() {
                p.set(&a, i, 7000 + i as u64);
            }
            // The producer falls far behind before reaching the boundary.
            p.compute(lag);
            neighbor_sync(p, &[], &[1], &[]);
            0
        } else {
            let read = RegularSection::array(&a, 0..a.len(), Access::Read);
            neighbor_sync(p, &[0], &[], &[read]);
            p.get(&a, 3)
        }
    });
    assert_eq!(run.results[1], 7003, "the consumer must see the lagging producer's writes");
    assert!(run.elapsed[1] >= lag, "the call must stall until the lagging producer arrives");
}
