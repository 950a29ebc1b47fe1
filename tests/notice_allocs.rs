//! What a write notice costs the nodes that never map its pages: nothing per
//! page. A node keeps a missing list only for a page it maps or asks for,
//! so a notice naming pages it never touches allocates nothing for them.
//! This binary counts every allocation of the process, so it holds exactly
//! one test.

mod counting;

use pagedmem::PAGE_SIZE;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

const BARRIERS: usize = 40;

/// Allocations of a run on `nprocs` processors in which processor 0 writes
/// `pages` pages nobody has written before in each of [`BARRIERS`]
/// intervals, and everybody else only crosses the barriers; and the
/// processor-barriers it ran.
fn run(nprocs: usize, pages: usize) -> (u64, u64) {
    let config = DsmConfig::new(nprocs).with_cost_model(CostModel::free());
    let (run, allocations, _) = counting::allocations_during(|| {
        Dsm::run(config, move |p| {
            let words = PAGE_SIZE / 4;
            let a = p.alloc_array::<u32>(BARRIERS * pages * words);
            for barrier in 0..BARRIERS {
                if p.proc_id() == 0 {
                    for page in barrier * pages..(barrier + 1) * pages {
                        p.set(&a, page * words, 1);
                    }
                }
                p.barrier();
            }
        })
    });
    (allocations, run.stats.total().barriers)
}

#[test]
fn a_notice_allocates_nothing_per_page_on_nodes_that_never_map_it() {
    let (few, many) = (1, 32);
    // Warm the processor pool so that no run pays for its threads.
    run(8, few);
    let mut extra = [0f64; 2];
    for (slot, nprocs) in [2, 8].into_iter().enumerate() {
        let (a_few, proc_barriers) = run(nprocs, few);
        let (a_many, _) = run(nprocs, many);
        println!(
            "{nprocs} processors: {:.1} allocations per processor-barrier with {few} page \
             written per interval, {:.1} with {many}",
            a_few as f64 / proc_barriers as f64,
            a_many as f64 / proc_barriers as f64,
        );
        extra[slot] = a_many as f64 - a_few as f64;
    }
    // The writer's own pages cost both clusters the same; what the six
    // more receivers add for each page they are told of and never map is
    // what a notice costs per page.
    let receiver_pages = (6 * (many - few) * BARRIERS) as f64;
    let per_page = (extra[1] - extra[0]) / receiver_pages;
    println!("{per_page:.4} allocations per noticed page on a node that never maps it");
    assert!(per_page < 0.05, "{per_page:.4} allocations per noticed page never mapped");
}
