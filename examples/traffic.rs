//! Prints the message/byte/fault counts and table-lock acquisitions of the
//! same neighbour-exchange access pattern under the protocol variants,
//! reproducing the paper's qualitative result: each step up the interface
//! (`Validate`, `Validate_w_sync`, `Push`) strictly reduces traffic.
//! The story continues with the *generated* plan: the same pattern
//! described as a two-phase IR, classified by `rsdcomp` (a pushable ring)
//! and executed from the compiled plan — landing on the hand-coded push's
//! 4 messages without a single hand-written protocol call.
//!
//! It ends with the cautionary tale: the same exchange run with the
//! synchronization *removed* and the race detector collecting. Every
//! protocol variant above is report-free; the unsynchronized one is not,
//! and the detector names the offending page and processor pair.
//!
//! Run with `cargo run --example traffic`.

use ctrt_dsm::ctrt::{push_phase, validate, validate_w_sync, Access, Push, RegularSection, SyncOp};
use ctrt_dsm::pagedmem::PAGE_SIZE;
use ctrt_dsm::rsdcomp::{self, ArrayDecl, ColSpan, Node, Phase, SectionAccess};
use ctrt_dsm::sp2model::CostModel;
use ctrt_dsm::treadmarks::{Dsm, DsmConfig, Process, RaceDetect};

const NPROCS: usize = 4;
const PAGES_PER_PROC: usize = 3;
const ELEMS_PER_PAGE: usize = PAGE_SIZE / 8;

fn main() {
    let elems = NPROCS * PAGES_PER_PROC * ELEMS_PER_PAGE;
    let chunk = elems / NPROCS;
    let cfg = || DsmConfig::new(NPROCS).with_cost_model(CostModel::sp2());
    let report = |name: &str, run: &ctrt_dsm::treadmarks::DsmRun<u64>| {
        let t = run.stats.total();
        println!(
            "{name:16} msgs={:4} bytes={:7} segv={:3} tlocks={:5} time={}",
            t.messages_sent,
            t.bytes_sent,
            t.page_faults,
            t.table_lock_acquires,
            run.execution_time()
        );
    };
    let pattern = |p: &mut Process, mode: u8| {
        let a = p.alloc_array::<u64>(elems);
        let me = p.proc_id();
        for i in 0..chunk {
            p.set(&a, me * chunk + i, i as u64);
        }
        let n = (me + 1) % NPROCS;
        let wanted = n * chunk..(n + 1) * chunk;
        let section = RegularSection::array(&a, wanted.clone(), Access::Read);
        match mode {
            0 => p.barrier(),
            1 => {
                p.barrier();
                validate(p, &[section]);
            }
            _ => {
                validate_w_sync(p, SyncOp::Barrier, &[section]);
            }
        }
        wanted.map(|i| p.get(&a, i)).sum::<u64>()
    };
    for (name, mode) in [("plain faulting", 0u8), ("Validate", 1), ("Validate_w_sync", 2)] {
        let run = Dsm::run(cfg(), |p| pattern(p, mode));
        report(name, &run);
    }
    let run = Dsm::run(cfg(), |p| {
        let a = p.alloc_array::<u64>(elems);
        let me = p.proc_id();
        let mine = RegularSection::array(&a, me * chunk..(me + 1) * chunk, Access::WriteAll);
        validate(p, std::slice::from_ref(&mine));
        for i in 0..chunk {
            p.set(&a, me * chunk + i, i as u64);
        }
        let consumer = (me + NPROCS - 1) % NPROCS;
        let producer = (me + 1) % NPROCS;
        push_phase(p, &[Push::new(consumer, std::slice::from_ref(&mine))], &[producer]);
        (producer * chunk..(producer + 1) * chunk).map(|i| p.get(&a, i)).sum::<u64>()
    });
    report("Push", &run);

    // The compiled form: describe the ring as a two-phase IR and execute
    // whatever plan the compiler emits. The analyzer sees WriteAll
    // producers with statically known (wrapping) consumer sets and
    // classifies the boundary as a push — 4 messages, generated.
    let run = Dsm::run(cfg(), |p| {
        let m = p.alloc_matrix::<u64>(ELEMS_PER_PAGE, NPROCS * PAGES_PER_PROC);
        let me = p.proc_id();
        let program = rsdcomp::Program {
            arrays: vec![ArrayDecl::of_matrix("ring", &m)],
            nodes: vec![
                Node::Phase(Phase::new(
                    "produce",
                    vec![SectionAccess::new(0, ColSpan::OwnBlock, Access::WriteAll)],
                )),
                Node::Phase(Phase::new(
                    "consume",
                    vec![SectionAccess::new(
                        0,
                        ColSpan::BlockOf { offset: 1, wrap: true },
                        Access::Read,
                    )],
                )),
            ],
        };
        let kernel = rsdcomp::compile(&program, p.nprocs());
        let plan = kernel.plan_for(me).clone();
        let a = *m.array();
        let producer = (me + 1) % NPROCS;
        let mut sum = 0u64;
        for step in &plan.steps {
            rsdcomp::exec::enter(p, &step.entry, |p| match step.phase {
                0 => {
                    for i in 0..chunk {
                        p.set(&a, me * chunk + i, i as u64);
                    }
                }
                _ => {
                    sum = (producer * chunk..(producer + 1) * chunk).map(|i| p.get(&a, i)).sum();
                }
            });
        }
        sum
    });
    report("Compiled plan", &run);

    // What the analyzer's refusals protect against: the same producers,
    // but every processor also read-modify-writes a shared accumulator
    // word with *no* synchronization before the final barrier. The
    // detector (a debug mode — off by default, and exactly free when off)
    // compares the concurrent intervals meeting at the barrier and names
    // the page and processor pair of every collision.
    let run = Dsm::run(cfg().with_race_detect(RaceDetect::Collect), |p| {
        let a = p.alloc_array::<u64>(elems);
        let me = p.proc_id();
        for i in 0..chunk {
            p.set(&a, me * chunk + i, 1 + i as u64);
        }
        // Missing lock: concurrent unsynchronized updates of word 0.
        let old = p.get(&a, 0);
        p.set(&a, 0, old + 1 + me as u64);
        p.barrier();
        (0..chunk).map(|i| p.get(&a, i)).sum::<u64>()
    });
    report("Racy exchange", &run);
    println!("  {} race report(s):", run.races.len());
    for r in &run.races {
        println!("    {r}");
    }
}
