//! Allocation budget of a compiled plan's steps.
//!
//! `plan64`'s Jacobi case runs every boundary as a push: no barrier, no
//! fetch, no notice. What a step allocates there is the plan's own
//! bookkeeping — building the processor's plan, entering each step,
//! lowering its sections for the runtime and assembling its pushes — so
//! this pins what a step costs on the host beyond its data. This binary
//! counts every allocation of the process, so it holds exactly one test.

mod counting;

use dsm_apps::{jacobi, jacobi_program, GridConfig, Variant};
use pagedmem::Addr;
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, SharedArray, SharedMatrix};

#[global_allocator]
static ALLOCATOR: counting::Counting = counting::Counting;

/// Allocations per processor-step: 26.9, release and debug builds alike,
/// with 4 % of margin (36.6 before a step's sections were lowered once per
/// plan and pushes borrowed their regions).
const PER_PROC_STEP: f64 = 28.0;

#[test]
fn a_compiled_jacobi_step_stays_inside_its_allocation_budget() {
    // `plan64`'s Jacobi case: 64 processors, 64 × 256, 4 iterations.
    const NPROCS: usize = 64;
    let cfg = GridConfig { rows: 64, cols: 256, iters: 4 };
    let grid = || SharedMatrix::new(SharedArray::<f64>::new(Addr::new(0), 64 * 256), 64, 256);
    let program = jacobi_program(&grid(), &grid(), cfg.iters);
    let level = Variant::Compiled.level();
    let steps = rsdcomp::compile_at(&program, NPROCS, level).plan_for(0).steps.len();
    let config = DsmConfig::new(NPROCS).with_cost_model(CostModel::sp2());
    let (_, allocations, bytes) = counting::allocations_during(|| {
        Dsm::run(config, move |p| jacobi(p, &cfg, Variant::Compiled))
    });
    let proc_steps = (NPROCS * steps) as f64;
    let per = allocations as f64 / proc_steps;
    println!(
        "{allocations} allocations, {bytes} bytes over {proc_steps} processor-steps: \
         {per:.1} allocations and {:.0} bytes each",
        bytes as f64 / proc_steps
    );
    assert!(per <= PER_PROC_STEP, "{per:.1} allocations per processor-step");
}
