//! Cross-variant acceptance: the optimized forms must compute bit-for-bit
//! the same checksums as the plain TreadMarks form, with strictly less
//! protocol traffic at each step up the interface.

use dsm_apps::{gauss, is, jacobi, sor, GridConfig, Variant};
use sp2model::{CostModel, StatsSnapshot};
use treadmarks::{Dsm, DsmConfig, DsmRun};

fn run_app_u64(
    app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> u64,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> DsmRun<u64> {
    let config = DsmConfig::new(nprocs).with_cost_model(CostModel::free());
    Dsm::run(config, move |p| app(p, &cfg, variant))
}

/// XOR-combines the per-processor checksums into the partition-independent
/// app checksum the pinned constants are stated against.
fn combined(run: &DsmRun<u64>) -> u64 {
    run.results.iter().fold(0, |acc, &x| acc ^ x)
}

fn run_app(
    app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> DsmRun<f64> {
    let config = DsmConfig::new(nprocs).with_cost_model(CostModel::free());
    Dsm::run(config, move |p| app(p, &cfg, variant))
}

fn totals(run: &DsmRun<f64>) -> StatsSnapshot {
    run.stats.total()
}

fn assert_variants_agree(
    app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64,
    cfg: GridConfig,
    nprocs: usize,
) -> [DsmRun<f64>; 3] {
    let tmk = run_app(app, cfg, nprocs, Variant::TreadMarks);
    let val = run_app(app, cfg, nprocs, Variant::Validate);
    let compiled = run_app(app, cfg, nprocs, Variant::Compiled);
    assert_eq!(tmk.results, val.results, "Validate must reproduce the baseline bit-for-bit");
    assert_eq!(
        tmk.results, compiled.results,
        "the generated plan must reproduce the baseline bit-for-bit"
    );
    assert!(
        tmk.results.iter().any(|&s| s != 0.0),
        "checksums must be non-trivial for the comparison to mean anything"
    );
    [tmk, val, compiled]
}

#[test]
fn jacobi_variants_agree_and_reduce_traffic() {
    let cfg = GridConfig { rows: 64, cols: 8, iters: 3 };
    let [tmk, val, compiled] = assert_variants_agree(jacobi, cfg, 4);
    let (t, v, u) = (totals(&tmk), totals(&val), totals(&compiled));
    assert!(
        v.messages_sent < t.messages_sent,
        "Validate: {} -> {}",
        t.messages_sent,
        v.messages_sent
    );
    assert!(
        u.messages_sent < v.messages_sent,
        "Compiled: {} -> {}",
        v.messages_sent,
        u.messages_sent
    );
    assert!(v.page_faults < t.page_faults);
    assert!(u.page_faults < v.page_faults);
}

#[test]
fn sor_variants_agree_and_reduce_traffic() {
    let cfg = GridConfig { rows: 64, cols: 8, iters: 3 };
    let [tmk, val, compiled] = assert_variants_agree(sor, cfg, 4);
    let (t, v, u) = (totals(&tmk), totals(&val), totals(&compiled));
    assert!(v.messages_sent < t.messages_sent);
    assert!(u.messages_sent < v.messages_sent);
}

#[test]
fn jacobi_page_aligned_columns_take_the_write_all_fast_path() {
    // rows == PAGE_SIZE / 8: one column is exactly one page, so the
    // Validate variant's WRITE_ALL sections fully cover their pages and the
    // compiled plan runs twin-free after initialisation.
    let cfg = GridConfig { rows: 512, cols: 8, iters: 2 };
    let [_, _, compiled] = assert_variants_agree(jacobi, cfg, 4);
    // Only the fixed global-boundary columns (outside the WRITE_ALL
    // sections) twin, once each at initialisation: two edge processors x
    // two grids. The sweeps themselves never twin.
    assert!(
        totals(&compiled).twins_created <= 4,
        "page-aligned WRITE_ALL push sweeps must not twin: {} twins",
        totals(&compiled).twins_created
    );
}

#[test]
fn compiled_checksums_match_the_baseline_across_cluster_sizes() {
    // The acceptance criterion: the generated plans reproduce the
    // TreadMarks checksums bit-for-bit at nprocs in {2, 4, 8}.
    let cfg = GridConfig { rows: 64, cols: 16, iters: 3 };
    for nprocs in [2, 4, 8] {
        for app in [jacobi as fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64, sor] {
            let tmk = run_app(app, cfg, nprocs, Variant::TreadMarks);
            let compiled = run_app(app, cfg, nprocs, Variant::Compiled);
            assert_eq!(
                tmk.results, compiled.results,
                "compiled checksums must match at {nprocs} procs"
            );
        }
    }
}

#[test]
fn compiled_sor_and_jacobi_are_push_only() {
    // Jacobi's sweeps write pure `WRITE_ALL` sections; SOR's half-sweeps
    // are in-place `READ&WRITE_ALL`, final because each processor is the
    // only writer of its columns. Both compile to pushes alone: no barrier,
    // no diff, no write notice.
    let cfg = GridConfig { rows: 64, cols: 16, iters: 3 };
    for (name, app) in [
        ("sor", sor as fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64),
        ("jacobi", jacobi),
    ] {
        let t = totals(&run_app(app, cfg, 4, Variant::Compiled));
        assert_eq!(t.barriers, 0, "{name}: a fully pushable kernel keeps no barrier");
        assert_eq!(t.diffs_created, 0, "{name}: push bypasses the DSM protocol wholesale");
        assert_eq!(t.write_notices, 0, "{name}");
        assert!(t.pushes > 0, "{name}: the exchange must actually run point-to-point");
    }
}

#[test]
fn kernels_run_on_a_single_processor() {
    let cfg = GridConfig { rows: 16, cols: 4, iters: 2 };
    for variant in Variant::ALL {
        let j = run_app(jacobi, cfg, 1, variant);
        let s = run_app(sor, cfg, 1, variant);
        assert_eq!(totals(&j).messages_sent, 0);
        assert_eq!(totals(&s).messages_sent, 0);
    }
}

/// 34 columns: uneven blocks at every tested cluster size above 2 (e.g.
/// 12/11/11 at three processors, 3/3/2/… at sixteen), and small enough
/// that columns share pages — the matrix exercises false sharing on block
/// boundaries as well as the remainder handling.
const IS_CFG: GridConfig = GridConfig { rows: 16, cols: 34, iters: 3 };
const GAUSS_CFG: GridConfig = GridConfig { rows: 16, cols: 34, iters: 3 };

/// The one true IS checksum: XOR of all per-processor results, pinned once
/// for every variant and every cluster size (the checksum construction is
/// partition-independent, see `dsm_apps::mix64`).
const IS_CHECKSUM: u64 = 0x50b6_86d1_4e82_b051;
/// The one true Gauss checksum, same contract.
const GAUSS_CHECKSUM: u64 = 0x966a_47ab_24a5_a211;

#[test]
fn is_and_gauss_pin_one_checksum_across_variants_and_cluster_sizes() {
    for nprocs in [1, 2, 3, 4, 8, 16] {
        for variant in Variant::ALL {
            let r = run_app_u64(is, IS_CFG, nprocs, variant);
            assert_eq!(
                combined(&r),
                IS_CHECKSUM,
                "is/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
            let r = run_app_u64(gauss, GAUSS_CFG, nprocs, variant);
            assert_eq!(
                combined(&r),
                GAUSS_CHECKSUM,
                "gauss/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
        }
    }
}

#[test]
fn compiled_gauss_eliminates_the_per_step_pivot_barrier() {
    let compiled = run_app_u64(gauss, GAUSS_CFG, 4, Variant::Compiled);
    let t = compiled.stats.total();
    assert_eq!(t.barriers, 0, "the per-step pivot broadcast compiles to pushes");
    assert!(t.pushes > 0, "the broadcast must actually run point-to-point");
    let base = run_app_u64(gauss, GAUSS_CFG, 4, Variant::TreadMarks);
    assert!(
        base.stats.total().barriers >= 4 * GAUSS_CFG.iters as u64,
        "the baseline pays one barrier per elimination step"
    );
}

/// The four kernels' real IRs on the wide grid, as `(name, program,
/// barriers per processor at the validate level)`. A program depends on the
/// array layout only, so one processor's allocations stand for any cluster.
fn real_programs() -> Vec<(&'static str, rsdcomp::Program, usize)> {
    let GridConfig { rows, cols, iters } = WIDE_CFG;
    let run = Dsm::run(DsmConfig::new(1), move |p| {
        let (a, b) = (p.alloc_matrix::<f64>(rows, cols), p.alloc_matrix::<f64>(rows, cols));
        let (k, h) = (p.alloc_matrix::<u64>(rows, cols), p.alloc_matrix::<u64>(rows, cols));
        vec![
            // One barrier per sweep, two per red-black iteration.
            ("jacobi", dsm_apps::jacobi_program(&a, &b, iters), iters),
            ("sor", dsm_apps::sor_program(&a, iters), 2 * iters),
            // One per elimination step (pivot -> update); init -> pivot and
            // update -> pivot stay local.
            ("gauss", dsm_apps::gauss_program(&a, &b, iters), iters),
            // One per iteration (merge -> rank); the merge entries are locks.
            ("is", dsm_apps::is_program(&k, &h, iters), iters),
        ]
    });
    run.results.into_iter().next().expect("one processor ran")
}

#[test]
fn the_validate_level_keeps_one_barrier_per_communicating_boundary() {
    use rsdcomp::{compile, compile_at, BoundaryOp, Level};
    for (name, program, barriers) in real_programs() {
        for nprocs in [2, 8, 64] {
            let kernel = compile_at(&program, nprocs, Level::Validate);
            let phases = program.phases();
            for me in 0..nprocs {
                let plan = kernel.plan_for(me);
                assert_eq!(plan.barriers(), barriers, "{name}@{nprocs}, processor {me}");
                assert_eq!(plan.messages_sent(), 0);
                for step in &plan.steps {
                    if phases[step.phase].name == "pivot" {
                        assert!(matches!(step.entry, BoundaryOp::Local { .. }), "{name}@{nprocs}");
                    }
                }
            }
            // Integer sort's accumulation is the validate level's lock; the
            // full level reduces it over the barrier tree instead, one
            // reduction per iteration, with no lock and no barrier left.
            if name == "is" {
                let full = compile(&program, nprocs);
                for me in 0..nprocs {
                    let (plan, validate) = (full.plan_for(me), kernel.plan_for(me));
                    assert_eq!(validate.lock_acquires(), barriers, "is@{nprocs}");
                    assert_eq!(validate.reductions(), 0, "is@{nprocs}");
                    assert_eq!((plan.barriers(), plan.lock_acquires()), (0, 0), "is@{nprocs}");
                    assert_eq!(plan.reductions(), barriers, "is@{nprocs}");
                }
            }
        }
    }
}

/// `program` with every accumulation declared as the plain read-modify-write
/// it lowers to where it is not reduced.
fn is_read_modify_write(mut program: rsdcomp::Program) -> rsdcomp::Program {
    for node in &mut program.nodes {
        if let rsdcomp::Node::Repeat { body, .. } = node {
            for access in body.iter_mut().flat_map(|phase| &mut phase.accesses) {
                access.accumulates = None;
            }
        }
    }
    program
}

#[test]
fn the_validate_level_plans_integer_sort_as_before_accumulations() {
    // The paper's lock path stays reproducible next to the reduction: at the
    // validate level an accumulation compiles to exactly what the plain
    // guarded read-modify-write it stands for compiled to — every boundary
    // and every processor's plan — at every cluster size the wide grid
    // admits.
    use rsdcomp::{compile, compile_at, Level};
    let (_, program, _) = real_programs().into_iter().find(|(name, ..)| *name == "is").unwrap();
    let plain = is_read_modify_write(program.clone());
    assert_ne!(program, plain, "the kernel declares an accumulation");
    for nprocs in 1..=64 {
        assert_eq!(
            compile_at(&program, nprocs, Level::Validate),
            compile_at(&plain, nprocs, Level::Validate),
            "is@{nprocs}"
        );
        // Declared as a plain read-modify-write the merge keeps its lock at
        // the full level too: only an accumulation is reduced.
        assert_eq!(compile(&plain, nprocs).plan_for(0).reductions(), 0, "is@{nprocs}");
    }
}

#[test]
fn validate_is_rides_its_acquires_and_compiled_is_takes_no_lock() {
    // The merged lock-grant+data path: the validate level's plan rides the
    // acquire it needs anyway — per processor and iteration one acquire and
    // one barrier, each a `Validate_w_sync`, exactly the lock+barrier
    // idiom's steps written by hand — so going through the compiler costs
    // no extra protocol message. A regression — validating the merge
    // sections with a standalone fetch instead of riding the grant — shows
    // up in the structural, scheduling-invariant counters checked here. The
    // raw message count is deliberately *not* checked: the lock manager
    // grants in arrival order, so the acquire chain differs between runs.
    //
    // The full level has no lock to ride: one reduction per iteration
    // carries the histogram, so it takes no lock, keeps exactly one
    // (reduction) barrier per iteration and never twins a histogram page.
    let iters = IS_CFG.iters as u64;
    for nprocs in [2, 4, 8] {
        let validate = run_app_u64(is, IS_CFG, nprocs, Variant::Validate).stats.total();
        let steps = nprocs as u64 * iters;
        assert_eq!(
            (validate.lock_acquires, validate.barriers, validate.validate_w_syncs),
            (steps, steps, 2 * steps),
            "is/validate@{nprocs}"
        );
        assert!(
            validate.validates <= nprocs as u64,
            "the only standalone validate the plan may issue is the init boundary's local \
             write preparation (got {} at {nprocs} procs)",
            validate.validates
        );
        let compiled = run_app_u64(is, IS_CFG, nprocs, Variant::Compiled).stats.total();
        assert_eq!(compiled.lock_acquires, 0, "is/compiled@{nprocs}");
        assert_eq!(compiled.barriers, nprocs as u64 * iters, "is/compiled@{nprocs}");
        assert_eq!(compiled.diffs_created + compiled.write_notices, 0, "is/compiled@{nprocs}");
        assert_eq!(compiled.page_faults, 0, "is/compiled@{nprocs}");
        // The only twins are of key pages two processors' blocks share,
        // prepared for a partial overwrite; with a page per column there are
        // none, so none is of the histogram.
        let aligned = GridConfig { rows: 512, cols: 16, iters: 2 };
        let compiled = run_app_u64(is, aligned, nprocs, Variant::Compiled).stats.total();
        assert_eq!(compiled.twins_created, 0, "is/compiled@{nprocs}, a page per column");
    }
}

#[test]
fn compiled_integer_sort_is_deterministic() {
    // No lock grant is left on the reduced kernel's path, so nothing about
    // a run depends on the host's thread schedule: twenty runs at eight and
    // at sixty-four processors give the same modelled times, the same
    // per-node counters and the pinned checksums.
    for (nprocs, cfg, pin) in [(8, IS_CFG, IS_CHECKSUM), (64, WIDE_CFG, WIDE_IS_CHECKSUM)] {
        let run = || {
            let config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2());
            Dsm::run(config, move |p| is(p, &cfg, Variant::Compiled))
        };
        let first = run();
        assert_eq!(combined(&first), pin, "is/compiled@{nprocs}");
        for _ in 1..20 {
            let again = run();
            assert_eq!(again.results, first.results, "checksums at {nprocs} procs");
            assert_eq!(again.elapsed, first.elapsed, "virtual times at {nprocs} procs");
            assert_eq!(again.stats, first.stats, "statistics at {nprocs} procs");
        }
    }
}

#[test]
fn uneven_column_blocks_still_agree() {
    // 10 columns over 3 processors: blocks of 4/3/3 exercise the remainder
    // handling and unaligned block boundaries (false sharing on the shared
    // boundary pages).
    let cfg = GridConfig { rows: 32, cols: 10, iters: 2 };
    assert_variants_agree(jacobi, cfg, 3);
    assert_variants_agree(sor, cfg, 3);
}

/// 130 columns: the smallest width every kernel accepts at 64 processors
/// (`cols >= 2 * nprocs`) plus a remainder of two, so the blocks are
/// uneven at both wide sizes — 5/5/…/4 at 32 processors, 3/3/2/… at 64.
const WIDE_CFG: GridConfig = GridConfig { rows: 16, cols: 130, iters: 2 };

/// Partition-independent (see `dsm_apps::mix64`): one constant per integer
/// kernel covers every variant at both wide sizes.
const WIDE_IS_CHECKSUM: u64 = 0x6eaa_3c49_80ac_702d;
/// Same contract as [`WIDE_IS_CHECKSUM`].
const WIDE_GAUSS_CHECKSUM: u64 = 0xa084_3ac3_d7bb_a2cf;

/// The float kernels' per-processor sums depend on the partition, so their
/// XOR-combined pins are per cluster size: `(nprocs, jacobi, sor)`.
const WIDE_F64_CHECKSUMS: [(usize, u64, u64); 2] = [
    (32, 0x0005_c980_0000_000e, 0x00fa_70f5_a924_924e),
    (64, 0x0007_1f6d_b6db_6db3, 0x0003_723f_4000_000d),
];

#[test]
fn the_wide_matrix_pins_checksums_for_every_kernel_at_32_and_64_procs() {
    // The wide acceptance row: at 32 and 64 simulated processors every
    // kernel and variant must land on the constants pinned here — the same
    // numbers whichever host thread serves which request.
    for (nprocs, jacobi_pin, sor_pin) in WIDE_F64_CHECKSUMS {
        for variant in Variant::ALL {
            let r = run_app_u64(is, WIDE_CFG, nprocs, variant);
            assert_eq!(
                combined(&r),
                WIDE_IS_CHECKSUM,
                "is/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
            let r = run_app_u64(gauss, WIDE_CFG, nprocs, variant);
            assert_eq!(
                combined(&r),
                WIDE_GAUSS_CHECKSUM,
                "gauss/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
            let r = run_app(jacobi, WIDE_CFG, nprocs, variant);
            let bits = r.results.iter().fold(0u64, |acc, &x| acc ^ x.to_bits());
            assert_eq!(
                bits,
                jacobi_pin,
                "jacobi/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
            let r = run_app(sor, WIDE_CFG, nprocs, variant);
            let bits = r.results.iter().fold(0u64, |acc, &x| acc ^ x.to_bits());
            assert_eq!(
                bits,
                sor_pin,
                "sor/{}@{nprocs} must reproduce the pinned checksum",
                variant.name()
            );
        }
    }
}

/// Every compiled kernel at one, an uneven three, eight and (on the wide
/// grid, the smallest that fits) sixty-four processors.
fn compiled_sizes() -> [(usize, GridConfig); 4] {
    [(1, IS_CFG), (3, IS_CFG), (8, IS_CFG), (64, WIDE_CFG)]
}

#[test]
fn a_compiled_run_compiles_once_and_still_lands_on_the_pinned_checksums() {
    // One `rsdcomp::compile` per run, however many processors execute the
    // kernel (`once_inits` has one entry, the kernel's cell, initialised
    // once), and the shared plans compute what the per-processor plans did:
    // the integer kernels' pinned constants, the float kernels' pinned wide
    // constants at 64 and the TreadMarks baseline below that.
    for (nprocs, cfg) in compiled_sizes() {
        let (is_pin, gauss_pin) = if nprocs == 64 {
            (WIDE_IS_CHECKSUM, WIDE_GAUSS_CHECKSUM)
        } else {
            (IS_CHECKSUM, GAUSS_CHECKSUM)
        };
        let r = run_app_u64(is, cfg, nprocs, Variant::Compiled);
        assert_eq!((combined(&r), &r.once_inits[..]), (is_pin, &[1][..]), "is@{nprocs}");
        let r = run_app_u64(gauss, cfg, nprocs, Variant::Compiled);
        assert_eq!((combined(&r), &r.once_inits[..]), (gauss_pin, &[1][..]), "gauss@{nprocs}");
        for (name, app, wide_pin) in [
            (
                "jacobi",
                jacobi as fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64,
                WIDE_F64_CHECKSUMS[1].1,
            ),
            ("sor", sor, WIDE_F64_CHECKSUMS[1].2),
        ] {
            let r = run_app(app, cfg, nprocs, Variant::Compiled);
            assert_eq!(r.once_inits, vec![1], "{name}@{nprocs} compiles once");
            if nprocs == 64 {
                let bits = r.results.iter().fold(0u64, |acc, &x| acc ^ x.to_bits());
                assert_eq!(bits, wide_pin, "{name}@64 must reproduce the pinned checksum");
            } else {
                let tmk = run_app(app, cfg, nprocs, Variant::TreadMarks);
                assert_eq!(r.results, tmk.results, "{name}@{nprocs} must match the baseline");
            }
        }
        // Every variant is a plan, the stock one included: one compile each.
        for variant in Variant::ALL {
            assert_eq!(run_app(jacobi, cfg, nprocs, variant).once_inits, [1], "{variant:?}");
        }
    }
}

#[test]
fn whichever_processor_compiles_the_modelled_run_is_the_same() {
    // Under the SP/2 cost model the barrier-only compiled kernels are
    // deterministic to the nanosecond and the counter; which host thread
    // wins the kernel's once-cell differs from run to run and must not
    // show. (IS is left out: contended lock grants follow host arrival
    // order with or without a shared kernel.)
    fn assert_reruns_agree<R: Send + PartialEq + std::fmt::Debug>(
        nprocs: usize,
        kernel: impl Fn(&mut treadmarks::Process) -> R + Sync,
    ) {
        let run = || Dsm::run(DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()), &kernel);
        let (first, again) = (run(), run());
        assert_eq!(first.results, again.results, "results at {nprocs} procs");
        assert_eq!(first.elapsed, again.elapsed, "virtual times at {nprocs} procs");
        assert_eq!(first.stats, again.stats, "statistics at {nprocs} procs");
    }
    for (nprocs, cfg) in compiled_sizes() {
        assert_reruns_agree(nprocs, |p| jacobi(p, &cfg, Variant::Compiled));
        assert_reruns_agree(nprocs, |p| sor(p, &cfg, Variant::Compiled));
        assert_reruns_agree(nprocs, |p| gauss(p, &cfg, Variant::Compiled));
    }
}

/// `(tlb_hits, tlb_misses, table_lock_acquires)`, Σ over the processors, of
/// the stock TreadMarks variants at 8 processors. Their bodies run on the
/// bulk accessors, one hit a column; a miss is a page fault and nothing
/// else. Which accesses hit, which miss and how often the table lock is
/// taken are part of the model's exact record and must not move by one;
/// `treadmarks`'s `tests/tlb.rs` holds the per-element hit count exact.
const ACCESS_CFG: GridConfig = GridConfig { rows: 96, cols: 40, iters: 4 };
const JACOBI_ACCESS: (u64, u64, u64) = (679, 154, 564);
const SOR_ACCESS: (u64, u64, u64) = (1_178, 263, 886);
const GAUSS_ACCESS: (u64, u64, u64) = (290, 84, 453);

#[test]
fn lease_keeps_the_access_path_counters_of_the_baseline_variants_exact() {
    fn triple<R>(run: &DsmRun<R>) -> (u64, u64, u64) {
        let t = run.stats.total();
        (t.tlb_hits, t.tlb_misses, t.table_lock_acquires)
    }
    let jacobi_run = run_app(jacobi, ACCESS_CFG, 8, Variant::TreadMarks);
    assert_eq!(triple(&jacobi_run), JACOBI_ACCESS, "jacobi/treadmarks@8");
    let sor_run = run_app(sor, ACCESS_CFG, 8, Variant::TreadMarks);
    assert_eq!(triple(&sor_run), SOR_ACCESS, "sor/treadmarks@8");
    let gauss_run = run_app_u64(gauss, GAUSS_CFG, 8, Variant::TreadMarks);
    assert_eq!(triple(&gauss_run), GAUSS_ACCESS, "gauss/treadmarks@8");
}

/// `(messages_sent, bytes_sent, diffs_applied, write_notices)`, Σ over the
/// processors, of the `Validate` variants at 64 processors on the wide
/// grid. The last two counts are as measured at the commit before diffs
/// became shared and the notice log a sorted queue, and did not move by one
/// when the barrier departure stopped carrying the whole request set, nor
/// when the first touch of in-flight data began to complete the pending
/// synchronization: what is routed where, and when a completion runs, never
/// changes which diffs are applied or which notices are recorded. The
/// messages are what is left without the demand fetches of data already on
/// the wire (jacobi 4 308, sor 4 896 before; gauss never had any), the bytes
/// what is left without them, with sparse request timestamps (1 491 020,
/// 2 023 356 and 1 050 768 before) and with no whole timestamp on a barrier
/// hop — the arrival's and the departure's rebuilt from their notices, the
/// applied timestamp and the horizon as deltas (1 348 460, 1 734 748 and
/// 921 936 before).
const JACOBI_WIDE_TRAFFIC: (u64, u64, u64, u64) = (4_196, 1_220_972, 3_126, 12_096);
const SOR_WIDE_TRAFFIC: (u64, u64, u64, u64) = (4_672, 1_479_772, 4_168, 16_128);
const GAUSS_WIDE_TRAFFIC: (u64, u64, u64, u64) = (2_210, 794_448, 1_986, 8_190);
/// `bytes_sent` of the same three runs at the commit whose departures still
/// broadcast every request, vector timestamp included, to every processor.
const BROADCAST_WIDE_BYTES: [u64; 3] = [3_523_692, 6_088_700, 3_111_520];

#[test]
fn routing_keeps_the_wide_validate_counts_exact_and_sheds_the_broadcast_bytes() {
    fn traffic<R>(run: &DsmRun<R>) -> (u64, u64, u64, u64) {
        let t = run.stats.total();
        (t.messages_sent, t.bytes_sent, t.diffs_applied, t.write_notices)
    }
    let measured = [
        traffic(&run_app(jacobi, WIDE_CFG, 64, Variant::Validate)),
        traffic(&run_app(sor, WIDE_CFG, 64, Variant::Validate)),
        traffic(&run_app_u64(gauss, WIDE_CFG, 64, Variant::Validate)),
    ];
    assert_eq!(measured, [JACOBI_WIDE_TRAFFIC, SOR_WIDE_TRAFFIC, GAUSS_WIDE_TRAFFIC]);
    for (now, before) in measured.iter().zip(BROADCAST_WIDE_BYTES) {
        assert!(now.1 < before, "{} bytes routed, {before} broadcast", now.1);
    }
}

/// `bytes_sent` of `wide64`'s jacobi case (below) at the commit whose
/// departures still broadcast the request set: ≈ 20 KB a departure.
const WIDE64_JACOBI_BROADCAST_BYTES: u64 = 14_469_804;

#[test]
fn a_routed_departure_to_a_leaf_of_the_wide64_tree_stays_small() {
    // `wide64`'s jacobi case: 64 processors, SP/2 model, hence the
    // adaptive arity-8 tree — root, interior nodes 1..=7 (node 8 has no
    // child below 64), leaves.
    const NPROCS: usize = 64;
    let cfg = GridConfig { rows: 64, cols: 256, iters: 8 };
    let config = DsmConfig::new(NPROCS).with_cost_model(CostModel::sp2());
    let arity = treadmarks::BarrierTopology::optimal_tree_arity(NPROCS, &CostModel::sp2());
    assert_eq!(arity, 8);
    let run = Dsm::run(config, move |p| jacobi(p, &cfg, Variant::Validate));
    let total = run.stats.total();
    println!("{} bytes in {} messages", total.bytes_sent, total.messages_sent);
    assert!(2 * total.bytes_sent < WIDE64_JACOBI_BROADCAST_BYTES, "{}", total.bytes_sent);
    // Every child of nodes 1..=7 is a leaf, so everything such a node sends
    // — its own arrivals and diffs included — bounds the departures it
    // fans out: two timestamps, the barrier's notices and a handful of
    // routed entries each.
    for parent in 1..=7 {
        let leaves = (parent * arity + 1..NPROCS.min(parent * arity + 1 + arity)).len() as u64;
        let node = run.stats.nodes()[parent];
        let per_departure = node.bytes_sent / (node.barriers * leaves);
        assert!(per_departure <= 4096, "P{parent} sends {per_departure} bytes a leaf departure");
    }
}

/// Messages of one merged barrier of `jacobi`/`sor` `Validate` at 64
/// processors on the 64-row grid, where a page holds eight columns — two
/// processors' blocks: 63 arrivals and 63 departures, and one `SyncDiffs`
/// from each writer of each page a boundary column lies on (three for a
/// processor with two neighbours, one for P0 and P63). Nothing else: a
/// demand fetch would add its request and its response.
const WIDE_BARRIER_MESSAGES: u64 = 2 * 63 + (62 * 3 + 2);

#[test]
fn a_wide_validate_sweep_gets_its_data_with_the_barrier_not_through_faults() {
    type Kernel = fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64;
    let per_node = |long: &DsmRun<f64>, short: &DsmRun<f64>, f: fn(&StatsSnapshot) -> u64| {
        let nodes = long.stats.nodes().iter().zip(short.stats.nodes());
        nodes.map(|(l, s)| f(l) - f(s)).collect::<Vec<u64>>()
    };
    for (name, app) in [("jacobi", jacobi as Kernel), ("sor", sor)] {
        // What two more iterations add, processor by processor: the
        // steady state, with the first iteration's cold misses subtracted.
        let run =
            |iters| run_app(app, GridConfig { rows: 64, cols: 256, iters }, 64, Variant::Validate);
        let (short, long) = (run(2), run(4));
        let barriers = per_node(&long, &short, |s| s.barriers);
        assert!(barriers.iter().all(|&b| b == barriers[0] && b >= 2), "{name}: {barriers:?}");
        let messages: u64 = per_node(&long, &short, |s| s.messages_sent).iter().sum();
        assert_eq!(messages, barriers[0] * WIDE_BARRIER_MESSAGES, "{name}: a demand fetch");
        // What is left is one trap a barrier: the first touch of an
        // "interior" column that shares its page with a neighbour's
        // in-flight diff, which completes the pending fetch.
        let faults = per_node(&long, &short, |s| s.page_faults);
        for (proc, (&faults, &barriers)) in faults.iter().zip(&barriers).enumerate() {
            assert!(faults <= barriers, "{name}: P{proc} took {faults} faults in {barriers}");
        }
    }
    // With a column a page (512 rows) no page has two writers, and the
    // planned sweep never leaves the fast path.
    let run = |iters| run_app(sor, GridConfig { rows: 512, cols: 32, iters }, 8, Variant::Validate);
    let (short, long) = (run(1), run(3));
    assert_eq!(per_node(&long, &short, |s| s.page_faults), [0; 8], "sor/validate@8, aligned");
}
