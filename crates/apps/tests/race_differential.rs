//! Differential testing, accept side: every program the analyzer accepts
//! must run report-free under the race detector.
//!
//! All four variants of Jacobi and red-black SOR — the plain TreadMarks
//! form and the three analyzer-derived optimized forms (`Validate`,
//! `Push`, the generated `Compiled` plan) — are run under
//! `RaceDetect::Collect` across the cluster-size matrix. A single report
//! would mean the compiler dropped a happens-before edge the computation
//! needed; zero reports is the dynamic half of the refusal classes'
//! differential check (see `rsdcomp`'s `differential` module for the
//! refuse side).

use dsm_apps::{gauss, is, jacobi, sor, GridConfig, Variant};
use sp2model::CostModel;
use treadmarks::{Dsm, DsmConfig, DsmRun, RaceDetect};

const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

fn run_detected(
    app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> DsmRun<f64> {
    let config = DsmConfig::new(nprocs)
        .with_cost_model(CostModel::free())
        .with_race_detect(RaceDetect::Collect);
    Dsm::run(config, move |p| app(p, &cfg, variant))
}

fn assert_report_free(name: &str, app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64) {
    for nprocs in NPROCS_MATRIX {
        let cfg = GridConfig { rows: 32, cols: 2 * NPROCS_MATRIX[3], iters: 2 };
        for variant in [Variant::TreadMarks, Variant::Validate, Variant::Push, Variant::Compiled] {
            let run = run_detected(app, cfg, nprocs, variant);
            assert!(
                run.races.is_empty(),
                "{name}/{} @ {nprocs} procs: analyzer-accepted program raced: {:?}",
                variant.name(),
                run.races
            );
            let totals = run.stats.total();
            assert_eq!(
                totals.races_detected,
                0,
                "{name}/{} @ {nprocs} procs: stats disagree with the report list",
                variant.name()
            );
            assert_eq!(
                totals.races_window_trimmed,
                0,
                "{name}/{} @ {nprocs} procs: the GC horizon hid part of the history",
                variant.name()
            );
            assert!(
                run.results.iter().any(|&s| s != 0.0),
                "{name}/{} @ {nprocs} procs: checksums must be non-trivial",
                variant.name()
            );
        }
    }
}

fn assert_report_free_u64(
    name: &str,
    app: fn(&mut treadmarks::Process, &GridConfig, Variant) -> u64,
) {
    for nprocs in NPROCS_MATRIX {
        let cfg = GridConfig { rows: 16, cols: 2 * NPROCS_MATRIX[3] + 2, iters: 2 };
        for variant in Variant::ALL {
            let config = DsmConfig::new(nprocs)
                .with_cost_model(CostModel::free())
                .with_race_detect(RaceDetect::Collect);
            let run = Dsm::run(config, move |p| app(p, &cfg, variant));
            assert!(
                run.races.is_empty(),
                "{name}/{} @ {nprocs} procs: analyzer-accepted program raced: {:?}",
                variant.name(),
                run.races
            );
            let totals = run.stats.total();
            assert_eq!(
                totals.races_detected,
                0,
                "{name}/{} @ {nprocs} procs: stats disagree with the report list",
                variant.name()
            );
            assert_eq!(
                totals.races_window_trimmed,
                0,
                "{name}/{} @ {nprocs} procs: the GC horizon hid part of the history",
                variant.name()
            );
        }
    }
}

#[test]
fn jacobi_is_report_free_in_every_variant() {
    assert_report_free("jacobi", jacobi);
}

#[test]
fn sor_is_report_free_in_every_variant() {
    assert_report_free("sor", sor);
}

#[test]
fn integer_sort_is_report_free_in_every_variant() {
    // The lock-based kernel: every acquire-chain edge the validate plan
    // relies on (merged lock-grant+data, the lock+barrier merge idiom) must
    // satisfy the detector as well as the analyzer, and the compiled plan's
    // reduction, which installs raw bytes, must not trip it.
    assert_report_free_u64("is", is);
}

#[test]
fn gauss_is_report_free_in_every_variant() {
    // The iteration-dependent kernel: the shrinking pivot broadcasts the
    // compiled plan turns into pushes must never overlap a receiver-side
    // write.
    assert_report_free_u64("gauss", gauss);
}

#[test]
fn the_lock_path_refusal_closes_the_differential_loop() {
    // The refuse side for the lock-carrying boundary, run from the apps
    // crate so the accept side above and the refusal share one test file:
    // a program whose consumer claims a lock that cannot order the
    // producer's unguarded writes is statically refused as
    // `OutsideAcquireChain`, and the hand-run execution of exactly that
    // pattern draws a race report naming the scattered array.
    use rsdcomp::{Refusal, RefusalClass};
    let class = RefusalClass::LockWithoutAcquire;
    assert_eq!(class.expected_refusal(), Refusal::OutsideAcquireChain);
    for nprocs in NPROCS_MATRIX {
        class.compile_refused(nprocs);
        class.run_racy(nprocs).assert_detected();
    }
}

#[test]
fn fail_fast_mode_accepts_the_compiled_plans() {
    // The strictest setting: a single report aborts the run. The compiled
    // plans for both kernels must survive it.
    type App = fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64;
    for (name, app) in [("jacobi", jacobi as App), ("sor", sor)] {
        let cfg = GridConfig { rows: 16, cols: 16, iters: 2 };
        let config = DsmConfig::new(4)
            .with_cost_model(CostModel::free())
            .with_race_detect(RaceDetect::FailFast);
        let run = Dsm::run(config, move |p| app(p, &cfg, Variant::Compiled));
        assert!(run.races.is_empty(), "{name}: fail-fast must not have collected reports");
    }
}
