//! # dsm-bench — the benchmark harness
//!
//! Runs the application kernels of [`dsm_apps`] under the SP/2 cost model
//! in every protocol variant — including the **compiled** form whose call
//! sequence `rsdcomp::compile` generates from the loop-nest IR — at every
//! cluster size of the matrix (`nprocs` ∈ {2, 4, 8, 16}; the paper reports
//! 8 processors, 16 records the tree-vs-flat crossover). It collects the
//! `sp2model` statistics that the paper's tables are built from (page
//! faults, messages, bytes, lock acquisitions, virtual time), the
//! page-table-lock count and the split-phase counters, and renders them as
//! deterministic JSON.
//! `sor/validate` is additionally recorded under the flat master-centric
//! barrier (`validate_flat`: the same barrier schedule over the tree of
//! arity `n − 1`, priced at stock TreadMarks's interrupt path and
//! per-processor master service) so the tree-vs-flat crossover curve is in
//! the data.
//!
//! The checked-in `BENCH_PR8.json` at the repository root is produced by
//! `cargo run -p dsm-bench` and consumed by `cargo run -p dsm-bench --
//! --check`, which re-runs the suite and fails unless every record renders
//! **byte-identically** to its line in that file — listing every differing
//! record with both lines before exiting non-zero, so a multi-record change
//! is diagnosable from one CI log. Re-baselining is a reviewed step: run
//! without `--check`, read the diff of the JSON file. `cargo run -p
//! dsm-bench -- --explain <app>` dumps the kernel's compiled plan (phase
//! classifications, refusal reasons, message counts) deterministically.
//!
//! `cargo run -p dsm-bench -- --scale` runs the wide-cluster matrix — all
//! four kernels, validate + compiled, at `nprocs` ∈ {32, 64, 128} — and
//! writes `BENCH_PR9.json`; `--scale --check` holds it to that file the
//! same way.
//!
//! What the race detector and the fault layer cost is enforced by tests,
//! not printed: `detector_off_is_free_and_collect_takes_no_new_table_locks`
//! (`RaceDetect::Off` costs exactly nothing on a gated record, `Collect`
//! adds no page-table-lock acquisition) and
//! `dsm-apps`'s `tests/chaos.rs` (every kernel's checksums bit-identical
//! under seeded fault schedules, with no race reported).
//!
//! The barrier-synchronized kernels are fully deterministic: the clocks
//! are *virtual* (message costs come from the cost model, not the host)
//! and the JSON renders records in a fixed order with fixed field order,
//! so their rows are byte-identical across runs. The lock-based IS rows
//! are the one exception — the lock manager grants in arrival order, so a
//! handful of diffs move between the grant piggyback and third-party
//! fetches from run to run, putting a few percent of jitter on their time
//! and message fields; both gates print a differing IS row as
//! informational until the lock manager arbitrates deterministically
//! (ROADMAP item 3).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use dsm_apps::{
    gauss, gauss_program, is, is_program, jacobi, jacobi_program, sor, sor_program, GridConfig,
    Variant,
};
use pagedmem::Addr;
use sp2model::{CostModel, StatsSnapshot};
use treadmarks::{BarrierTopology, Dsm, DsmConfig, SharedArray, SharedMatrix};

/// The schema tag embedded in the JSON output.
const SCHEMA: &str = "dsm-bench/pr8";

/// The schema tag of the wide-cluster scale matrix (`--scale`).
const SCALE_SCHEMA: &str = "dsm-bench/pr9-scale";

/// The cluster sizes of the standard matrix (the paper reports 8
/// processors; 16 records the barrier-topology crossover at two columns
/// per processor).
const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

/// The cluster sizes of the scale matrix, far past the paper's 8-node SP/2.
/// Every size runs on one host thread per processor.
pub const SCALE_NPROCS: [usize; 3] = [32, 64, 128];

/// The variants the scale matrix records: the split-phase Validate path
/// and the compiler-generated plan. (The stock TreadMarks plan demand-faults
/// every remote page by construction and adds no information at wide sizes
/// worth the run time.)
const SCALE_VARIANTS: [Variant; 2] = [Variant::Validate, Variant::Compiled];

/// The standard Jacobi size (page-aligned columns).
const JACOBI_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 4 };

/// The standard SOR size.
const SOR_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 3 };

/// The standard integer-sort size. `cols` must reach `2 * nprocs` at the
/// largest matrix point (16), and small enough that columns share pages, so
/// the lock-grant piggyback crosses false-sharing boundaries.
const IS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 3 };

/// The standard Gaussian-elimination size (`iters` elimination steps, each
/// with an iteration-dependent pivot broadcast).
const GAUSS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 6 };

/// The scale-matrix Jacobi size: 256 columns so the widest point (128
/// processors) still gets the kernels' required two columns per processor.
const SCALE_JACOBI_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix SOR size.
const SCALE_SOR_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix integer-sort size (few rows: the lock-based exchange
/// is per-column and dominates).
const SCALE_IS_CFG: GridConfig = GridConfig { rows: 8, cols: 256, iters: 2 };

/// The scale-matrix Gaussian-elimination size (`iters` must stay below
/// both dimensions).
const SCALE_GAUSS_CFG: GridConfig = GridConfig { rows: 32, cols: 256, iters: 4 };

/// The page-aligned control of the scale matrix: the wide grid's 256
/// columns with 512 rows, so a column is a page and no page has two
/// writers. `jacobi` and `sor` run on it in the `Validate` variant at 64
/// processors as `validate_aligned`, next to the 64-row records where
/// eight columns — two processors' blocks — share a page: same tree, same
/// hops, same plan; what differs between the pair is sub-page sharing.
const SCALE_ALIGNED_CFG: GridConfig = GridConfig { rows: 512, cols: 256, iters: 2 };

/// The scale-matrix size for `app`.
fn scale_cfg(app: &str) -> GridConfig {
    match app {
        "jacobi" => SCALE_JACOBI_CFG,
        "sor" => SCALE_SOR_CFG,
        "is" => SCALE_IS_CFG,
        "gauss" => SCALE_GAUSS_CFG,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// The kernel entry points keyed by name. The float kernels return the
/// per-processor residual checksum as `f64`; the integer kernels return a
/// `u64` mix — one dispatch table so every suite covers both shapes.
enum AppFn {
    /// A float-checksum kernel (`jacobi`, `sor`).
    F64(fn(&mut treadmarks::Process, &GridConfig, Variant) -> f64),
    /// An integer-checksum kernel (`is`, `gauss`).
    U64(fn(&mut treadmarks::Process, &GridConfig, Variant) -> u64),
}

fn app_fn(app: &str) -> AppFn {
    match app {
        "jacobi" => AppFn::F64(jacobi),
        "sor" => AppFn::F64(sor),
        "is" => AppFn::U64(is),
        "gauss" => AppFn::U64(gauss),
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Runs one kernel and reduces it to what a record keeps: the summed
/// statistics and the model time in nanoseconds.
fn run_kernel(
    app: &str,
    cfg: GridConfig,
    config: DsmConfig,
    variant: Variant,
) -> (StatsSnapshot, u64) {
    match app_fn(app) {
        AppFn::F64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            (run.stats.total(), run.execution_time().as_nanos())
        }
        AppFn::U64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            (run.stats.total(), run.execution_time().as_nanos())
        }
    }
}

/// The standard size for `app` (the one the suites and `--explain` use).
fn standard_cfg(app: &str) -> GridConfig {
    match app {
        "jacobi" => JACOBI_CFG,
        "sor" => SOR_CFG,
        "is" => IS_CFG,
        "gauss" => GAUSS_CFG,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Every kernel of the suite, in the fixed record order.
const APPS: [&str; 4] = ["jacobi", "sor", "is", "gauss"];

/// One benchmark run: a kernel, a variant, its size, and what it measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name (`"treadmarks"`, `"validate"`, `"compiled"`).
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Iterations.
    pub iters: usize,
    /// Model execution time (maximum final virtual clock), in nanoseconds.
    pub time_ns: u64,
    /// Global page-table-lock acquisitions across all nodes.
    pub table_lock_acquires: u64,
    /// Page faults ("segv") taken by the checked access path.
    pub page_faults: u64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Application lock acquisitions.
    pub lock_acquires: u64,
    /// Virtual nanoseconds split-phase completions actually stalled waiting
    /// for sync responses — overlapped computation drives this toward zero,
    /// which is the split-phase win made directly visible.
    pub sync_wait_ns: u64,
    /// Split-phase `Validate_w_sync` calls.
    pub split_phase_issues: u64,
}

/// One case of a suite: which kernel runs at what size on how many
/// processors in which variant, and the two things a suite may vary on top
/// of that.
#[derive(Debug, Clone, Copy)]
struct Case {
    /// Kernel name.
    pub app: &'static str,
    /// Problem size.
    pub cfg: GridConfig,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Protocol variant.
    pub variant: Variant,
    /// The variant name the record goes under — the variant's own, unless
    /// the same protocol is recorded twice (`validate_flat`).
    pub name: &'static str,
    /// Barrier topology (default: the adaptive-arity tree).
    pub barrier: BarrierTopology,
}

impl Case {
    /// The case under its variant's own name and the default barrier.
    fn new(app: &'static str, cfg: GridConfig, nprocs: usize, variant: Variant) -> Case {
        let barrier = BarrierTopology::default();
        Case { app, cfg, nprocs, variant, name: variant.name(), barrier }
    }
}

/// Runs one case under the SP/2 cost model and collects its record.
fn run_case(case: Case) -> BenchRecord {
    let Case { app, cfg, nprocs, variant, name, barrier } = case;
    let config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_barrier(barrier);
    let (t, time_ns) = run_kernel(app, cfg, config, variant);
    BenchRecord {
        app,
        variant: name,
        nprocs,
        rows: cfg.rows,
        cols: cfg.cols,
        iters: cfg.iters,
        time_ns,
        table_lock_acquires: t.table_lock_acquires,
        page_faults: t.page_faults,
        messages: t.messages_sent,
        bytes: t.bytes_sent,
        lock_acquires: t.lock_acquires,
        sync_wait_ns: t.sync_wait_ns,
        split_phase_issues: t.split_phase_issues,
    }
}

/// The standard suite: all four kernels, all three variants, at the smoke
/// sizes used by CI across the `nprocs` matrix — plus the
/// `sor/validate_flat` rows (the same protocol under the flat master, the
/// tree of arity `n − 1` at stock TreadMarks's constants) that record the
/// tree-vs-flat crossover curve.
pub fn suite() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for app in APPS {
        let cfg = standard_cfg(app);
        for &nprocs in &NPROCS_MATRIX {
            for variant in Variant::ALL {
                records.push(run_case(Case::new(app, cfg, nprocs, variant)));
            }
        }
    }
    for &nprocs in &NPROCS_MATRIX {
        records.push(run_case(Case {
            name: "validate_flat",
            barrier: BarrierTopology::FlatMaster,
            ..Case::new("sor", SOR_CFG, nprocs, Variant::Validate)
        }));
    }
    records
}

/// The scale suite: all four kernels in the Validate and Compiled variants
/// at `nprocs` ∈ {32, 64, 128} on wide grids (256 columns), plus the two
/// page-aligned `validate_aligned` controls (`SCALE_ALIGNED_CFG`).
pub fn scale_suite() -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for app in APPS {
        let cfg = scale_cfg(app);
        for &nprocs in &SCALE_NPROCS {
            for variant in SCALE_VARIANTS {
                records.push(run_case(Case::new(app, cfg, nprocs, variant)));
            }
        }
    }
    for app in ["jacobi", "sor"] {
        records.push(run_case(Case {
            name: "validate_aligned",
            ..Case::new(app, SCALE_ALIGNED_CFG, 64, Variant::Validate)
        }));
    }
    records
}

/// The `--explain` dump for one kernel: builds the kernel's IR at the
/// standard suite size, compiles it for the paper's 8 processors and
/// renders the plan. Pure and deterministic. Returns `None` for an unknown
/// app name.
pub fn explain_app(app: &str) -> Option<String> {
    /// The paper's cluster size, used for every explain dump.
    const EXPLAIN_NPROCS: usize = 8;
    if !APPS.contains(&app) {
        return None;
    }
    let program = kernel_program(app, standard_cfg(app));
    let kernel = rsdcomp::compile(&program, EXPLAIN_NPROCS);
    Some(rsdcomp::explain(&program, &kernel))
}

/// `app`'s IR at size `cfg`, its arrays laid out exactly as the SPMD
/// allocator lays them out: page-aligned, in allocation order.
fn kernel_program(app: &str, cfg: GridConfig) -> rsdcomp::Program {
    let elems = cfg.rows * cfg.cols;
    let second = Addr::new(elems * 8).page_align_up();
    let matrix =
        |base: Addr| SharedMatrix::new(SharedArray::<f64>::new(base, elems), cfg.rows, cfg.cols);
    let words =
        |base: Addr| SharedMatrix::new(SharedArray::<u64>::new(base, elems), cfg.rows, cfg.cols);
    match app {
        "jacobi" => jacobi_program(&matrix(Addr::ZERO), &matrix(second), cfg.iters),
        "sor" => sor_program(&matrix(Addr::ZERO), cfg.iters),
        "is" => is_program(&words(Addr::ZERO), &words(second), cfg.iters),
        "gauss" => gauss_program(&matrix(Addr::ZERO), &matrix(second), cfg.iters),
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Renders records as deterministic JSON: fixed field order, one record per
/// line, no floats.
pub fn render_json(records: &[BenchRecord]) -> String {
    render_json_with_schema(SCHEMA, records)
}

/// Renders scale-matrix records under the `SCALE_SCHEMA` tag (the
/// `BENCH_PR9.json` format). Same line shape as [`render_json`], so
/// [`check_byte_equal`] reads both.
pub fn render_scale_json(records: &[BenchRecord]) -> String {
    render_json_with_schema(SCALE_SCHEMA, records)
}

fn render_json_with_schema(schema: &str, records: &[BenchRecord]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{schema}\",\n"));
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 == records.len() { "" } else { "," };
        out.push_str(&format!("    {}{comma}\n", render_record(r)));
    }
    out.push_str("  ]\n}\n");
    out
}

/// One record as its JSON object — the unit both gates compare.
fn render_record(r: &BenchRecord) -> String {
    format!(
        "{{\"app\":\"{}\",\"variant\":\"{}\",\"nprocs\":{},\"rows\":{},\"cols\":{},\
         \"iters\":{},\"time_ns\":{},\"table_lock_acquires\":{},\
         \"page_faults\":{},\"messages\":{},\"bytes\":{},\
         \"lock_acquires\":{},\"sync_wait_ns\":{},\"split_phase_issues\":{}}}",
        r.app,
        r.variant,
        r.nprocs,
        r.rows,
        r.cols,
        r.iters,
        r.time_ns,
        r.table_lock_acquires,
        r.page_faults,
        r.messages,
        r.bytes,
        r.lock_acquires,
        r.sync_wait_ns,
        r.split_phase_issues,
    )
}

/// The regression gate of `--check` and `--scale --check`: every record of
/// `current` must render byte-identically to the baseline file's line for
/// the same `(app, variant, nprocs)`, and the baseline must hold no record
/// the suite did not produce. Returns one report line per record.
///
/// A differing row of the lock-based IS kernel is reported (with both
/// lines) but does not fail the gate: contended lock grants follow host
/// arrival order until ROADMAP item 3 lands.
///
/// # Errors
///
/// Returns `Err` naming **every** differing or unmatched record, with the
/// baseline's line and the current one — the gate never bails on the first
/// failure, so a multi-record change is diagnosable from a single CI log.
pub fn check_byte_equal(
    current: &[BenchRecord],
    baseline_json: &str,
) -> Result<Vec<String>, String> {
    let baseline: Vec<&str> = baseline_json
        .lines()
        .map(|line| line.trim().trim_end_matches(','))
        .filter(|line| line.starts_with("{\"app\":"))
        .collect();
    let mut report = Vec::new();
    let mut failures = Vec::new();
    for cur in current {
        let name = format!("{}/{}@{}", cur.app, cur.variant, cur.nprocs);
        let line = render_record(cur);
        let key = &line[..line.find("\"rows\"").expect("every record renders its rows")];
        let both = |base: &str| format!("\n    baseline: {base}\n    current:  {line}");
        match baseline.iter().find(|base| base.starts_with(key)) {
            Some(&base) if base == line => report.push(format!("{name}: byte-equal")),
            Some(&base) if cur.app == "is" && cur.variant != "compiled" => {
                report.push(format!("{name}: differs (informational){}", both(base)));
            }
            Some(&base) => failures.push(format!("{name} differs from the baseline{}", both(base))),
            None => failures.push(format!("{name} has no baseline record")),
        }
    }
    if baseline.len() != current.len() {
        failures.push(format!(
            "the baseline holds {} records, the suite produced {}",
            baseline.len(),
            current.len()
        ));
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A case with everything but the essentials at its default.
    fn run(app: &'static str, cfg: GridConfig, nprocs: usize, variant: Variant) -> BenchRecord {
        run_case(Case::new(app, cfg, nprocs, variant))
    }

    fn tiny(app: &'static str, variant: Variant) -> BenchRecord {
        run(app, GridConfig { rows: 64, cols: 8, iters: 2 }, 4, variant)
    }

    #[test]
    fn validate_and_compiled_jacobi_beat_treadmarks_in_model_time() {
        // The Validate and Compiled forms of Jacobi must finish in less
        // model time than the stock TreadMarks plan, Compiled ahead of
        // Validate. Page-sized columns so the working set is a real
        // multi-page one.
        let cfg = GridConfig { rows: 512, cols: 16, iters: 2 };
        let tmk = run("jacobi", cfg, 4, Variant::TreadMarks);
        let val = run("jacobi", cfg, 4, Variant::Validate);
        let compiled = run("jacobi", cfg, 4, Variant::Compiled);
        assert!(
            val.time_ns < tmk.time_ns,
            "Validate model time: {} vs {}",
            val.time_ns,
            tmk.time_ns
        );
        assert!(
            compiled.time_ns < val.time_ns,
            "Compiled model time: {} vs {}",
            compiled.time_ns,
            val.time_ns
        );
    }

    #[test]
    fn records_render_deterministically() {
        let a = vec![tiny("jacobi", Variant::Compiled), tiny("sor", Variant::Validate)];
        let b = vec![tiny("jacobi", Variant::Compiled), tiny("sor", Variant::Validate)];
        assert_eq!(render_json(&a), render_json(&b), "two identical runs must render identically");
    }

    #[test]
    fn baseline_round_trips_through_the_renderer() {
        // What the suite writes is what the gate reads: records checked
        // against their own rendering are byte-equal, one report line each,
        // under either schema tag.
        let records = vec![tiny("jacobi", Variant::TreadMarks), tiny("jacobi", Variant::Compiled)];
        for baseline in [render_json(&records), render_scale_json(&records)] {
            let report = check_byte_equal(&records, &baseline).expect("a file gates itself");
            assert_eq!(
                report,
                ["jacobi/treadmarks@4: byte-equal", "jacobi/compiled@4: byte-equal"]
            );
        }
    }

    /// Six records at unit-test sizes — the ones the 10 % gate used to
    /// single out, IS among them — with their rendering as the baseline.
    fn gated_current() -> (Vec<BenchRecord>, String) {
        let small = GridConfig { rows: 64, cols: 16, iters: 2 };
        let int_small = GridConfig { rows: 16, cols: 18, iters: 2 };
        let current = vec![
            tiny("jacobi", Variant::Compiled),
            tiny("sor", Variant::Validate),
            run("sor", small, 8, Variant::Validate),
            run("sor", small, 8, Variant::Compiled),
            run("is", int_small, 8, Variant::Compiled),
            run("gauss", int_small, 8, Variant::Compiled),
            run("is", int_small, 8, Variant::Validate),
        ];
        let baseline = render_json(&current);
        (current, baseline)
    }

    #[test]
    fn regression_gate_fails_on_any_difference_and_passes_on_equal_bytes() {
        let (current, same) = gated_current();
        assert!(check_byte_equal(&current, &same).is_ok());
        // Any field of any non-IS record, in either direction: the gate
        // trips. There is no budget — a faster record is a change too.
        for changed in [0, 1, 2, 3, 4, 5] {
            let mut slower = current.clone();
            slower[changed].time_ns += 1;
            assert!(check_byte_equal(&slower, &same).is_err(), "record {changed}, one ns slower");
            let mut fewer = current.clone();
            fewer[changed].messages -= 1;
            assert!(check_byte_equal(&fewer, &same).is_err(), "record {changed}, one message less");
        }
        // A lock-based IS row that differs is printed, with both lines, and
        // passes; compiled IS takes no lock and is gated like the rest.
        let mut jitter = current.clone();
        jitter[6].time_ns += 1_000;
        let report =
            check_byte_equal(&jitter, &same).expect("lock-based IS rows are informational");
        let is_line = report.iter().find(|l| l.starts_with("is/validate@8")).expect("reported");
        assert!(is_line.contains("informational") && is_line.contains("baseline:"), "{is_line}");
        // A baseline missing a record, or holding one the suite no longer
        // produces: refuse to pass silently.
        let partial = render_json(&current[..2]);
        assert!(check_byte_equal(&current, &partial).is_err());
        assert!(check_byte_equal(&current[..2], &same).is_err());
        assert!(check_byte_equal(&current, "{}").is_err());
    }

    #[test]
    fn gate_reports_every_regressed_record_before_failing() {
        // With several records off their baseline at once, the error must
        // name each of them with both lines — not bail on the first — so
        // one CI log diagnoses the whole change.
        let (mut current, baseline) = gated_current();
        current[0].time_ns *= 2;
        current[2].time_ns *= 3;
        current[3].bytes += 8;
        let err = check_byte_equal(&current, &baseline).expect_err("gate must trip");
        for needle in ["jacobi/compiled@4", "sor/validate@8", "sor/compiled@8"] {
            assert!(err.contains(needle), "error must name {needle}: {err}");
        }
        assert!(!err.contains("sor/validate@4"), "equal records are not failures: {err}");
        assert!(!err.contains("gauss/compiled@8"), "equal records are not failures: {err}");
        assert_eq!(err.matches("baseline: ").count(), 3, "both lines of each record: {err}");
        assert_eq!(err.matches("current:  ").count(), 3, "both lines of each record: {err}");
    }

    #[test]
    fn no_compiled_step_re_prepares_a_write_the_initialisation_prepared() {
        // The cover: the initialisation's `WRITE_ALL` preparation of the own
        // block holds every later write of those bytes until a flush
        // boundary write-protects them. Jacobi's, SOR's and Gauss's compiled
        // plans keep no flush at all, so no step after the initialisation
        // prepares a write into the bytes it prepared.
        for app in ["jacobi", "sor", "gauss"] {
            let program = kernel_program(app, standard_cfg(app));
            for nprocs in 1..=16 {
                let kernel = rsdcomp::compile_at(&program, nprocs, rsdcomp::Level::Full);
                for me in 0..nprocs {
                    let steps = &kernel.plan_for(me).steps;
                    let rsdcomp::BoundaryOp::Local { sections: init } = &steps[0].entry else {
                        panic!("{app}@{nprocs}: the initialisation prepares locally");
                    };
                    let written: Vec<_> = init
                        .iter()
                        .filter(|s| s.access() == rsdcomp::Access::WriteAll)
                        .flat_map(|s| s.ranges().iter().copied())
                        .collect();
                    assert!(!written.is_empty(), "{app}@{nprocs}: init prepares its block");
                    for (i, step) in steps.iter().enumerate().skip(1) {
                        let sections = match &step.entry {
                            rsdcomp::BoundaryOp::Local { sections }
                            | rsdcomp::BoundaryOp::Push { sections, .. } => sections,
                            other => panic!("{app}@{nprocs}: step {i} flushes ({})", other.name()),
                        };
                        for range in sections
                            .iter()
                            .filter(|s| s.access().is_write())
                            .flat_map(|s| s.ranges().iter())
                        {
                            assert!(
                                written.iter().all(|w| w.intersect(range).is_none()),
                                "{app}@{nprocs}, processor {me}, step {i}: {range:?} re-prepared"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_shipped_plan_is_pinned() {
        // Every processor's plan of every kernel, at every cluster size the
        // standard and the scale sizes compile at (two columns per
        // processor), digested per compiler level (FNV-1a over the plans'
        // `Debug` text). A change to the planner that moves any shipped plan
        // moves its level's digest; one that only simplifies it does not.
        let digest = |level: rsdcomp::Level| {
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut plans = 0;
            for (size, cfg_of) in
                [("standard", standard_cfg as fn(&str) -> GridConfig), ("scale", scale_cfg)]
            {
                for app in APPS {
                    let cfg = cfg_of(app);
                    let program = kernel_program(app, cfg);
                    for nprocs in (1..=128).filter(|n| 2 * n <= cfg.cols) {
                        let kernel = rsdcomp::compile_at(&program, nprocs, level);
                        for me in 0..nprocs {
                            let text = format!(
                                "{size} {app} {level:?} {nprocs} {me} {:?}",
                                kernel.plan_for(me)
                            );
                            for byte in text.bytes() {
                                digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                            }
                            plans += 1;
                        }
                    }
                }
            }
            assert_eq!(plans, 4 * (16 * 17 / 2 + 128 * 129 / 2));
            digest
        };
        assert_eq!(
            digest(rsdcomp::Level::Validate),
            2_548_764_055_906_730_838,
            "a shipped Validate plan moved"
        );
        assert_eq!(
            digest(rsdcomp::Level::Full),
            2_716_386_077_365_972_008,
            "a shipped Full plan moved"
        );
        assert_eq!(
            digest(rsdcomp::Level::Stock),
            11_556_076_593_523_933_937,
            "a shipped Stock plan moved"
        );
    }

    #[test]
    fn the_stock_plan_keeps_every_barrier_and_lock_and_prepares_nothing() {
        // The TreadMarks variant is the plan at `Level::Stock`: no step
        // carries a section, a push or a reduction, every communicating
        // boundary is a plain barrier, and integer sort's merge takes its
        // lock after one — the synchronization the program needs with every
        // page faulting on demand.
        use rsdcomp::BoundaryOp;
        for app in APPS {
            let cfg = standard_cfg(app);
            let program = kernel_program(app, cfg);
            for nprocs in 1..=16 {
                let (barriers, acquires) = match (app, nprocs) {
                    // Alone, a processor communicates with nobody: only the
                    // guarded entries keep their barrier.
                    ("is", 1) => (cfg.iters, cfg.iters),
                    (_, 1) => (0, 0),
                    ("jacobi" | "gauss", _) => (cfg.iters, 0),
                    ("sor", _) => (2 * cfg.iters, 0),
                    _ => (2 * cfg.iters, cfg.iters),
                };
                let kernel = rsdcomp::compile_at(&program, nprocs, rsdcomp::Level::Stock);
                for me in 0..nprocs {
                    let plan = kernel.plan_for(me);
                    assert_eq!(
                        (plan.barriers(), plan.lock_acquires(), plan.reductions()),
                        (barriers, acquires, 0),
                        "{app}@{nprocs}, processor {me}"
                    );
                    for (i, step) in plan.steps.iter().enumerate() {
                        let (BoundaryOp::Local { sections }
                        | BoundaryOp::Barrier { sections }
                        | BoundaryOp::BarrierLock { sections, .. }) = &step.entry
                        else {
                            panic!(
                                "{app}@{nprocs}, processor {me}, step {i}: {}",
                                step.entry.name()
                            );
                        };
                        assert!(sections.is_empty(), "{app}@{nprocs}, processor {me}, step {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn explain_dumps_are_deterministic_and_cover_every_kernel() {
        for app in APPS {
            let a = explain_app(app).expect("known kernel");
            let b = explain_app(app).expect("known kernel");
            assert_eq!(a, b, "{app} explain must be byte-deterministic");
            assert!(a.contains("totals:"));
        }
        let sor = explain_app("sor").expect("sor");
        assert!(sor.contains("real-barriers=0 lock-acquires=0"), "{sor}");
        assert!(!sor.contains(": barrier"), "{sor}");
        assert!(explain_app("jacobi").expect("jacobi").contains("push"));
        assert!(explain_app("is").expect("is").contains("lock"));
        assert!(explain_app("gauss").expect("gauss").contains("push"));
        assert!(explain_app("nope").is_none());
    }

    #[test]
    fn baseline_keying_disambiguates_nprocs() {
        // Regression test for the ambiguous-baseline bug: with `nprocs` in
        // the matrix, keying by `(app, variant)` alone made the gate
        // compare against whichever matching record appeared *first* in the
        // baseline file. Here the baseline holds `sor/validate` at 2, 4 and
        // 8 processors, the 2-processor line first; each current record
        // must find its own line.
        let (mut current, _) = gated_current();
        current.insert(
            0,
            run("sor", GridConfig { rows: 64, cols: 8, iters: 2 }, 2, Variant::Validate),
        );
        let baseline = render_json(&current);
        let report = check_byte_equal(&current, &baseline)
            .expect("per-nprocs keying must match the right record");
        assert!(report.contains(&"sor/validate@8: byte-equal".to_string()), "{report:?}");
        // The converse direction: a changed 8-processor record must not
        // hide behind the same-(app,variant) lines at other sizes.
        current[3].time_ns += 1;
        let err = check_byte_equal(&current, &baseline).expect_err("the 8-processor row changed");
        assert!(err.contains("sor/validate@8") && !err.contains("sor/validate@4"), "{err}");
    }

    #[test]
    fn split_phase_barriers_hit_the_acceptance_targets() {
        // At the standard suite size the split-phase SOR/Validate path
        // must land below 8 ms model time, and the split-phase counters
        // must be surfaced in the record.
        let sor_cfg = GridConfig { rows: 512, cols: 32, iters: 3 };
        let sor_val = run("sor", sor_cfg, 4, Variant::Validate);
        assert!(
            sor_val.time_ns < 8_000_000,
            "sor/validate must be under 8 ms: {} ns",
            sor_val.time_ns
        );
        assert!(sor_val.split_phase_issues > 0, "split-phase issues must be surfaced");
        assert!(sor_val.sync_wait_ns > 0, "completion stall must be surfaced");
    }

    #[test]
    fn detector_off_is_free_and_collect_takes_no_new_table_locks() {
        // The ISSUE acceptance criterion, self-enforced: with the detector
        // off, a gated record must be indistinguishable from a plain run —
        // same model time, same wire bytes — and turning Collect on must
        // not add a single page-table-lock acquisition (detection reads
        // twins and cached diffs under locks the protocol already holds).
        let cfg = GridConfig { rows: 64, cols: 16, iters: 2 };
        let plain = run("sor", cfg, 8, Variant::Compiled);
        let run_with = |detect: treadmarks::RaceDetect| {
            let config =
                DsmConfig::new(8).with_cost_model(CostModel::sp2()).with_race_detect(detect);
            Dsm::run(config, move |p| sor(p, &cfg, Variant::Compiled))
        };
        let off = run_with(treadmarks::RaceDetect::Off);
        let on = run_with(treadmarks::RaceDetect::Collect);
        let (off_total, on_total) = (off.stats.total(), on.stats.total());
        assert_eq!(
            off.execution_time().as_nanos(),
            plain.time_ns,
            "Off must match the plain run's model time"
        );
        assert_eq!(off_total.bytes_sent, plain.bytes, "Off must match the plain run's wire bytes");
        assert!(on.races.is_empty(), "an analyzer-accepted kernel must run report-free");
        assert_eq!(
            on_total.table_lock_acquires, off_total.table_lock_acquires,
            "Collect must not acquire the page-table lock any additional time"
        );
    }

    #[test]
    fn tree_barrier_beats_flat_at_eight_processors() {
        // The tentpole's measured claim: at the paper's 8 processors the
        // tree-structured barrier (arity 2) must beat the stock
        // master-centric exchange on the barrier-bound SOR/Validate path,
        // measured in the same run.
        let cfg = GridConfig { rows: 512, cols: 32, iters: 3 };
        let case = Case::new("sor", cfg, 8, Variant::Validate);
        let tree = run_case(Case { barrier: BarrierTopology::Tree { arity: 2 }, ..case });
        let flat = run_case(Case { barrier: BarrierTopology::FlatMaster, ..case });
        assert!(
            tree.time_ns < flat.time_ns,
            "tree barrier must beat the flat master at 8 procs: {} vs {} ns",
            tree.time_ns,
            flat.time_ns
        );
    }

    #[test]
    fn scale_gated_records_are_byte_deterministic_across_reruns() {
        // The PR9 acceptance criterion, and what licenses a byte-equal
        // scale gate: the barrier-synchronized kernels of the scale matrix
        // render byte-identically on a rerun (here at 64 processors; the
        // IS rows carry lock-grant arrival jitter and are informational).
        let gated_run = || -> Vec<BenchRecord> {
            let mut records = Vec::new();
            for app in ["jacobi", "sor", "gauss"] {
                for variant in SCALE_VARIANTS {
                    records.push(run(app, scale_cfg(app), 64, variant));
                }
            }
            records
        };
        let a = render_scale_json(&gated_run());
        let b = render_scale_json(&gated_run());
        assert_eq!(a, b, "the gated scale records must reproduce byte-for-byte");
        assert!(a.contains(SCALE_SCHEMA), "the scale schema tag is embedded");
    }

    #[test]
    fn scale_gate_trips_on_regressions_and_requires_every_gated_record() {
        // Fabricated records (real 64-processor runs are tested above):
        // the scale file is read by the same gate, which trips on any
        // change to a barrier-kernel record, lets an IS row jitter, and
        // refuses a baseline that lacks a record.
        let mut current = Vec::new();
        for app in APPS {
            for variant in SCALE_VARIANTS {
                let mut r = tiny("jacobi", Variant::Compiled);
                (r.app, r.variant, r.nprocs, r.time_ns) = (app, variant.name(), 64, 1_000_000);
                current.push(r);
            }
        }
        let baseline = render_scale_json(&current);
        assert!(check_byte_equal(&current, &baseline).is_ok());
        let mut slow = current.clone();
        slow[3].time_ns *= 2;
        slow[4].time_ns *= 2;
        let err = check_byte_equal(&slow, &baseline).expect_err("gate must trip");
        assert!(err.contains("sor/compiled@64"), "the changed record is named: {err}");
        assert!(!err.contains("is/validate@64"), "IS rows are informational: {err}");
        let partial = render_scale_json(&current[..3]);
        assert!(
            check_byte_equal(&current, &partial).is_err(),
            "a baseline missing records must not pass"
        );
    }

    #[test]
    fn net_faults_off_is_bit_identical_to_the_checked_in_baseline() {
        // The PR7 acceptance criterion, cross-commit-enforced: with
        // faults Off (the default), records must reproduce the checked-in
        // baseline *exactly* — every field of the rendered line, model
        // time, wire bytes and table-lock count among them — proving the
        // fault layer costs literally nothing when disabled.
        // Any header byte, extra lock, or timing nudge on the Off path
        // breaks this. (`dsm-bench --check` holds the whole matrix to the
        // same file; these five keep the property inside `cargo test`.
        // is/compiled is absent because lock-grant arrival order jitters
        // its wire traffic run-to-run.)
        let baseline_json =
            std::fs::read_to_string(format!("{}/../../BENCH_PR8.json", env!("CARGO_MANIFEST_DIR")))
                .unwrap_or_else(|err| panic!("the checked-in BENCH_PR8.json baseline: {err}"));
        for (app, variant, nprocs) in [
            ("jacobi", Variant::Compiled, 4),
            ("sor", Variant::Validate, 4),
            ("sor", Variant::Validate, 8),
            ("sor", Variant::Compiled, 8),
            ("gauss", Variant::Compiled, 8),
        ] {
            let line = render_record(&run(app, standard_cfg(app), nprocs, variant));
            assert!(
                baseline_json.lines().any(|l| l.trim().trim_end_matches(',') == line),
                "faults-Off must reproduce the BENCH_PR8.json line exactly, got {line}"
            );
        }
    }
}
