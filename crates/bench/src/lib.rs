//! # dsm-bench — the benchmark harness
//!
//! Runs the application kernels of [`dsm_apps`] under the SP/2 cost model
//! in every protocol variant — including the **compiled** form whose call
//! sequence `rsdcomp::compile` generates from the loop-nest IR — at every
//! cluster size of the matrix (`nprocs` ∈ {2, 4, 8, 16}; the paper reports
//! 8 processors, 16 records the tree-vs-flat crossover). It collects the
//! `sp2model` statistics that the paper's tables are built from (page
//! faults, messages, bytes, lock acquisitions, virtual time), the fast-path
//! counters introduced with the software TLB, the split-phase counters,
//! and the compiler counters (`barriers_eliminated`, `merged_sync_msgs` —
//! eliminated boundaries and the merged data+sync acks that replaced
//! them), and renders them as deterministic JSON. `sor/validate` is
//! additionally recorded under the flat master-centric barrier
//! (`validate_flat`) so the tree-vs-flat crossover curve is in the data.
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
//! `cargo run -p dsm-bench -- --scale` runs the wide-cluster matrix the
//! reactor pool makes affordable — all four kernels, validate + compiled,
//! at `nprocs` ∈ {32, 64, 128} — and writes `BENCH_PR9.json`;
//! `--scale --check` holds it to that file the same way, and `--reactors
//! N` forces the pool size, which must not — and provably does not —
//! change a single byte of any record. The reactor counters (poll cycles, served-per-wakeup, peak
//! queue depth) are printed alongside but deliberately kept *out* of the
//! JSON: they are host-scheduling dependent.
//!
//! `cargo run -p dsm-bench -- --race <app>` runs every kernel/variant of
//! the matrix twice — race detector off and collecting — and prints the
//! overhead table. Those records are informational (never gated, never
//! written to a file); what *is* enforced, by
//! `detector_off_is_free_and_collect_takes_no_new_table_locks`, is that
//! `RaceDetect::Off` costs exactly nothing on the gated records and that
//! `Collect` adds no page-table-lock acquisitions on the warm TLB path.
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
use treadmarks::{BarrierTopology, Dsm, DsmConfig, NetFaults, SharedArray, SharedMatrix};

/// The schema tag embedded in the JSON output.
pub const SCHEMA: &str = "dsm-bench/pr8";

/// The schema tag of the wide-cluster scale matrix (`--scale`).
pub const SCALE_SCHEMA: &str = "dsm-bench/pr9-scale";

/// The cluster sizes of the standard matrix (the paper reports 8
/// processors; 16 records the barrier-topology crossover at two columns
/// per processor).
pub const NPROCS_MATRIX: [usize; 4] = [2, 4, 8, 16];

/// The cluster sizes of the scale matrix: the reactor-pool refactor's
/// target range, far past the paper's 8-node SP/2. Every size runs on a
/// bounded host-thread pool (`nprocs + min(nprocs, cores) + 1` threads,
/// not `2·nprocs + 1`).
pub const SCALE_NPROCS: [usize; 3] = [32, 64, 128];

/// The variants the scale matrix records: the split-phase Validate path
/// and the compiler-generated plan. (The per-element checked baseline is
/// pure slow-path by construction and the hand-coded Push floor tracks
/// Compiled; neither adds information at wide sizes worth the run time.)
pub const SCALE_VARIANTS: [Variant; 2] = [Variant::Validate, Variant::Compiled];

/// The standard Jacobi size (page-aligned columns).
pub const JACOBI_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 4 };

/// The standard SOR size.
pub const SOR_CFG: GridConfig = GridConfig { rows: 512, cols: 32, iters: 3 };

/// The standard integer-sort size. `cols` must reach `2 * nprocs` at the
/// largest matrix point (16), and small enough that columns share pages, so
/// the lock-grant piggyback crosses false-sharing boundaries.
pub const IS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 3 };

/// The standard Gaussian-elimination size (`iters` elimination steps, each
/// with an iteration-dependent pivot broadcast).
pub const GAUSS_CFG: GridConfig = GridConfig { rows: 64, cols: 32, iters: 6 };

/// The scale-matrix Jacobi size: 256 columns so the widest point (128
/// processors) still gets the kernels' required two columns per processor.
pub const SCALE_JACOBI_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix SOR size.
pub const SCALE_SOR_CFG: GridConfig = GridConfig { rows: 64, cols: 256, iters: 2 };

/// The scale-matrix integer-sort size (few rows: the lock-based exchange
/// is per-column and dominates).
pub const SCALE_IS_CFG: GridConfig = GridConfig { rows: 8, cols: 256, iters: 2 };

/// The scale-matrix Gaussian-elimination size (`iters` must stay below
/// both dimensions).
pub const SCALE_GAUSS_CFG: GridConfig = GridConfig { rows: 32, cols: 256, iters: 4 };

/// The page-aligned control of the scale matrix: the wide grid's 256
/// columns with 512 rows, so a column is a page and no page has two
/// writers. `jacobi` and `sor` run on it in the `Validate` variant at 64
/// processors as `validate_aligned`, next to the 64-row records where
/// eight columns — two processors' blocks — share a page: same tree, same
/// hops, same plan; what differs between the pair is sub-page sharing.
pub const SCALE_ALIGNED_CFG: GridConfig = GridConfig { rows: 512, cols: 256, iters: 2 };

/// The scale-matrix size for `app`.
pub fn scale_cfg(app: &str) -> GridConfig {
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

/// One kernel execution reduced to what the suites record: the summed
/// statistics, the model time, the per-processor checksums as bits (so
/// float and integer kernels compare the same way) and the race-report
/// count.
struct KernelRun {
    total: StatsSnapshot,
    time_ns: u64,
    result_bits: Vec<u64>,
    races: u64,
}

fn run_kernel(app: &str, cfg: GridConfig, config: DsmConfig, variant: Variant) -> KernelRun {
    match app_fn(app) {
        AppFn::F64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            KernelRun {
                total: run.stats.total(),
                time_ns: run.execution_time().as_nanos(),
                result_bits: run.results.iter().map(|s| s.to_bits()).collect(),
                races: run.races.len() as u64,
            }
        }
        AppFn::U64(kernel) => {
            let run = Dsm::run(config, move |p| kernel(p, &cfg, variant));
            KernelRun {
                total: run.stats.total(),
                time_ns: run.execution_time().as_nanos(),
                result_bits: run.results.clone(),
                races: run.races.len() as u64,
            }
        }
    }
}

/// The standard size for `app` (the one the suites and `--explain` use).
pub fn standard_cfg(app: &str) -> GridConfig {
    match app {
        "jacobi" => JACOBI_CFG,
        "sor" => SOR_CFG,
        "is" => IS_CFG,
        "gauss" => GAUSS_CFG,
        other => panic!("unknown kernel {other:?}"),
    }
}

/// Every kernel of the suite, in the fixed record order.
pub const APPS: [&str; 4] = ["jacobi", "sor", "is", "gauss"];

/// One benchmark run: a kernel, a variant, its size, and what it measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name (`"treadmarks"`, `"validate"`, `"push"`).
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
    /// Accesses served by the software TLB without the table lock.
    pub tlb_hits: u64,
    /// Accesses that took the table-locked slow path.
    pub tlb_misses: u64,
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
    /// Split-phase `Validate_w_sync` issue halves.
    pub split_phase_issues: u64,
    /// Split-phase completion halves.
    pub split_phase_completes: u64,
    /// Phase boundaries where the compiled plan replaced a barrier with a
    /// point-to-point neighbour sync, summed over processors.
    pub barriers_eliminated: u64,
    /// Merged data+sync messages sent (neighbour-sync acks carrying write
    /// notices, timestamps and diffs together).
    pub merged_sync_msgs: u64,
}

/// One case of a suite: which kernel runs at what size on how many
/// processors in which variant, and the three things a suite may vary on
/// top of that.
#[derive(Debug, Clone, Copy)]
pub struct Case {
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
    /// Pins the protocol-reactor pool; `None` is the default one-per-core
    /// pool. Records are bit-identical either way (the pool size is
    /// host-side scheduling only) — the pin exists so `--reactors N` can
    /// exercise a specific multiplexing degree.
    pub reactors: Option<usize>,
}

impl Case {
    /// The case under its variant's own name, the default barrier and the
    /// default reactor pool.
    pub fn new(app: &'static str, cfg: GridConfig, nprocs: usize, variant: Variant) -> Case {
        let barrier = BarrierTopology::default();
        Case { app, cfg, nprocs, variant, name: variant.name(), barrier, reactors: None }
    }
}

/// Runs one case under the SP/2 cost model and collects its record.
pub fn run_case(case: Case) -> BenchRecord {
    let Case { app, cfg, nprocs, variant, name, barrier, reactors } = case;
    let mut config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_barrier(barrier);
    if let Some(n) = reactors {
        config = config.with_reactors(n);
    }
    let run = run_kernel(app, cfg, config, variant);
    let t = run.total;
    BenchRecord {
        app,
        variant: name,
        nprocs,
        rows: cfg.rows,
        cols: cfg.cols,
        iters: cfg.iters,
        time_ns: run.time_ns,
        table_lock_acquires: t.table_lock_acquires,
        tlb_hits: t.tlb_hits,
        tlb_misses: t.tlb_misses,
        page_faults: t.page_faults,
        messages: t.messages_sent,
        bytes: t.bytes_sent,
        lock_acquires: t.lock_acquires,
        sync_wait_ns: t.sync_wait_ns,
        split_phase_issues: t.split_phase_issues,
        split_phase_completes: t.split_phase_completes,
        barriers_eliminated: t.barriers_eliminated,
        merged_sync_msgs: t.merged_sync_msgs,
    }
}

/// The standard suite: all four kernels, all four variants, at the smoke
/// sizes used by CI across the `nprocs` matrix — plus the
/// `sor/validate_flat` rows (the same protocol under the stock
/// master-centric barrier) that record the tree-vs-flat crossover curve.
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
/// page-aligned `validate_aligned` controls ([`SCALE_ALIGNED_CFG`]).
/// `reactors` pins the protocol-reactor pool for every run (`None` = one
/// per core); the records are bit-identical for any pool size.
pub fn scale_suite(reactors: Option<usize>) -> Vec<BenchRecord> {
    let mut records = Vec::new();
    for app in APPS {
        let cfg = scale_cfg(app);
        for &nprocs in &SCALE_NPROCS {
            for variant in SCALE_VARIANTS {
                records.push(run_case(Case { reactors, ..Case::new(app, cfg, nprocs, variant) }));
            }
        }
    }
    for app in ["jacobi", "sor"] {
        records.push(run_case(Case {
            name: "validate_aligned",
            reactors,
            ..Case::new(app, SCALE_ALIGNED_CFG, 64, Variant::Validate)
        }));
    }
    records
}

/// Runs one wide Jacobi/Validate case and returns the per-reactor
/// statistics of its pool — what `--scale` prints as the reactor summary.
/// The counters are host-scheduling dependent (poll sweeps, doorbell
/// wakeups, peak backlog) and deliberately never part of any JSON record.
pub fn probe_reactor_pool(
    nprocs: usize,
    reactors: Option<usize>,
) -> Vec<sp2model::ReactorSnapshot> {
    let mut config = DsmConfig::new(nprocs).with_cost_model(CostModel::sp2());
    if let Some(n) = reactors {
        config = config.with_reactors(n);
    }
    let cfg = SCALE_JACOBI_CFG;
    let run = Dsm::run(config, move |p| dsm_apps::jacobi(p, &cfg, Variant::Validate));
    run.reactors
}

/// One detector-overhead measurement: the same kernel/variant/size run
/// twice, with `RaceDetect::Off` and `RaceDetect::Collect`, under the SP/2
/// cost model. Informational only — never gated (the detector is a debug
/// mode; what *is* enforced, by the protocol tests, is that `Off` costs
/// exactly nothing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceBenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Model execution time with the detector off, in nanoseconds.
    pub time_ns_off: u64,
    /// Model execution time with the detector collecting, in nanoseconds.
    pub time_ns_on: u64,
    /// Detector overhead in hundredths of a percent:
    /// `(on - off) / off * 10_000`.
    pub overhead_centipct: u64,
    /// Payload bytes sent with the detector off.
    pub bytes_off: u64,
    /// Payload bytes sent with the detector on (creating timestamps ride
    /// the diff records).
    pub bytes_on: u64,
    /// Race reports collected (zero for every analyzer-accepted kernel).
    pub races: u64,
}

/// Runs one kernel/variant combination twice — detector off and detector
/// collecting — and records the overhead.
pub fn run_race_case(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
) -> RaceBenchRecord {
    let run_with = |detect: treadmarks::RaceDetect| {
        let config =
            DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()).with_race_detect(detect);
        run_kernel(app, cfg, config, variant)
    };
    let off = run_with(treadmarks::RaceDetect::Off);
    let on = run_with(treadmarks::RaceDetect::Collect);
    let overhead_centipct =
        (on.time_ns.saturating_sub(off.time_ns) * 10_000).checked_div(off.time_ns).unwrap_or(0);
    RaceBenchRecord {
        app,
        variant: variant.name(),
        nprocs,
        time_ns_off: off.time_ns,
        time_ns_on: on.time_ns,
        overhead_centipct,
        bytes_off: off.total.bytes_sent,
        bytes_on: on.total.bytes_sent,
        races: on.races,
    }
}

/// The detector-overhead suite for one kernel (or `"all"`): every variant
/// across the `nprocs` matrix at the standard suite sizes.
pub fn race_suite(app: &str) -> Vec<RaceBenchRecord> {
    let mut records = Vec::new();
    for name in APPS {
        if app != "all" && app != name {
            continue;
        }
        for &nprocs in &NPROCS_MATRIX {
            for variant in Variant::ALL {
                records.push(run_race_case(name, standard_cfg(name), nprocs, variant));
            }
        }
    }
    records
}

/// The seeded fault schedules the chaos suite runs every case under (three
/// distinct seeds, drops/duplicates/delays/reorders all enabled — see
/// [`NetFaults::chaos`]).
pub const CHAOS_SEEDS: [u64; 3] = [11, 23, 47];

/// One chaos measurement: a kernel/variant/size run fault-free and under
/// one seeded fault schedule, with the injected-fault counts and the
/// checksum comparison. Informational only — never gated (what *is*
/// enforced, by the chaos tests, is `checksums_match` and zero races).
///
/// Only sender-side fault counters appear here: they are a pure function of
/// the schedule and the deterministic virtual-time send sequence. The
/// receiver-side `net_dup_drops` counter trails real-time delivery order
/// and is deliberately excluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosBenchRecord {
    /// Kernel name (`"jacobi"`, `"sor"`).
    pub app: &'static str,
    /// Variant name.
    pub variant: &'static str,
    /// Number of simulated processors.
    pub nprocs: usize,
    /// Seed of the fault schedule this record ran under.
    pub seed: u64,
    /// Model execution time of the fault-free run, in nanoseconds.
    pub time_ns_clean: u64,
    /// Model execution time under the fault schedule, in nanoseconds.
    pub time_ns_chaos: u64,
    /// Retransmissions the schedule forced (dropped attempts).
    pub retransmits: u64,
    /// Messages duplicated in flight.
    pub dups: u64,
    /// Messages delivered behind later same-link traffic.
    pub reorders: u64,
    /// Messages that suffered injected link delay.
    pub delays: u64,
    /// Whether every per-processor checksum was bit-identical to the
    /// fault-free run (the reliable-delivery layer's whole claim).
    pub checksums_match: bool,
    /// Race reports collected under the schedule (must stay zero).
    pub races: u64,
}

/// Runs one kernel/variant combination fault-free once and then under each
/// seeded chaos schedule, comparing checksums bit-for-bit. The race
/// detector collects in every run so a fault-induced ordering bug would
/// surface both as a checksum mismatch and as a race report.
pub fn run_chaos_cases(
    app: &'static str,
    cfg: GridConfig,
    nprocs: usize,
    variant: Variant,
    seeds: &[u64],
) -> Vec<ChaosBenchRecord> {
    let run_with = |faults: Option<NetFaults>| {
        let config = DsmConfig::new(nprocs)
            .with_cost_model(CostModel::sp2())
            .with_race_detect(treadmarks::RaceDetect::Collect)
            .with_net_faults(faults);
        run_kernel(app, cfg, config, variant)
    };
    let clean = run_with(None);
    seeds
        .iter()
        .map(|&seed| {
            let chaos = run_with(Some(NetFaults::chaos(seed)));
            let t = &chaos.total;
            ChaosBenchRecord {
                app,
                variant: variant.name(),
                nprocs,
                seed,
                time_ns_clean: clean.time_ns,
                time_ns_chaos: chaos.time_ns,
                retransmits: t.net_retransmits,
                dups: t.net_dups,
                reorders: t.net_reorders,
                delays: t.net_delays,
                checksums_match: chaos.result_bits == clean.result_bits,
                races: chaos.races,
            }
        })
        .collect()
}

/// The chaos suite for one kernel (or `"all"`): every variant at
/// `nprocs` ∈ {2, 4, 8} under each [`CHAOS_SEEDS`] schedule, at the
/// standard suite sizes.
pub fn chaos_suite(app: &str) -> Vec<ChaosBenchRecord> {
    let mut records = Vec::new();
    for name in APPS {
        if app != "all" && app != name {
            continue;
        }
        for nprocs in [2, 4, 8] {
            for variant in Variant::ALL {
                records.extend(run_chaos_cases(
                    name,
                    standard_cfg(name),
                    nprocs,
                    variant,
                    &CHAOS_SEEDS,
                ));
            }
        }
    }
    records
}

/// The chaos suite's pass/fail summary: `Err` (with one line per offending
/// record) when any record's checksums diverged from the fault-free run or
/// any race was reported — the `--chaos` CLI exits non-zero on it.
///
/// # Errors
///
/// Returns `Err` when any record has `checksums_match == false` or
/// `races > 0`.
pub fn check_chaos(records: &[ChaosBenchRecord]) -> Result<(), String> {
    let failures: Vec<String> = records
        .iter()
        .filter(|r| !r.checksums_match || r.races > 0)
        .map(|r| {
            format!(
                "{}/{}@{} seed {}: checksums_match={}, races={}",
                r.app, r.variant, r.nprocs, r.seed, r.checksums_match, r.races
            )
        })
        .collect();
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

/// The `--explain` dump for one kernel: builds the kernel's IR at the
/// standard suite size (arrays laid out exactly as the SPMD allocator lays
/// them out: page-aligned, in allocation order), compiles it for the
/// paper's 8 processors and renders the plan. Pure and deterministic.
/// Returns `None` for an unknown app name.
pub fn explain_app(app: &str) -> Option<String> {
    /// The paper's cluster size, used for every explain dump.
    const EXPLAIN_NPROCS: usize = 8;
    let matrix = |cfg: &GridConfig, base: Addr| {
        SharedMatrix::new(SharedArray::<f64>::new(base, cfg.rows * cfg.cols), cfg.rows, cfg.cols)
    };
    let program = match app {
        "jacobi" => {
            let cfg = JACOBI_CFG;
            let a = matrix(&cfg, Addr::ZERO);
            let b = matrix(&cfg, Addr::new(cfg.rows * cfg.cols * 8).page_align_up());
            jacobi_program(&a, &b, cfg.iters)
        }
        "sor" => {
            let cfg = SOR_CFG;
            sor_program(&matrix(&cfg, Addr::ZERO), cfg.iters)
        }
        "is" => {
            let cfg = IS_CFG;
            let elems = cfg.rows * cfg.cols;
            let keys =
                SharedMatrix::new(SharedArray::<u64>::new(Addr::ZERO, elems), cfg.rows, cfg.cols);
            let hist = SharedMatrix::new(
                SharedArray::<u64>::new(Addr::new(elems * 8).page_align_up(), elems),
                cfg.rows,
                cfg.cols,
            );
            is_program(&keys, &hist, cfg.iters)
        }
        "gauss" => {
            let cfg = GAUSS_CFG;
            let a = matrix(&cfg, Addr::ZERO);
            let piv = matrix(&cfg, Addr::new(cfg.rows * cfg.cols * 8).page_align_up());
            gauss_program(&a, &piv, cfg.iters)
        }
        _ => return None,
    };
    let kernel = rsdcomp::compile(&program, EXPLAIN_NPROCS);
    Some(rsdcomp::explain(&program, &kernel))
}

/// Renders records as deterministic JSON: fixed field order, one record per
/// line, no floats.
pub fn render_json(records: &[BenchRecord]) -> String {
    render_json_with_schema(SCHEMA, records)
}

/// Renders scale-matrix records under the [`SCALE_SCHEMA`] tag (the
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
         \"iters\":{},\"time_ns\":{},\"table_lock_acquires\":{},\"tlb_hits\":{},\
         \"tlb_misses\":{},\"page_faults\":{},\"messages\":{},\"bytes\":{},\
         \"lock_acquires\":{},\"sync_wait_ns\":{},\"split_phase_issues\":{},\
         \"split_phase_completes\":{},\"barriers_eliminated\":{},\
         \"merged_sync_msgs\":{}}}",
        r.app,
        r.variant,
        r.nprocs,
        r.rows,
        r.cols,
        r.iters,
        r.time_ns,
        r.table_lock_acquires,
        r.tlb_hits,
        r.tlb_misses,
        r.page_faults,
        r.messages,
        r.bytes,
        r.lock_acquires,
        r.sync_wait_ns,
        r.split_phase_issues,
        r.split_phase_completes,
        r.barriers_eliminated,
        r.merged_sync_msgs,
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
            Some(&base) if cur.app == "is" => {
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
    fn warm_path_takes_at_least_five_times_fewer_table_locks() {
        // The ISSUE acceptance criterion, self-enforced: the Validate and
        // Push forms of Jacobi must acquire the page-table lock at least 5x
        // less often than the per-element checked baseline, and finish in
        // less model time. Page-sized columns so the working set is a real
        // multi-page one (a one-page grid fits any cache and shows nothing).
        let cfg = GridConfig { rows: 512, cols: 16, iters: 2 };
        let tmk = run("jacobi", cfg, 4, Variant::TreadMarks);
        let val = run("jacobi", cfg, 4, Variant::Validate);
        let push = run("jacobi", cfg, 4, Variant::Push);
        assert!(
            tmk.table_lock_acquires >= 5 * val.table_lock_acquires,
            "Validate must cut table locks >=5x: {} vs {}",
            tmk.table_lock_acquires,
            val.table_lock_acquires
        );
        assert!(
            tmk.table_lock_acquires >= 5 * push.table_lock_acquires,
            "Push must cut table locks >=5x: {} vs {}",
            tmk.table_lock_acquires,
            push.table_lock_acquires
        );
        assert!(
            val.time_ns < tmk.time_ns,
            "Validate model time: {} vs {}",
            val.time_ns,
            tmk.time_ns
        );
        assert!(push.time_ns < val.time_ns, "Push model time: {} vs {}", push.time_ns, val.time_ns);
        assert!(val.tlb_hits > 0, "the optimized form must run on the TLB fast path");
    }

    #[test]
    fn records_render_deterministically() {
        let a = vec![tiny("jacobi", Variant::Push), tiny("sor", Variant::Validate)];
        let b = vec![tiny("jacobi", Variant::Push), tiny("sor", Variant::Validate)];
        assert_eq!(render_json(&a), render_json(&b), "two identical runs must render identically");
    }

    #[test]
    fn baseline_round_trips_through_the_renderer() {
        // What the suite writes is what the gate reads: records checked
        // against their own rendering are byte-equal, one report line each,
        // under either schema tag.
        let records = vec![tiny("jacobi", Variant::TreadMarks), tiny("jacobi", Variant::Push)];
        for baseline in [render_json(&records), render_scale_json(&records)] {
            let report = check_byte_equal(&records, &baseline).expect("a file gates itself");
            assert_eq!(report, ["jacobi/treadmarks@4: byte-equal", "jacobi/push@4: byte-equal"]);
        }
    }

    /// Six records at unit-test sizes — the ones the 10 % gate used to
    /// single out, IS among them — with their rendering as the baseline.
    fn gated_current() -> (Vec<BenchRecord>, String) {
        let small = GridConfig { rows: 64, cols: 16, iters: 2 };
        let int_small = GridConfig { rows: 16, cols: 18, iters: 2 };
        let current = vec![
            tiny("jacobi", Variant::Push),
            tiny("sor", Variant::Validate),
            run("sor", small, 8, Variant::Validate),
            run("sor", small, 8, Variant::Compiled),
            run("is", int_small, 8, Variant::Compiled),
            run("gauss", int_small, 8, Variant::Compiled),
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
        for changed in [0, 1, 2, 3, 5] {
            let mut slower = current.clone();
            slower[changed].time_ns += 1;
            assert!(check_byte_equal(&slower, &same).is_err(), "record {changed}, one ns slower");
            let mut fewer = current.clone();
            fewer[changed].messages -= 1;
            assert!(check_byte_equal(&fewer, &same).is_err(), "record {changed}, one message less");
        }
        // An IS row that differs is printed, with both lines, and passes.
        let mut jitter = current.clone();
        jitter[4].time_ns += 1_000;
        let report = check_byte_equal(&jitter, &same).expect("IS rows are informational");
        let is_line = report.iter().find(|l| l.starts_with("is/compiled@8")).expect("reported");
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
        for needle in ["jacobi/push@4", "sor/validate@8", "sor/compiled@8"] {
            assert!(err.contains(needle), "error must name {needle}: {err}");
        }
        assert!(!err.contains("sor/validate@4"), "equal records are not failures: {err}");
        assert!(!err.contains("gauss/compiled@8"), "equal records are not failures: {err}");
        assert_eq!(err.matches("baseline: ").count(), 3, "both lines of each record: {err}");
        assert_eq!(err.matches("current:  ").count(), 3, "both lines of each record: {err}");
    }

    #[test]
    fn compiled_sor_lands_between_validate_and_push() {
        // The tentpole's measured claim, self-enforced at the standard
        // suite size and the paper's 8 processors: the generated plan —
        // which eliminates one half-sweep barrier per iteration and merges
        // the data with the surviving sync — must beat the split-phase
        // Validate path while the hand-coded all-push form stays the floor.
        let validate = run("sor", SOR_CFG, 8, Variant::Validate);
        let compiled = run("sor", SOR_CFG, 8, Variant::Compiled);
        let push = run("sor", SOR_CFG, 8, Variant::Push);
        assert!(
            compiled.time_ns < validate.time_ns,
            "sor/compiled@8 must be strictly faster than sor/validate@8: {} vs {} ns",
            compiled.time_ns,
            validate.time_ns
        );
        assert!(
            push.time_ns < compiled.time_ns,
            "the hand-coded push floor stays below the compiled form: {} vs {} ns",
            push.time_ns,
            compiled.time_ns
        );
        assert!(compiled.barriers_eliminated > 0, "the record must show eliminated barriers");
        assert!(compiled.merged_sync_msgs > 0, "the record must show merged data+sync messages");
    }

    #[test]
    fn explain_dumps_are_deterministic_and_cover_every_kernel() {
        for app in APPS {
            let a = explain_app(app).expect("known kernel");
            let b = explain_app(app).expect("known kernel");
            assert_eq!(a, b, "{app} explain must be byte-deterministic");
            assert!(a.contains("totals:"));
        }
        assert!(explain_app("sor").expect("sor").contains("eliminated-barrier"));
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
        // The ISSUE acceptance criteria, self-enforced at the standard
        // suite size: the split-phase SOR/Validate path must land below
        // 8 ms model time, every aggregate/optimized form must take fewer
        // than 100 global table-lock acquisitions per run at 4 processors,
        // and the split-phase counters must be surfaced in the record.
        let sor_cfg = GridConfig { rows: 512, cols: 32, iters: 3 };
        let jacobi_cfg = GridConfig { rows: 512, cols: 32, iters: 4 };
        let sor_val = run("sor", sor_cfg, 4, Variant::Validate);
        assert!(
            sor_val.time_ns < 8_000_000,
            "sor/validate must be under 8 ms: {} ns",
            sor_val.time_ns
        );
        assert!(sor_val.split_phase_issues > 0, "split-phase issues must be surfaced");
        assert_eq!(sor_val.split_phase_issues, sor_val.split_phase_completes);
        assert!(sor_val.sync_wait_ns > 0, "completion stall must be surfaced");
        for record in [
            run("jacobi", jacobi_cfg, 4, Variant::Validate),
            run("jacobi", jacobi_cfg, 4, Variant::Push),
            sor_val,
            run("sor", sor_cfg, 4, Variant::Push),
        ] {
            assert!(
                record.table_lock_acquires < 100,
                "{}/{} must take under 100 table locks: {}",
                record.app,
                record.variant,
                record.table_lock_acquires
            );
        }
    }

    #[test]
    fn detector_off_is_free_and_collect_takes_no_new_table_locks() {
        // The ISSUE acceptance criterion, self-enforced: with the detector
        // off, a gated record must be indistinguishable from a plain run —
        // same model time, same wire bytes — and turning Collect on must
        // not add a single page-table-lock acquisition on the warm TLB
        // path (detection reads twins and cached diffs under locks the
        // protocol already holds).
        let cfg = GridConfig { rows: 64, cols: 16, iters: 2 };
        let plain = run("sor", cfg, 8, Variant::Compiled);
        let race = run_race_case("sor", cfg, 8, Variant::Compiled);
        assert_eq!(race.time_ns_off, plain.time_ns, "Off must match the plain run's model time");
        assert_eq!(race.bytes_off, plain.bytes, "Off must match the plain run's wire bytes");
        assert_eq!(race.races, 0, "an analyzer-accepted kernel must run report-free");
        let run_with = |detect: treadmarks::RaceDetect| {
            let config =
                DsmConfig::new(8).with_cost_model(CostModel::sp2()).with_race_detect(detect);
            Dsm::run(config, move |p| sor(p, &cfg, Variant::Compiled))
        };
        let off = run_with(treadmarks::RaceDetect::Off);
        let on = run_with(treadmarks::RaceDetect::Collect);
        assert_eq!(
            on.stats.total().table_lock_acquires,
            off.stats.total().table_lock_acquires,
            "Collect must not acquire the page-table lock any additional time"
        );
        assert!(on.stats.total().tlb_hits > 0, "the compiled form stays on the TLB fast path");
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
    fn chaos_cases_inject_faults_and_stay_transparent() {
        // What the `--chaos` CLI enforces, self-enforced in miniature: the
        // schedules must not be vacuously clean, the checksums must survive
        // them bit-for-bit, and the injected latency must show up in the
        // modelled time.
        let cfg = GridConfig { rows: 64, cols: 8, iters: 2 };
        let records = run_chaos_cases("sor", cfg, 4, Variant::TreadMarks, &CHAOS_SEEDS);
        assert_eq!(records.len(), CHAOS_SEEDS.len());
        check_chaos(&records).expect("faults must be invisible to the application");
        let injected: u64 =
            records.iter().map(|r| r.retransmits + r.dups + r.reorders + r.delays).sum();
        assert!(injected > 0, "the schedules must actually inject faults");
        assert!(
            records.iter().any(|r| r.time_ns_chaos > r.time_ns_clean),
            "injected latency must be visible in the modelled time"
        );
        // And the failure direction: a doctored record must trip the check.
        let mut bad = records;
        bad[0].checksums_match = false;
        let err = check_chaos(&bad).expect_err("a checksum mismatch must fail the suite");
        assert!(err.contains("seed"), "the error names the offending schedule: {err}");
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
    fn a_tlb_miss_is_a_page_fault_on_every_record_of_both_suites() {
        // What the MMU substitution promises: a resident page costs
        // nothing, so the only accesses that leave the fast path are the
        // ones that fault. Stated for the gated matrix, not as a law — a
        // working set beyond the TLB's 256 entries may conflict-miss.
        for r in suite().into_iter().chain(scale_suite(None)) {
            assert_eq!(r.tlb_misses, r.page_faults, "{}/{}@{}", r.app, r.variant, r.nprocs);
        }
    }

    #[test]
    fn scale_records_are_identical_for_any_reactor_pool_size() {
        // The tentpole invariant at the bench layer: a 64-processor record
        // is bit-identical whether one reactor multiplexes all 64 nodes or
        // the pool is the host default.
        let default_pool = Case::new("sor", SCALE_SOR_CFG, 64, Variant::Compiled);
        let single = run_case(Case { reactors: Some(1), ..default_pool });
        let default_pool = run_case(default_pool);
        assert_eq!(single, default_pool, "the pool size must be invisible in the record");
    }

    #[test]
    fn a_64_processor_case_runs_on_a_bounded_thread_budget() {
        // The satellite acceptance criterion: a default-config wide run
        // serves its protocol side from min(nprocs, cores) reactors — the
        // live thread count stays under the seed design's 2·nprocs, by a
        // margin of nearly nprocs (headroom for concurrent tests; see the
        // companion 128-processor test in `treadmarks`).
        let nprocs = 64;
        let threads_now = || -> usize {
            std::fs::read_to_string("/proc/self/status")
                .unwrap_or_default()
                .lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
                .unwrap_or(0)
        };
        let peak = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let peak_in_run = std::sync::Arc::clone(&peak);
        let cfg = SCALE_JACOBI_CFG;
        let run = Dsm::run(DsmConfig::new(nprocs).with_cost_model(CostModel::sp2()), move |p| {
            // Sample only after a barrier: every compute thread is
            // provably alive, so the count is the run's plateau, not a
            // spawn-ramp artefact.
            p.barrier();
            if p.proc_id() == 0 {
                peak_in_run.store(threads_now(), std::sync::atomic::Ordering::SeqCst);
            }
            dsm_apps::jacobi(p, &cfg, Variant::Validate)
        });
        let cores =
            std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
        assert_eq!(run.reactors.len(), cores.min(nprocs), "one reactor per core, capped");
        let served: u64 = run.reactors.iter().map(|r| r.served).sum();
        assert!(served > 0, "the pool served the run's protocol traffic");
        let peak = peak.load(std::sync::atomic::Ordering::SeqCst);
        assert!(peak >= nprocs, "the compute threads were live when sampled: {peak}");
        assert!(
            peak < 2 * nprocs,
            "{peak} live threads: the protocol side must not cost a thread per node"
        );
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
                let mut r = tiny("jacobi", Variant::Push);
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
        // reliable-delivery layer costs literally nothing when disabled.
        // Any header byte, extra lock, or timing nudge on the Off path
        // breaks this. (`dsm-bench --check` holds the whole matrix to the
        // same file; these five keep the property inside `cargo test`.
        // is/compiled is absent because lock-grant arrival order jitters
        // its wire traffic run-to-run.)
        let baseline_json =
            std::fs::read_to_string(format!("{}/../../BENCH_PR8.json", env!("CARGO_MANIFEST_DIR")))
                .unwrap_or_else(|err| panic!("the checked-in BENCH_PR8.json baseline: {err}"));
        for (app, variant, nprocs) in [
            ("jacobi", Variant::Push, 4),
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
